#ifndef TSC_TESTS_CORE_BLOOM_SECTION_FILES_H_
#define TSC_TESTS_CORE_BLOOM_SECTION_FILES_H_

// Writers for older model file layouts, which the loaders must still
// read and answer from identically: a delta section followed by a Bloom
// filter over the delta keys (current writers emit the flag 0 and no
// filter), a quantized model whose U is stored as its snapped f64 rows
// (current writers store a quantized U as its row codes), and a model of
// the retired b=4 mode (4 in the header's b field, every number an f64
// rounded through single precision).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/svdd_compressor.h"
#include "storage/serializer.h"
#include "util/logging.h"
#include "util/status.h"

namespace tsc {

/// The delta entries under a stated entry size, which current writers
/// always write as DeltaIndex::kPackedEntryBytes (the b=4 mode wrote 12).
inline Status WriteDeltaEntries(const DeltaIndex& deltas,
                                std::uint64_t entry_bytes,
                                BinaryWriter* writer) {
  TSC_RETURN_IF_ERROR(writer->WriteU64(entry_bytes));
  TSC_RETURN_IF_ERROR(writer->WriteU64(deltas.size()));
  Status status = Status::Ok();
  deltas.ForEach([&](std::size_t row, std::size_t col, double delta) {
    const std::uint64_t key = DeltaIndex::CellKey(row, col, deltas.cols());
    if (status.ok()) status = writer->WriteU64(key);
    if (status.ok()) status = writer->WriteDouble(delta);
  });
  return status;
}

/// The Bloom filter section older files wrote behind the flag 1: the
/// bit, hash, entry and word counts as u64s, then the filter's words. A
/// filter over `entries` keys had 10 bits a key (at least 64) and 7
/// hashes. The loader checks the header and skips the words, so they are
/// written as zeros.
inline Status WriteLegacyBloomSection(std::uint64_t entries,
                                      BinaryWriter* writer) {
  const std::uint64_t bits =
      std::max<std::uint64_t>(64, 10 * std::max<std::uint64_t>(entries, 1));
  const std::uint64_t words = (bits + 63) / 64;
  for (const std::uint64_t field : {bits, std::uint64_t{7}, entries, words}) {
    TSC_RETURN_IF_ERROR(writer->WriteU64(field));
  }
  for (std::uint64_t i = 0; i < words; ++i) {
    TSC_RETURN_IF_ERROR(writer->WriteU64(0));
  }
  return Status::Ok();
}

/// The delta section plus a flagged Bloom filter, as older files had it.
inline Status WriteDeltasWithBloomSection(const DeltaIndex& deltas,
                                          BinaryWriter* writer) {
  TSC_RETURN_IF_ERROR(
      WriteDeltaEntries(deltas, DeltaIndex::kPackedEntryBytes, writer));
  TSC_RETURN_IF_ERROR(writer->WriteU32(1));
  return WriteLegacyBloomSection(deltas.size(), writer);
}

/// An SVDD model file whose delta section carries a Bloom filter.
inline Status WriteModelWithBloomSection(const SvddModel& model,
                                         const std::string& path) {
  TSC_ASSIGN_OR_RETURN(BinaryWriter writer, BinaryWriter::Open(path));
  TSC_RETURN_IF_ERROR(writer.WriteU32(0x53564444));  // "SVDD"
  TSC_RETURN_IF_ERROR(model.svd().Serialize(&writer));
  TSC_RETURN_IF_ERROR(WriteDeltasWithBloomSection(*model.deltas(), &writer));
  return writer.FinishWithChecksum();
}

/// An SVDD model file with U as f64 rows ("SVD1") whatever the model's
/// quant scheme: the layout quantized models were saved in before U was
/// stored as codes. `b_field` is the header's bytes-per-value field; a
/// b=4 file's delta section states 12-byte entries, as that mode wrote
/// it, though each entry is 16 bytes.
inline Status WriteModelWithSnappedU(const SvddModel& model,
                                     const std::string& path,
                                     std::uint64_t b_field = kBytesPerValue) {
  const SvdModel& svd = model.svd();
  TSC_ASSIGN_OR_RETURN(BinaryWriter writer, BinaryWriter::Open(path));
  TSC_RETURN_IF_ERROR(writer.WriteU32(0x53564444));  // "SVDD"
  TSC_RETURN_IF_ERROR(writer.WriteU32(0x53564431));  // "SVD1"
  TSC_RETURN_IF_ERROR(writer.WriteU64(b_field));
  TSC_RETURN_IF_ERROR(
      writer.WriteU32(static_cast<std::uint32_t>(svd.quant_scheme())));
  TSC_RETURN_IF_ERROR(writer.WriteDoubleVector(svd.singular_values()));
  TSC_RETURN_IF_ERROR(writer.WriteMatrix(svd.v()));
  TSC_RETURN_IF_ERROR(writer.WriteMatrix(svd.u()));
  TSC_RETURN_IF_ERROR(WriteDeltaEntries(
      *model.deltas(), b_field == 4 ? 12 : DeltaIndex::kPackedEntryBytes,
      &writer));
  TSC_RETURN_IF_ERROR(writer.WriteU32(0));  // no Bloom filter follows
  return writer.FinishWithChecksum();
}

/// `model` as the retired b=4 mode held it: U, V, the singular values and
/// the deltas rounded through single precision.
/// WriteModelWithSnappedU(..., 4) writes it as that mode wrote its files.
inline SvddModel RoundedThroughFloat(const SvddModel& model) {
  const auto round = [](double v) { return double{static_cast<float>(v)}; };
  Matrix u = model.svd().u();
  Matrix v = model.svd().v();
  std::vector<double> singular_values = model.svd().singular_values();
  for (double& x : u.data()) x = round(x);
  for (double& x : v.data()) x = round(x);
  for (double& x : singular_values) x = round(x);
  std::vector<DeltaEntry> entries;
  model.deltas()->ForEach([&](std::size_t row, std::size_t col, double d) {
    entries.push_back({DeltaIndex::CellKey(row, col, model.cols()), round(d)});
  });
  auto deltas = DeltaIndex::Build(model.rows(), model.cols(), entries);
  TSC_CHECK_OK(deltas.status());
  return SvddModel(SvdModel(std::move(u), std::move(singular_values),
                            std::move(v)),
                   std::move(*deltas));
}

}  // namespace tsc

#endif  // TSC_TESTS_CORE_BLOOM_SECTION_FILES_H_
