#ifndef TSC_TESTS_CORE_BLOOM_SECTION_FILES_H_
#define TSC_TESTS_CORE_BLOOM_SECTION_FILES_H_

// Writers for older model file layouts, which the loaders must still
// read and answer from identically: a delta section followed by a Bloom
// filter over the delta keys (current writers emit the flag 0 and no
// filter), and a quantized model whose U is stored as its snapped f64
// rows (current writers store a quantized U as its row codes).

#include <string>

#include "core/svdd_compressor.h"
#include "storage/bloom_filter.h"
#include "storage/serializer.h"
#include "util/status.h"

namespace tsc {

/// The delta section plus a flagged Bloom filter, as older files had it.
inline Status WriteDeltasWithBloomSection(const DeltaIndex& deltas,
                                          BinaryWriter* writer) {
  TSC_RETURN_IF_ERROR(writer->WriteU64(deltas.entry_bytes()));
  TSC_RETURN_IF_ERROR(writer->WriteU64(deltas.size()));
  BloomFilter filter(deltas.size(), 10.0);
  Status status = Status::Ok();
  deltas.ForEach([&](std::size_t row, std::size_t col, double delta) {
    const std::uint64_t key = DeltaIndex::CellKey(row, col, deltas.cols());
    filter.Add(key);
    if (status.ok()) status = writer->WriteU64(key);
    if (status.ok()) status = writer->WriteDouble(delta);
  });
  TSC_RETURN_IF_ERROR(status);
  TSC_RETURN_IF_ERROR(writer->WriteU32(1));
  return filter.Serialize(writer);
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
/// stored as codes.
inline Status WriteModelWithSnappedU(const SvddModel& model,
                                     const std::string& path) {
  const SvdModel& svd = model.svd();
  TSC_ASSIGN_OR_RETURN(BinaryWriter writer, BinaryWriter::Open(path));
  TSC_RETURN_IF_ERROR(writer.WriteU32(0x53564444));  // "SVDD"
  TSC_RETURN_IF_ERROR(writer.WriteU32(0x53564431));  // "SVD1"
  TSC_RETURN_IF_ERROR(writer.WriteU64(svd.bytes_per_value()));
  TSC_RETURN_IF_ERROR(
      writer.WriteU32(static_cast<std::uint32_t>(svd.quant_scheme())));
  TSC_RETURN_IF_ERROR(writer.WriteDoubleVector(svd.singular_values()));
  TSC_RETURN_IF_ERROR(writer.WriteMatrix(svd.v()));
  TSC_RETURN_IF_ERROR(writer.WriteMatrix(svd.u()));
  TSC_RETURN_IF_ERROR(model.deltas()->Serialize(&writer));
  return writer.FinishWithChecksum();
}

}  // namespace tsc

#endif  // TSC_TESTS_CORE_BLOOM_SECTION_FILES_H_
