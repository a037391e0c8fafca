#ifndef TSC_TESTS_CORE_BLOOM_SECTION_FILES_H_
#define TSC_TESTS_CORE_BLOOM_SECTION_FILES_H_

// Writers for the older model and sidecar layout, whose delta section is
// followed by a Bloom filter over the delta keys. Current writers emit
// the same bytes with the filter flag 0 and no filter; the loaders must
// still read the older files and answer identically.

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

/// An SVDD model file in the older layout.
inline Status WriteModelWithBloomSection(const SvddModel& model,
                                         const std::string& path) {
  TSC_ASSIGN_OR_RETURN(BinaryWriter writer, BinaryWriter::Open(path));
  TSC_RETURN_IF_ERROR(writer.WriteU32(0x53564444));  // "SVDD"
  TSC_RETURN_IF_ERROR(model.svd().Serialize(&writer));
  TSC_RETURN_IF_ERROR(WriteDeltasWithBloomSection(*model.deltas(), &writer));
  return writer.FinishWithChecksum();
}

/// A disk-layout sidecar in the older layout (pairs with the U file of
/// ExportSvddToDisk).
inline Status WriteSidecarWithBloomSection(const SvddModel& model,
                                           const std::string& path) {
  TSC_ASSIGN_OR_RETURN(BinaryWriter writer, BinaryWriter::Open(path));
  TSC_RETURN_IF_ERROR(writer.WriteU32(0x53494443));  // "SIDC"
  TSC_RETURN_IF_ERROR(writer.WriteDoubleVector(model.svd().singular_values()));
  TSC_RETURN_IF_ERROR(writer.WriteMatrix(model.svd().v()));
  TSC_RETURN_IF_ERROR(WriteDeltasWithBloomSection(*model.deltas(), &writer));
  return writer.FinishWithChecksum();
}

}  // namespace tsc

#endif  // TSC_TESTS_CORE_BLOOM_SECTION_FILES_H_
