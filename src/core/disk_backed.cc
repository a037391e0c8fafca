#include "core/disk_backed.h"

#include <memory>

#include "storage/serializer.h"

namespace tsc {
namespace {

constexpr std::uint32_t kSidecarMagic = 0x53494443;  // "SIDC"

}  // namespace

Status ExportSvddToDisk(const SvddModel& model, const std::string& u_path,
                        const std::string& sidecar_path) {
  // U, row-wise, as its own row store: the structure the paper assumes
  // lives on disk and is fetched one row per query. The model's quant
  // scheme carries through, so a quantized build serves from quantized
  // rows (the snapped doubles in U re-encode to the same codes). The
  // sidecar is committed inside U's write, so a failure anywhere before
  // U's rename leaves the previous U in place.
  return ReplaceFileAtomically(u_path, [&](const std::string& u_temp) {
    TSC_RETURN_IF_ERROR(WriteMatrixFile(u_temp, model.svd().u(),
                                        model.svd().quant_scheme()));
    return WriteFileAtomically(sidecar_path, [&](BinaryWriter* writer) {
      TSC_RETURN_IF_ERROR(writer->WriteU32(kSidecarMagic));
      TSC_RETURN_IF_ERROR(
          writer->WriteDoubleVector(model.svd().singular_values()));
      TSC_RETURN_IF_ERROR(writer->WriteMatrix(model.svd().v()));
      return model.deltas()->Serialize(writer);
    });
  });
}

StatusOr<DiskBackedStore> DiskBackedStore::Open(
    const std::string& u_path, const std::string& sidecar_path,
    const DiskBackedOptions& options) {
  TSC_ASSIGN_OR_RETURN(
      RowStoreReader reader,
      RowStoreReader::Open(u_path,
                           options.io_backend.value_or(DefaultIoBackendKind())));
  URowStore u_rows;
  if (options.cache_blocks > 0) {
    u_rows.cached = std::make_shared<CachedRowReader>(std::move(reader),
                                                      options.cache_blocks);
  } else {
    u_rows.reader = std::make_shared<RowStoreReader>(std::move(reader));
  }
  const RowStoreReader& u_file = u_rows.file();

  TSC_ASSIGN_OR_RETURN(BinaryReader sidecar, BinaryReader::Open(sidecar_path));
  TSC_ASSIGN_OR_RETURN(const std::uint32_t magic, sidecar.ReadU32());
  if (magic != kSidecarMagic) return Status::IoError("not a sidecar file");
  TSC_ASSIGN_OR_RETURN(std::vector<double> singular_values,
                       sidecar.ReadDoubleVector());
  TSC_ASSIGN_OR_RETURN(Matrix v, sidecar.ReadMatrix());
  TSC_ASSIGN_OR_RETURN(
      DeltaIndex deltas,
      DeltaIndex::Deserialize(&sidecar, u_file.rows(), v.rows()));
  TSC_RETURN_IF_ERROR(sidecar.VerifyChecksum());
  if (u_file.cols() != singular_values.size() ||
      v.cols() != singular_values.size()) {
    return Status::IoError("inconsistent disk-backed model dims");
  }
  TSC_ASSIGN_OR_RETURN(
      SvdModel svd,
      SvdModel::OverRowStore(u_rows, std::move(singular_values), std::move(v)));
  return DiskBackedStore(std::move(u_rows),
                         SvddModel(std::move(svd), std::move(deltas)));
}

}  // namespace tsc
