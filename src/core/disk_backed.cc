#include "core/disk_backed.h"

#include <memory>

#include "storage/serializer.h"

namespace tsc {

StatusOr<DiskBackedStore> DiskBackedStore::Open(
    const std::string& model_path, const DiskBackedOptions& options) {
  TSC_ASSIGN_OR_RETURN(BinaryReader reader, BinaryReader::Open(model_path));
  const auto open_u_rows = [&](const RowImage& image) -> StatusOr<URowStore> {
    TSC_ASSIGN_OR_RETURN(
        RowStoreReader rows,
        RowStoreReader::OpenImage(
            model_path, image,
            options.io_backend.value_or(DefaultIoBackendKind())));
    URowStore u_rows;
    if (options.cache_blocks > 0) {
      u_rows.cached = std::make_shared<CachedRowReader>(std::move(rows),
                                                        options.cache_blocks);
    } else {
      u_rows.reader = std::make_shared<RowStoreReader>(std::move(rows));
    }
    return u_rows;
  };
  TSC_ASSIGN_OR_RETURN(SvddModel model,
                       SvddModel::Deserialize(&reader, open_u_rows));
  TSC_RETURN_IF_ERROR(reader.VerifyChecksum());
  return DiskBackedStore(std::move(model));
}

}  // namespace tsc
