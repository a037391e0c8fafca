#ifndef TSC_TESTS_QUERY_SCAN_ONLY_STORE_H_
#define TSC_TESTS_QUERY_SCAN_ONLY_STORE_H_

#include <cstdint>
#include <span>
#include <string>

#include "core/compressed_store.h"

namespace tsc {

/// Test oracle: forwards every reconstruction to `model` but exposes no
/// compressed domain, so a QueryExecutor over it answers every
/// aggregate by the row-reconstruction scan of the same model. `model`
/// must outlive the store.
class ScanOnlyStore final : public CompressedStore {
 public:
  explicit ScanOnlyStore(const CompressedStore* model) : model_(model) {}

  std::size_t rows() const override { return model_->rows(); }
  std::size_t cols() const override { return model_->cols(); }
  double ReconstructCell(std::size_t row, std::size_t col) const override {
    return model_->ReconstructCell(row, col);
  }
  void ReconstructRow(std::size_t row, std::span<double> out) const override {
    model_->ReconstructRow(row, out);
  }
  Status ReconstructRegion(std::span<const std::size_t> row_ids,
                           std::span<const std::size_t> col_ids,
                           Matrix* out) const override {
    return model_->ReconstructRegion(row_ids, col_ids, out);
  }
  std::uint64_t CompressedBytes() const override {
    return model_->CompressedBytes();
  }
  std::string MethodName() const override { return model_->MethodName(); }

 private:
  const CompressedStore* model_;
};

}  // namespace tsc

#endif  // TSC_TESTS_QUERY_SCAN_ONLY_STORE_H_
