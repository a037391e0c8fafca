#ifndef TSC_STORAGE_ROW_SOURCE_H_
#define TSC_STORAGE_ROW_SOURCE_H_

#include <cstddef>
#include <span>

#include "linalg/matrix.h"
#include "util/status.h"

namespace tsc {

/// Streaming, multi-pass access to the rows of an N x M matrix.
///
/// The paper's build algorithms are expressed as a small number of
/// sequential passes over a dataset too large for memory; RowSource is that
/// abstraction. Implementations exist for in-memory matrices (tests,
/// examples) and for on-disk binary files (storage/row_store.h). The
/// compressors count `passes_started()` so tests can verify the 2-pass and
/// 3-pass guarantees of Sections 4.1 and 4.2.
class RowSource {
 public:
  virtual ~RowSource() = default;

  virtual std::size_t rows() const = 0;
  virtual std::size_t cols() const = 0;

  /// Rewinds to the first row and begins a new pass.
  Status Reset() {
    ++passes_started_;
    return ResetImpl();
  }

  /// Copies the next row into `out` (size cols()) and returns true, or
  /// returns false at end of data.
  virtual StatusOr<bool> NextRow(std::span<double> out) = 0;

  /// Unused in src/; kept because perfbench's TimingRowSource overrides it.
  virtual bool BenefitsFromReadahead() const { return false; }

  /// Number of Reset() calls so far; each full scan is one pass.
  std::size_t passes_started() const { return passes_started_; }

 protected:
  virtual Status ResetImpl() = 0;

 private:
  std::size_t passes_started_ = 0;
};

/// RowSource over an in-memory Matrix (not owned; must outlive the source).
class MatrixRowSource final : public RowSource {
 public:
  explicit MatrixRowSource(const Matrix* matrix) : matrix_(matrix) {}

  std::size_t rows() const override { return matrix_->rows(); }
  std::size_t cols() const override { return matrix_->cols(); }

  StatusOr<bool> NextRow(std::span<double> out) override;

 protected:
  Status ResetImpl() override {
    next_row_ = 0;
    return Status::Ok();
  }

 private:
  const Matrix* matrix_;
  std::size_t next_row_ = 0;
};

}  // namespace tsc

#endif  // TSC_STORAGE_ROW_SOURCE_H_
