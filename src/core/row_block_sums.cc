#include "core/row_block_sums.h"

namespace tsc {

RowBlockSums::RowBlockSums(std::size_t rows, std::size_t k)
    : rows_(rows),
      k_(k),
      blocks_((rows + kRowBlock - 1) / kRowBlock, k),
      superblocks_((rows + kRowSuperblock - 1) / kRowSuperblock, k) {}

void RowBlockSums::Finish() {
  constexpr std::size_t kBlocksPerSuperblock = kRowSuperblock / kRowBlock;
  for (std::size_t b = 0; b < blocks_.rows(); ++b) {
    kernels::Axpy(1.0, blocks_.Row(b).data(),
                  superblocks_.Row(b / kBlocksPerSuperblock).data(), k_);
  }
}

}  // namespace tsc
