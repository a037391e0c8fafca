#ifndef TSC_BASELINES_CLUSTERING_H_
#define TSC_BASELINES_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "core/compressed_store.h"
#include "linalg/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace tsc {

/// The vector-quantization baseline of Section 2.2: each sequence is
/// represented by its cluster's centroid; reconstruction of cell (i, j)
/// returns entry j of sequence i's representative.
class ClusterModel : public CompressedStore {
 public:
  ClusterModel() = default;
  ClusterModel(Matrix centroids, std::vector<std::uint32_t> assignment);

  std::size_t rows() const override { return assignment_.size(); }
  std::size_t cols() const override { return centroids_.cols(); }
  std::size_t num_clusters() const { return centroids_.rows(); }

  double ReconstructCell(std::size_t row, std::size_t col) const override;
  void ReconstructRow(std::size_t row, std::span<double> out) const override;

  /// The paper's accounting: (b * k * M) for the centroids plus (N * b)
  /// for the per-sequence cluster references.
  std::uint64_t CompressedBytes() const override;
  std::string MethodName() const override { return method_name_; }

  void set_method_name(std::string name) { method_name_ = std::move(name); }

  const Matrix& centroids() const { return centroids_; }
  const std::vector<std::uint32_t>& assignment() const { return assignment_; }

 private:
  Matrix centroids_;  ///< num_clusters x M
  std::vector<std::uint32_t> assignment_;
  std::string method_name_ = "hc";
};

/// Linkage rules for agglomerative clustering. The paper's off-the-shelf
/// 'S' configuration ("the element-to-cluster distance is the maximum
/// distance between the element and the members of the cluster") is
/// complete linkage, our default; the others feed the linkage ablation.
enum class Linkage {
  kComplete,
  kSingle,
  kAverage,
};

/// Agglomerative hierarchical clustering over the rows of `data`, cut at
/// `num_clusters`. Euclidean metric, O(N^2) memory and time via the
/// nearest-neighbor-chain algorithm — quadratic exactly like the paper's
/// tool, which "could not scale up beyond N = 3000".
StatusOr<ClusterModel> BuildHierarchicalClusterModel(
    const Matrix& data, std::size_t num_clusters,
    Linkage linkage = Linkage::kComplete);

/// Lloyd's k-means with k-means++ seeding: the scalable-clustering
/// comparison point discussed (and dismissed for quality) in Section 2.2.
struct KMeansOptions {
  std::size_t num_clusters = 8;
  std::size_t max_iterations = 50;
  std::uint64_t seed = 1;
};
StatusOr<ClusterModel> BuildKMeansClusterModel(const Matrix& data,
                                               const KMeansOptions& options);

/// Number of clusters that fits a given space budget (inverts the
/// paper's (b*k*M) + (N*b) formula). Returns 0 when nothing fits.
std::size_t ClustersForBudget(std::size_t num_rows, std::size_t num_cols,
                              std::uint64_t budget_bytes);

}  // namespace tsc

#endif  // TSC_BASELINES_CLUSTERING_H_
