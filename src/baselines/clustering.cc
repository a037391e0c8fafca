#include "baselines/clustering.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/vector_ops.h"
#include "util/logging.h"

namespace tsc {
namespace {

/// Union-find over row indices, used to apply a dendrogram cut.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(std::size_t a, std::size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<std::size_t> parent_;
};

struct Merge {
  std::size_t a;
  std::size_t b;
  double distance;
};

double LanceWilliams(Linkage linkage, double dac, double dbc, std::size_t na,
                     std::size_t nb) {
  switch (linkage) {
    case Linkage::kComplete:
      return std::max(dac, dbc);
    case Linkage::kSingle:
      return std::min(dac, dbc);
    case Linkage::kAverage:
      return (static_cast<double>(na) * dac + static_cast<double>(nb) * dbc) /
             static_cast<double>(na + nb);
  }
  return dac;
}

ClusterModel ModelFromAssignment(const Matrix& data,
                                 std::vector<std::uint32_t> assignment,
                                 std::size_t num_clusters) {
  Matrix centroids(num_clusters, data.cols());
  std::vector<std::size_t> counts(num_clusters, 0);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const std::uint32_t c = assignment[i];
    Axpy(1.0, data.Row(i), centroids.Row(c));
    ++counts[c];
  }
  for (std::size_t c = 0; c < num_clusters; ++c) {
    if (counts[c] > 0) {
      ScaleInPlace(centroids.Row(c), 1.0 / static_cast<double>(counts[c]));
    }
  }
  return ClusterModel(std::move(centroids), std::move(assignment));
}

}  // namespace

ClusterModel::ClusterModel(Matrix centroids,
                           std::vector<std::uint32_t> assignment)
    : centroids_(std::move(centroids)), assignment_(std::move(assignment)) {
  for (const std::uint32_t c : assignment_) {
    TSC_CHECK_LT(c, centroids_.rows());
  }
}

double ClusterModel::ReconstructCell(std::size_t row, std::size_t col) const {
  TSC_DCHECK(row < rows() && col < cols());
  return centroids_(assignment_[row], col);
}

void ClusterModel::ReconstructRow(std::size_t row,
                                  std::span<double> out) const {
  TSC_CHECK_EQ(out.size(), cols());
  const std::span<const double> centroid = centroids_.Row(assignment_[row]);
  std::copy(centroid.begin(), centroid.end(), out.begin());
}

std::uint64_t ClusterModel::CompressedBytes() const {
  // (b * k * M) centroids + (N * b) cluster references (Section 5.1).
  return kBytesPerValue * num_clusters() * cols() + rows() * kBytesPerValue;
}

StatusOr<ClusterModel> BuildHierarchicalClusterModel(const Matrix& data,
                                                     std::size_t num_clusters,
                                                     Linkage linkage) {
  const std::size_t n = data.rows();
  if (n == 0) return Status::InvalidArgument("empty matrix");
  if (num_clusters == 0 || num_clusters > n) {
    return Status::InvalidArgument("num_clusters must be in [1, N]");
  }
  if (n > 20000) {
    // The O(N^2) distance matrix would exceed memory — the same wall the
    // paper hit with its quadratic tool (Section 5.3).
    return Status::ResourceExhausted(
        "hierarchical clustering is quadratic; N too large");
  }

  // Pairwise Euclidean distances.
  std::vector<double> dist(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = EuclideanDistance(data.Row(i), data.Row(j));
      dist[i * n + j] = d;
      dist[j * n + i] = d;
    }
  }

  // Nearest-neighbor-chain agglomeration: O(N^2) for reducible linkages
  // (complete, single and average all are).
  std::vector<bool> active(n, true);
  std::vector<std::size_t> cluster_size(n, 1);
  std::vector<std::size_t> chain;
  std::vector<Merge> merges;
  merges.reserve(n - 1);
  std::size_t remaining = n;

  while (remaining > 1) {
    if (chain.empty()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (active[i]) {
          chain.push_back(i);
          break;
        }
      }
    }
    const std::size_t tip = chain.back();
    // Nearest active neighbor of the chain tip.
    std::size_t nearest = n;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (!active[j] || j == tip) continue;
      const double d = dist[tip * n + j];
      if (d < best) {
        best = d;
        nearest = j;
      }
    }
    if (chain.size() >= 2 && nearest == chain[chain.size() - 2]) {
      // Reciprocal nearest neighbors: merge tip and nearest into `tip`.
      const std::size_t a = tip;
      const std::size_t b = nearest;
      merges.push_back(Merge{a, b, best});
      for (std::size_t c = 0; c < n; ++c) {
        if (!active[c] || c == a || c == b) continue;
        const double dac = dist[a * n + c];
        const double dbc = dist[b * n + c];
        const double updated =
            LanceWilliams(linkage, dac, dbc, cluster_size[a], cluster_size[b]);
        dist[a * n + c] = updated;
        dist[c * n + a] = updated;
      }
      cluster_size[a] += cluster_size[b];
      active[b] = false;
      --remaining;
      chain.pop_back();
      chain.pop_back();
    } else {
      chain.push_back(nearest);
    }
  }

  // Cut the dendrogram: apply the n - num_clusters cheapest merges.
  std::sort(merges.begin(), merges.end(),
            [](const Merge& x, const Merge& y) {
              return x.distance < y.distance;
            });
  DisjointSets sets(n);
  for (std::size_t i = 0; i + num_clusters < n; ++i) {
    sets.Union(merges[i].a, merges[i].b);
  }
  // Densify root ids to [0, num_clusters).
  std::vector<std::uint32_t> assignment(n);
  std::vector<std::size_t> root_to_cluster(n, n);
  std::size_t next_cluster = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = sets.Find(i);
    if (root_to_cluster[root] == n) root_to_cluster[root] = next_cluster++;
    assignment[i] = static_cast<std::uint32_t>(root_to_cluster[root]);
  }
  TSC_CHECK_EQ(next_cluster, num_clusters);
  return ModelFromAssignment(data, std::move(assignment), num_clusters);
}

StatusOr<ClusterModel> BuildKMeansClusterModel(const Matrix& data,
                                               const KMeansOptions& options) {
  const std::size_t n = data.rows();
  const std::size_t m = data.cols();
  const std::size_t k = options.num_clusters;
  if (n == 0) return Status::InvalidArgument("empty matrix");
  if (k == 0 || k > n) {
    return Status::InvalidArgument("num_clusters must be in [1, N]");
  }
  Rng rng(options.seed);

  // k-means++ seeding.
  Matrix centroids(k, m);
  std::vector<double> min_dist2(n, std::numeric_limits<double>::infinity());
  std::size_t first = static_cast<std::size_t>(rng.UniformUint64(n));
  std::copy(data.Row(first).begin(), data.Row(first).end(),
            centroids.Row(0).begin());
  for (std::size_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = EuclideanDistance(data.Row(i), centroids.Row(c - 1));
      min_dist2[i] = std::min(min_dist2[i], d * d);
      total += min_dist2[i];
    }
    std::size_t chosen = n - 1;
    if (total > 0.0) {
      double target = rng.UniformDouble() * total;
      for (std::size_t i = 0; i < n; ++i) {
        target -= min_dist2[i];
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = static_cast<std::size_t>(rng.UniformUint64(n));
    }
    std::copy(data.Row(chosen).begin(), data.Row(chosen).end(),
              centroids.Row(c).begin());
  }

  // Lloyd iterations.
  std::vector<std::uint32_t> assignment(n, 0);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::uint32_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = EuclideanDistance(data.Row(i), centroids.Row(c));
        if (d < best) {
          best = d;
          best_c = static_cast<std::uint32_t>(c);
        }
      }
      if (assignment[i] != best_c) {
        assignment[i] = best_c;
        changed = true;
      }
    }
    // Recompute centroids; reseed empty clusters to random points.
    Matrix sums(k, m);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      Axpy(1.0, data.Row(i), sums.Row(assignment[i]));
      ++counts[assignment[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        const std::size_t pick = static_cast<std::size_t>(rng.UniformUint64(n));
        std::copy(data.Row(pick).begin(), data.Row(pick).end(),
                  centroids.Row(c).begin());
        changed = true;
      } else {
        for (std::size_t j = 0; j < m; ++j) {
          centroids(c, j) = sums(c, j) / static_cast<double>(counts[c]);
        }
      }
    }
    if (!changed) break;
  }

  ClusterModel model = ModelFromAssignment(data, std::move(assignment), k);
  model.set_method_name("kmeans");
  return model;
}

std::size_t ClustersForBudget(std::size_t num_rows, std::size_t num_cols,
                              std::uint64_t budget_bytes) {
  const std::uint64_t reference_cost = num_rows * kBytesPerValue;
  if (budget_bytes <= reference_cost) return 0;
  const std::uint64_t per_cluster = num_cols * kBytesPerValue;
  if (per_cluster == 0) return 0;
  const std::uint64_t k = (budget_bytes - reference_cost) / per_cluster;
  return static_cast<std::size_t>(std::min<std::uint64_t>(k, num_rows));
}

}  // namespace tsc
