#pragma once
// CART decision-tree classifier, the base learner of the Random Forest
// (Section III-A) and of RUSBoost.
//
// Training uses histogram binning (quantile bins computed once per dataset
// and shared across all trees of a forest), which makes node splitting
// O(rows x candidate-features) instead of O(rows log rows x features) — the
// practical trick that keeps 500-tree forests on ~100k x 387 data cheap, as
// the paper's "low computational cost" argument requires. Predictions use
// raw feature values against real-valued thresholds, so a fitted tree is
// self-contained (and exactly what the SHAP tree explainer consumes).

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace drcshap {

/// Quantile-binned view of a dataset, shared by all trees of a forest.
class BinnedMatrix {
 public:
  /// Bins every feature of `data` into at most `max_bins` (<= 256) quantile
  /// bins. Distinct values fewer than max_bins get one bin each.
  BinnedMatrix(const Dataset& data, int max_bins = 64);

  std::size_t n_rows() const { return n_rows_; }
  std::size_t n_features() const { return n_features_; }

  std::uint8_t bin(std::size_t row, std::size_t feature) const {
    return bins_[feature * n_rows_ + row];  // column-major (see .cpp)
  }
  /// Number of bins actually used by `feature` (>= 1).
  int n_bins(std::size_t feature) const { return n_bins_[feature]; }

  /// Real-valued threshold realizing the split "bin <= b": halfway between
  /// the largest value in bin b and the smallest in bin b+1.
  /// Requires 0 <= b < n_bins(feature) - 1.
  float split_threshold(std::size_t feature, int b) const;

 private:
  std::size_t n_rows_;
  std::size_t n_features_;
  std::vector<std::uint8_t> bins_;       ///< row-major
  std::vector<int> n_bins_;              ///< per feature
  std::vector<std::vector<float>> split_values_;  ///< per feature, size n_bins-1
};

/// One node of a fitted tree. Internal nodes split "x[feature] <= threshold
/// ? left : right"; leaves carry the positive-class probability. `cover`
/// (weighted training samples through the node) is what the SHAP tree
/// explainer uses to estimate conditional expectations.
struct TreeNode {
  std::int32_t feature = -1;  ///< -1 marks a leaf
  float threshold = 0.0f;
  std::int32_t left = -1;
  std::int32_t right = -1;
  double value = 0.0;  ///< P(y=1) among covered samples (leaves & internals)
  double cover = 0.0;
};

struct DecisionTreeOptions {
  int max_depth = -1;               ///< -1 = unpruned (grow until pure)
  std::size_t min_samples_leaf = 1;
  std::size_t min_samples_split = 2;
  /// Candidate features per split; -1 = all, 0 = floor(sqrt(n_features)).
  int max_features = -1;
  double min_impurity_decrease = 0.0;
  double positive_weight = 1.0;     ///< class weight on label 1
  std::uint64_t seed = 1;
};

class DecisionTree {
 public:
  DecisionTree() = default;

  /// Fit on all rows of `data` with a private binning.
  void fit(const Dataset& data, const DecisionTreeOptions& options = {},
           int max_bins = 64);

  /// Fit on the given rows (repeats allowed: bootstrap) against a shared
  /// binning. `binned` must have been built from `data`.
  void fit_binned(const BinnedMatrix& binned, const Dataset& data,
                  std::span<const std::size_t> rows,
                  const DecisionTreeOptions& options);

  bool fitted() const { return !nodes_.empty(); }
  const std::vector<TreeNode>& nodes() const { return nodes_; }
  std::size_t n_nodes() const { return nodes_.size(); }
  std::size_t n_leaves() const;
  /// Edge depth, computed once at fit/deserialization time; FlatForest
  /// copies it per tree when it flattens the ensemble.
  int depth() const { return depth_; }
  /// Mean leaf depth weighted by cover: expected comparisons per prediction.
  double mean_depth() const;
  /// Cover-weighted mean leaf value = E[f(x)] over the training data.
  double expected_value() const;
  std::size_t n_features() const { return n_features_; }

  /// Direct access for deserialization (model_io) and tests.
  void set_nodes(std::vector<TreeNode> nodes, std::size_t n_features);

 private:
  int compute_depth() const;

  std::vector<TreeNode> nodes_;  ///< nodes_[0] is the root
  std::size_t n_features_ = 0;
  int depth_ = 0;
};

}  // namespace drcshap
