#include "core/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace drcshap {

BinnedMatrix::BinnedMatrix(const Dataset& data, int max_bins)
    : n_rows_(data.n_rows()), n_features_(data.n_features()) {
  if (max_bins < 2 || max_bins > 256) {
    throw std::invalid_argument("BinnedMatrix: max_bins must be in [2, 256]");
  }
  if (n_rows_ == 0) throw std::invalid_argument("BinnedMatrix: empty dataset");
  bins_.resize(n_rows_ * n_features_);
  n_bins_.resize(n_features_);
  split_values_.resize(n_features_);

  std::vector<float> column(n_rows_);
  for (std::size_t f = 0; f < n_features_; ++f) {
    for (std::size_t r = 0; r < n_rows_; ++r) column[r] = data.row(r)[f];
    std::vector<float> sorted = column;
    std::sort(sorted.begin(), sorted.end());

    // Candidate cut points: midpoints between distinct consecutive values,
    // thinned to quantile positions when there are too many.
    std::vector<float>& cuts = split_values_[f];
    cuts.clear();
    std::vector<float> distinct;
    for (const float v : sorted) {
      if (distinct.empty() || v != distinct.back()) distinct.push_back(v);
    }
    if (static_cast<int>(distinct.size()) <= max_bins) {
      for (std::size_t k = 0; k + 1 < distinct.size(); ++k) {
        cuts.push_back((distinct[k] + distinct[k + 1]) / 2.0f);
      }
    } else {
      // Quantile cuts over the raw (duplicated) distribution, deduplicated.
      for (int b = 1; b < max_bins; ++b) {
        const std::size_t pos = static_cast<std::size_t>(
            static_cast<double>(b) * static_cast<double>(n_rows_) / max_bins);
        const float lo = sorted[std::min(pos, n_rows_ - 1)];
        // Midpoint to the next distinct value so the cut separates values.
        const auto next = std::upper_bound(distinct.begin(), distinct.end(), lo);
        if (next == distinct.end()) continue;
        const float cut = (lo + *next) / 2.0f;
        if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
      }
    }
    n_bins_[f] = static_cast<int>(cuts.size()) + 1;

    // Column-major bin codes (per-feature contiguous: node histograms walk
    // one feature over scattered rows, so this is the cache-friendly layout).
    std::uint8_t* out = bins_.data() + f * n_rows_;
    for (std::size_t r = 0; r < n_rows_; ++r) {
      const auto it = std::upper_bound(cuts.begin(), cuts.end(), column[r]);
      out[r] = static_cast<std::uint8_t>(it - cuts.begin());
    }
  }
}

float BinnedMatrix::split_threshold(std::size_t feature, int b) const {
  return split_values_.at(feature).at(static_cast<std::size_t>(b));
}

namespace {

double gini(double w_neg, double w_pos) {
  const double total = w_neg + w_pos;
  if (total <= 0.0) return 0.0;
  const double p = w_pos / total;
  return 2.0 * p * (1.0 - p);
}

struct SplitCandidate {
  bool valid = false;
  std::size_t feature = 0;
  int bin = 0;          ///< go left if bin(x) <= bin
  double gain = 0.0;
};

}  // namespace

void DecisionTree::fit(const Dataset& data, const DecisionTreeOptions& options,
                       int max_bins) {
  const BinnedMatrix binned(data, max_bins);
  std::vector<std::size_t> rows(data.n_rows());
  std::iota(rows.begin(), rows.end(), 0);
  fit_binned(binned, data, rows, options);
}

void DecisionTree::fit_binned(const BinnedMatrix& binned, const Dataset& data,
                              std::span<const std::size_t> rows,
                              const DecisionTreeOptions& options) {
  if (binned.n_rows() != data.n_rows() ||
      binned.n_features() != data.n_features()) {
    throw std::invalid_argument("DecisionTree: binning/dataset mismatch");
  }
  if (rows.empty()) throw std::invalid_argument("DecisionTree: no rows");
  n_features_ = data.n_features();
  nodes_.clear();
  Rng rng(options.seed);

  std::size_t mtry;
  if (options.max_features < 0) {
    mtry = n_features_;
  } else if (options.max_features == 0) {
    mtry = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::sqrt(static_cast<double>(n_features_))));
  } else {
    mtry = std::min<std::size_t>(static_cast<std::size_t>(options.max_features),
                                 n_features_);
  }

  // Shared work buffers.
  std::vector<std::size_t> index(rows.begin(), rows.end());
  std::vector<double> hist_neg(256), hist_pos(256);

  struct BuildItem {
    std::int32_t node;
    std::size_t begin, end;
    int depth;
  };
  std::vector<BuildItem> stack;

  auto weight_of = [&](std::size_t row) {
    return data.label(row) ? options.positive_weight : 1.0;
  };

  auto make_node = [&](std::size_t begin, std::size_t end) {
    double w_pos = 0.0, w_neg = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      (data.label(index[i]) ? w_pos : w_neg) += weight_of(index[i]);
    }
    TreeNode node;
    node.cover = w_pos + w_neg;
    node.value = node.cover > 0.0 ? w_pos / node.cover : 0.0;
    nodes_.push_back(node);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  const std::int32_t root = make_node(0, index.size());
  stack.push_back({root, 0, index.size(), 0});

  while (!stack.empty()) {
    const BuildItem item = stack.back();
    stack.pop_back();
    const std::size_t count = item.end - item.begin;
    TreeNode& node = nodes_[static_cast<std::size_t>(item.node)];

    const bool pure = node.value <= 0.0 || node.value >= 1.0;
    const bool too_deep =
        options.max_depth >= 0 && item.depth >= options.max_depth;
    if (pure || too_deep || count < options.min_samples_split) {
      continue;  // stays a leaf
    }

    // Candidate feature subset (random subspace).
    std::vector<std::size_t> candidates;
    if (mtry == n_features_) {
      candidates.resize(n_features_);
      std::iota(candidates.begin(), candidates.end(), 0);
    } else {
      candidates = rng.sample_without_replacement(n_features_, mtry);
    }

    const double parent_impurity =
        gini(node.cover * (1.0 - node.value), node.cover * node.value);
    SplitCandidate best;
    for (const std::size_t f : candidates) {
      const int nb = binned.n_bins(f);
      if (nb < 2) continue;
      std::fill(hist_neg.begin(), hist_neg.begin() + nb, 0.0);
      std::fill(hist_pos.begin(), hist_pos.begin() + nb, 0.0);
      for (std::size_t i = item.begin; i < item.end; ++i) {
        const std::size_t row = index[i];
        const std::uint8_t b = binned.bin(row, f);
        (data.label(row) ? hist_pos[b] : hist_neg[b]) += weight_of(row);
      }
      double left_neg = 0.0, left_pos = 0.0;
      for (int b = 0; b + 1 < nb; ++b) {
        left_neg += hist_neg[b];
        left_pos += hist_pos[b];
        const double wl = left_neg + left_pos;
        const double wr = node.cover - wl;
        if (wl <= 0.0 || wr <= 0.0) continue;
        const double right_neg = node.cover * (1.0 - node.value) - left_neg;
        const double right_pos = node.cover * node.value - left_pos;
        const double gain =
            parent_impurity - (wl * gini(left_neg, left_pos) +
                               wr * gini(right_neg, right_pos)) /
                                  node.cover;
        if (gain > best.gain + 1e-12) {
          best = {true, f, b, gain};
        }
      }
    }

    if (!best.valid || best.gain <= options.min_impurity_decrease) continue;

    // Partition rows by the chosen split.
    const auto mid_it = std::partition(
        index.begin() + static_cast<std::ptrdiff_t>(item.begin),
        index.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](std::size_t row) {
          return binned.bin(row, best.feature) <= best.bin;
        });
    const std::size_t mid =
        static_cast<std::size_t>(mid_it - index.begin());
    const std::size_t n_left = mid - item.begin;
    const std::size_t n_right = item.end - mid;
    if (n_left < options.min_samples_leaf ||
        n_right < options.min_samples_leaf || n_left == 0 || n_right == 0) {
      continue;
    }

    const std::int32_t left = make_node(item.begin, mid);
    const std::int32_t right = make_node(mid, item.end);
    // `node` reference may dangle after make_node reallocation: re-fetch.
    TreeNode& parent = nodes_[static_cast<std::size_t>(item.node)];
    parent.feature = static_cast<std::int32_t>(best.feature);
    parent.threshold = binned.split_threshold(best.feature, best.bin);
    parent.left = left;
    parent.right = right;
    stack.push_back({left, item.begin, mid, item.depth + 1});
    stack.push_back({right, mid, item.end, item.depth + 1});
  }
  depth_ = compute_depth();
}

std::size_t DecisionTree::n_leaves() const {
  std::size_t leaves = 0;
  for (const TreeNode& n : nodes_) {
    if (n.feature < 0) ++leaves;
  }
  return leaves;
}

int DecisionTree::compute_depth() const {
  if (!fitted()) return 0;
  // Iterative DFS carrying depth.
  int max_depth = 0;
  std::vector<std::pair<std::int32_t, int>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [node, d] = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[static_cast<std::size_t>(node)];
    if (n.feature < 0) {
      max_depth = std::max(max_depth, d);
    } else {
      stack.emplace_back(n.left, d + 1);
      stack.emplace_back(n.right, d + 1);
    }
  }
  return max_depth;
}

double DecisionTree::mean_depth() const {
  if (!fitted()) return 0.0;
  double weighted = 0.0;
  const double total = nodes_[0].cover;
  std::vector<std::pair<std::int32_t, int>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [node, d] = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[static_cast<std::size_t>(node)];
    if (n.feature < 0) {
      weighted += n.cover * d;
    } else {
      stack.emplace_back(n.left, d + 1);
      stack.emplace_back(n.right, d + 1);
    }
  }
  return total > 0.0 ? weighted / total : 0.0;
}

double DecisionTree::expected_value() const {
  if (!fitted()) return 0.0;
  double total = 0.0;
  for (const TreeNode& n : nodes_) {
    if (n.feature < 0) total += n.cover * n.value;
  }
  return nodes_[0].cover > 0.0 ? total / nodes_[0].cover : 0.0;
}

void DecisionTree::set_nodes(std::vector<TreeNode> nodes,
                             std::size_t n_features) {
  if (nodes.empty()) throw std::invalid_argument("set_nodes: empty tree");
  nodes_ = std::move(nodes);
  n_features_ = n_features;
  depth_ = compute_depth();
}

}  // namespace drcshap
