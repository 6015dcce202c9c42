#include "baselines/rusboost.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/log.hpp"
#include "util/rng.hpp"

namespace drcshap {

RusBoostClassifier::RusBoostClassifier(RusBoostOptions options)
    : options_(options) {
  if (options_.n_rounds <= 0) {
    throw std::invalid_argument("RUSBoost: n_rounds must be positive");
  }
}

void RusBoostClassifier::fit(const Dataset& data) {
  if (data.n_positives() == 0 || data.n_positives() == data.n_rows()) {
    throw std::invalid_argument("RUSBoost: training data needs both classes");
  }
  const std::size_t n = data.n_rows();
  Rng rng(options_.seed);
  const BinnedMatrix binned(data, 64);

  std::vector<std::size_t> pos_rows, neg_rows;
  for (std::size_t i = 0; i < n; ++i) {
    (data.label(i) ? pos_rows : neg_rows).push_back(i);
  }

  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  trees_.clear();
  alphas_.clear();

  // Per-round weighted undersample of negatives (all positives kept).
  auto draw_round_rows = [&]() {
    const std::size_t n_neg = std::min(
        neg_rows.size(),
        static_cast<std::size_t>(
            options_.negative_ratio * static_cast<double>(pos_rows.size())) + 1);
    // Weighted sampling with replacement from the negative pool.
    std::vector<double> cumulative(neg_rows.size());
    double total = 0.0;
    for (std::size_t k = 0; k < neg_rows.size(); ++k) {
      total += weights[neg_rows[k]];
      cumulative[k] = total;
    }
    std::vector<std::size_t> rows = pos_rows;
    rows.reserve(pos_rows.size() + n_neg);
    for (std::size_t k = 0; k < n_neg; ++k) {
      const double pick = rng.uniform() * total;
      const auto it =
          std::lower_bound(cumulative.begin(), cumulative.end(), pick);
      rows.push_back(neg_rows[static_cast<std::size_t>(
          std::min<std::ptrdiff_t>(it - cumulative.begin(),
                                   static_cast<std::ptrdiff_t>(neg_rows.size()) - 1))]);
    }
    return rows;
  };

  for (int round = 0; round < options_.n_rounds; ++round) {
    DecisionTreeOptions tree_options;
    tree_options.max_depth = options_.tree_max_depth;
    tree_options.min_samples_leaf = options_.min_samples_leaf;
    tree_options.min_samples_split = options_.min_samples_leaf * 2;
    tree_options.seed = rng();

    DecisionTree tree;
    tree.fit_binned(binned, data, draw_round_rows(), tree_options);

    // Weighted error over the FULL training set, walking the round tree's
    // one-tree FlatForest view.
    const FlatForest round_flat(std::span<const DecisionTree>(&tree, 1));
    double err = 0.0;
    std::vector<std::int8_t> h(n);
    for (std::size_t i = 0; i < n; ++i) {
      const bool predicted_pos =
          round_flat.predict_tree(0, data.row(i).data()) >= 0.5;
      h[i] = predicted_pos ? 1 : -1;
      const bool actual_pos = data.label(i) != 0;
      if (predicted_pos != actual_pos) err += weights[i];
    }
    err = std::clamp(err, 1e-10, 1.0 - 1e-10);
    if (err >= 0.5) {
      // Unhelpful learner: skip it (weights unchanged, resample next round).
      continue;
    }
    const double alpha = 0.5 * std::log((1.0 - err) / err);

    // AdaBoost weight update + normalization.
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const int y = data.label(i) ? 1 : -1;
      weights[i] *= std::exp(-alpha * y * h[i]);
      total += weights[i];
    }
    for (auto& w : weights) w /= total;

    trees_.push_back(std::move(tree));
    alphas_.push_back(alpha);
  }
  if (trees_.empty()) {
    throw std::runtime_error("RUSBoost: no round produced a useful learner");
  }
  flat_ = std::make_shared<FlatForest>(std::span<const DecisionTree>(trees_));
  alpha_total_ = std::accumulate(alphas_.begin(), alphas_.end(), 0.0);
  log_debug("RUSBoost fit: ", trees_.size(), " effective rounds");
}

double RusBoostClassifier::margin(std::span<const float> features) const {
  if (trees_.empty()) throw std::logic_error("RUSBoost: not fitted");
  const FlatForest& flat = *flat_;
  double total = 0.0;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    const double h =
        flat.predict_tree(t, features.data()) >= 0.5 ? 1.0 : -1.0;
    total += alphas_[t] * h;
  }
  return total;
}

double RusBoostClassifier::predict_proba(
    std::span<const float> features) const {
  // Tie-break the coarse {-1,+1} votes with the trees' leaf probabilities so
  // the ranking is smooth enough for P-R sweeps.
  if (trees_.empty()) throw std::logic_error("RUSBoost: not fitted");
  const FlatForest& flat = *flat_;
  double vote = 0.0, soft = 0.0;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    const double p = flat.predict_tree(t, features.data());
    vote += alphas_[t] * (p >= 0.5 ? 1.0 : -1.0);
    soft += alphas_[t] * (2.0 * p - 1.0);
  }
  const double normalized =
      (vote + 0.25 * soft) / std::max(1e-12, 1.25 * alpha_total_);
  return 1.0 / (1.0 + std::exp(-3.0 * normalized));
}

std::size_t RusBoostClassifier::n_parameters() const {
  std::size_t params = 0;
  for (const DecisionTree& tree : trees_) {
    const std::size_t leaves = tree.n_leaves();
    params += (tree.n_nodes() - leaves) * 2 + leaves;
  }
  return params + alphas_.size();
}

std::size_t RusBoostClassifier::prediction_ops() const {
  double ops = 0.0;
  for (const DecisionTree& tree : trees_) ops += tree.mean_depth();
  return static_cast<std::size_t>(ops) + 2 * trees_.size();
}

}  // namespace drcshap
