#include "core/random_forest.hpp"

#include <gtest/gtest.h>

#include "core/flat_forest.hpp"
#include "ml/metrics.hpp"
#include "util/rng.hpp"

namespace drcshap {
namespace {

/// Noisy nonlinear task: label from two interacting features + noise, with
/// several pure-noise features (the paper's motivation for RF robustness).
Dataset noisy_data(std::size_t n, std::uint64_t seed) {
  Dataset d(8);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> x(8);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    const double signal = (x[0] > 0.6 && x[1] > 0.4) || x[2] > 0.9;
    const int label = rng.bernoulli(signal ? 0.9 : 0.05) ? 1 : 0;
    d.append_row(x, label, 0);
  }
  return d;
}

double forest_auprc(const RandomForestClassifier& forest, const Dataset& d) {
  return auprc(forest.predict_proba_all(d), d.labels());
}

TEST(RandomForest, BeatsSingleTreeOnNoisyTask) {
  const Dataset train = noisy_data(1500, 11);
  const Dataset test = noisy_data(1500, 12);

  RandomForestOptions single;
  single.n_trees = 1;
  single.max_features = 0;
  RandomForestClassifier one_tree(single);
  one_tree.fit(train);

  RandomForestOptions many;
  many.n_trees = 80;
  RandomForestClassifier forest(many);
  forest.fit(train);

  EXPECT_GT(forest_auprc(forest, test), forest_auprc(one_tree, test));
}

TEST(RandomForest, ProbabilitiesAreTreeAverages) {
  const Dataset d = noisy_data(300, 13);
  RandomForestOptions options;
  options.n_trees = 7;
  RandomForestClassifier forest(options);
  forest.fit(d);
  const auto x = d.row(5);
  double mean = 0.0;
  for (const DecisionTree& tree : forest.trees()) {
    const FlatForest one_tree(std::span<const DecisionTree>(&tree, 1));
    mean += one_tree.predict_tree(0, x.data());
  }
  mean /= 7.0;
  EXPECT_NEAR(forest.predict_proba(x), mean, 1e-12);
}

TEST(RandomForest, DeterministicAcrossThreadCounts) {
  const Dataset d = noisy_data(400, 14);
  RandomForestOptions serial;
  serial.n_trees = 12;
  serial.n_threads = 1;
  RandomForestOptions parallel = serial;
  parallel.n_threads = 4;
  RandomForestClassifier a(serial), b(parallel);
  a.fit(d);
  b.fit(d);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.predict_proba(d.row(i)), b.predict_proba(d.row(i)));
  }
}

TEST(RandomForest, SeedChangesModel) {
  const Dataset d = noisy_data(400, 15);
  RandomForestOptions o1, o2;
  o1.n_trees = o2.n_trees = 10;
  o2.seed = o1.seed + 1;
  RandomForestClassifier a(o1), b(o2);
  a.fit(d);
  b.fit(d);
  bool any_diff = false;
  for (std::size_t i = 0; i < 100 && !any_diff; ++i) {
    any_diff = a.predict_proba(d.row(i)) != b.predict_proba(d.row(i));
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomForest, MoreTreesDoNotHurt) {
  // The paper's cross-validation observation: growing the ensemble does not
  // degrade predictive quality.
  const Dataset train = noisy_data(1200, 16);
  const Dataset test = noisy_data(1200, 17);
  RandomForestOptions small, large;
  small.n_trees = 5;
  large.n_trees = 100;
  RandomForestClassifier few(small), many(large);
  few.fit(train);
  many.fit(train);
  EXPECT_GE(forest_auprc(many, test), forest_auprc(few, test) - 0.02);
}

TEST(RandomForest, ExpectedValueNearBaseRate) {
  const Dataset d = noisy_data(1000, 18);
  RandomForestOptions options;
  options.n_trees = 30;
  RandomForestClassifier forest(options);
  forest.fit(d);
  const double base_rate =
      static_cast<double>(d.n_positives()) / static_cast<double>(d.n_rows());
  EXPECT_NEAR(forest.expected_value(), base_rate, 0.05);
}

TEST(RandomForest, ComplexityCountersPositiveAndScale) {
  const Dataset d = noisy_data(500, 19);
  RandomForestOptions small, large;
  small.n_trees = 5;
  large.n_trees = 20;
  RandomForestClassifier a(small), b(large);
  a.fit(d);
  b.fit(d);
  EXPECT_GT(a.n_parameters(), 0u);
  EXPECT_GT(b.n_parameters(), a.n_parameters());
  EXPECT_GT(b.prediction_ops(), a.prediction_ops());
}

TEST(RandomForest, ValidatesUsage) {
  EXPECT_THROW(RandomForestClassifier(RandomForestOptions{.n_trees = 0}),
               std::invalid_argument);
  RandomForestClassifier unfitted;
  EXPECT_THROW(unfitted.predict_proba(std::vector<float>{1.0f}),
               std::logic_error);
  EXPECT_THROW(unfitted.expected_value(), std::logic_error);
  Dataset empty(3);
  RandomForestClassifier forest;
  EXPECT_THROW(forest.fit(empty), std::invalid_argument);
}

TEST(RandomForest, WithoutBootstrapUsesAllRows) {
  const Dataset d = noisy_data(300, 20);
  RandomForestOptions options;
  options.n_trees = 3;
  options.bootstrap = false;
  RandomForestClassifier forest(options);
  forest.fit(d);
  for (const DecisionTree& tree : forest.trees()) {
    EXPECT_DOUBLE_EQ(tree.nodes()[0].cover, 300.0);
  }
}

TEST(RandomForest, PositiveWeightRaisesRecallOnImbalanced) {
  Dataset train(4);
  Rng rng(21);
  for (int i = 0; i < 3000; ++i) {
    std::vector<float> x(4);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    const int label = rng.bernoulli(x[0] > 0.9 ? 0.6 : 0.005) ? 1 : 0;
    train.append_row(x, label, 0);
  }
  RandomForestOptions plain, weighted;
  plain.n_trees = weighted.n_trees = 40;
  weighted.positive_weight = 20.0;
  RandomForestClassifier a(plain), b(weighted);
  a.fit(train);
  b.fit(train);
  // The weighted forest should emit (weakly) larger scores on positives.
  double mean_a = 0.0, mean_b = 0.0;
  std::size_t n_pos = 0;
  for (std::size_t i = 0; i < train.n_rows(); ++i) {
    if (!train.label(i)) continue;
    mean_a += a.predict_proba(train.row(i));
    mean_b += b.predict_proba(train.row(i));
    ++n_pos;
  }
  ASSERT_GT(n_pos, 0u);
  EXPECT_GE(mean_b / n_pos, mean_a / n_pos - 0.02);
}

}  // namespace
}  // namespace drcshap
