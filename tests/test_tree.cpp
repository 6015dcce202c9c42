#include "core/decision_tree.hpp"

#include <gtest/gtest.h>

#include "core/flat_forest.hpp"
#include "util/rng.hpp"

namespace drcshap {
namespace {

/// Labels = x0 > 0.5 (one clean threshold).
Dataset threshold_data(std::size_t n = 400) {
  Dataset d(3);
  Rng rng(1);
  for (std::size_t i = 0; i < n; ++i) {
    const float x0 = static_cast<float>(rng.uniform());
    const float x1 = static_cast<float>(rng.uniform());  // noise
    const float x2 = static_cast<float>(rng.uniform());  // noise
    d.append_row(std::vector<float>{x0, x1, x2}, x0 > 0.5f ? 1 : 0, 0);
  }
  return d;
}

/// XOR of two binary features: needs depth >= 2.
Dataset xor_data(std::size_t n = 400) {
  Dataset d(2);
  Rng rng(2);
  for (std::size_t i = 0; i < n; ++i) {
    const int a = rng.bernoulli(0.5);
    const int b = rng.bernoulli(0.5);
    d.append_row(std::vector<float>{static_cast<float>(a) + 0.01f * static_cast<float>(rng.normal()),
                                    static_cast<float>(b) + 0.01f * static_cast<float>(rng.normal())},
                 a ^ b, 0);
  }
  return d;
}

/// A fitted tree as a one-tree FlatForest: trees are scored through it
/// (predict_tree(0, x)), as every forest and RUSBoost round is.
FlatForest flat_of(const DecisionTree& tree) {
  return FlatForest(std::span<const DecisionTree>(&tree, 1));
}

double dataset_accuracy(const DecisionTree& tree, const Dataset& d) {
  const FlatForest flat = flat_of(tree);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.n_rows(); ++i) {
    const int predicted = flat.predict_tree(0, d.row(i).data()) >= 0.5 ? 1 : 0;
    if (predicted == d.label(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(d.n_rows());
}

// -------------------------------------------------------------- binning

TEST(BinnedMatrix, FewDistinctValuesGetOwnBins) {
  Dataset d(1);
  for (const float v : {1.0f, 2.0f, 2.0f, 5.0f}) {
    d.append_row(std::vector<float>{v}, 0, 0);
  }
  const BinnedMatrix binned(d, 64);
  EXPECT_EQ(binned.n_bins(0), 3);
  EXPECT_EQ(binned.bin(0, 0), 0);
  EXPECT_EQ(binned.bin(1, 0), 1);
  EXPECT_EQ(binned.bin(2, 0), 1);  // duplicate value, same bin
  EXPECT_EQ(binned.bin(3, 0), 2);
}

TEST(BinnedMatrix, SplitThresholdSeparatesBins) {
  Dataset d(1);
  for (const float v : {1.0f, 2.0f, 5.0f}) {
    d.append_row(std::vector<float>{v}, 0, 0);
  }
  const BinnedMatrix binned(d, 64);
  EXPECT_FLOAT_EQ(binned.split_threshold(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(binned.split_threshold(0, 1), 3.5f);
}

TEST(BinnedMatrix, ManyValuesRespectMaxBins) {
  Dataset d(1);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    d.append_row(std::vector<float>{static_cast<float>(rng.normal())}, 0, 0);
  }
  const BinnedMatrix binned(d, 16);
  EXPECT_LE(binned.n_bins(0), 16);
  EXPECT_GE(binned.n_bins(0), 8);
}

TEST(BinnedMatrix, BinsAreOrderedByValue) {
  Dataset d(1);
  Rng rng(4);
  std::vector<float> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<float>(rng.uniform(-5, 5)));
    d.append_row(std::vector<float>{values.back()}, 0, 0);
  }
  const BinnedMatrix binned(d, 32);
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = 0; j < values.size(); ++j) {
      if (values[i] < values[j]) {
        EXPECT_LE(binned.bin(i, 0), binned.bin(j, 0));
      }
    }
    if (i > 50) break;  // enough pairs
  }
}

TEST(BinnedMatrix, ConstantFeatureSingleBin) {
  Dataset d(1);
  for (int i = 0; i < 10; ++i) {
    d.append_row(std::vector<float>{7.0f}, 0, 0);
  }
  const BinnedMatrix binned(d, 64);
  EXPECT_EQ(binned.n_bins(0), 1);
}

TEST(BinnedMatrix, RejectsBadBinCount) {
  Dataset d = threshold_data(10);
  EXPECT_THROW(BinnedMatrix(d, 1), std::invalid_argument);
  EXPECT_THROW(BinnedMatrix(d, 257), std::invalid_argument);
}

// ----------------------------------------------------------------- tree

TEST(DecisionTree, LearnsSimpleThreshold) {
  const Dataset d = threshold_data();
  DecisionTree tree;
  tree.fit(d);
  EXPECT_GT(dataset_accuracy(tree, d), 0.97);
  // The root split should be on feature 0 near 0.5.
  EXPECT_EQ(tree.nodes()[0].feature, 0);
  EXPECT_NEAR(tree.nodes()[0].threshold, 0.5, 0.08);
}

TEST(DecisionTree, LearnsXor) {
  const Dataset d = xor_data();
  DecisionTree tree;
  tree.fit(d);
  EXPECT_GT(dataset_accuracy(tree, d), 0.99);
  EXPECT_GE(tree.depth(), 2);
}

TEST(DecisionTree, UnprunedTreeIsPureOnTrain) {
  const Dataset d = xor_data(200);
  DecisionTree tree;
  tree.fit(d);
  const FlatForest flat = flat_of(tree);
  for (std::size_t i = 0; i < d.n_rows(); ++i) {
    const double p = flat.predict_tree(0, d.row(i).data());
    EXPECT_TRUE(p == 0.0 || p == 1.0) << p;
  }
}

TEST(DecisionTree, MaxDepthRespected) {
  const Dataset d = xor_data();
  DecisionTreeOptions options;
  options.max_depth = 1;
  DecisionTree stump;
  stump.fit(d, options);
  EXPECT_LE(stump.depth(), 1);
  // XOR cannot be solved by a stump.
  EXPECT_LT(dataset_accuracy(stump, d), 0.75);
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  const Dataset d = threshold_data(200);
  DecisionTreeOptions options;
  options.min_samples_leaf = 30;
  DecisionTree tree;
  tree.fit(d, options);
  for (const TreeNode& n : tree.nodes()) {
    if (n.feature < 0) {
      EXPECT_GE(n.cover, 30.0);
    }
  }
}

TEST(DecisionTree, CoverSumsAcrossChildren) {
  const Dataset d = threshold_data();
  DecisionTree tree;
  tree.fit(d);
  for (const TreeNode& n : tree.nodes()) {
    if (n.feature < 0) continue;
    const double child_total =
        tree.nodes()[static_cast<std::size_t>(n.left)].cover +
        tree.nodes()[static_cast<std::size_t>(n.right)].cover;
    EXPECT_NEAR(n.cover, child_total, 1e-9);
  }
  EXPECT_DOUBLE_EQ(tree.nodes()[0].cover, 400.0);
}

TEST(DecisionTree, ExpectedValueMatchesBaseRate) {
  const Dataset d = threshold_data();
  DecisionTree tree;
  tree.fit(d);
  const double base_rate =
      static_cast<double>(d.n_positives()) / static_cast<double>(d.n_rows());
  EXPECT_NEAR(tree.expected_value(), base_rate, 1e-9);
}

TEST(DecisionTree, DeterministicForSeed) {
  const Dataset d = xor_data();
  DecisionTreeOptions options;
  options.max_features = 1;
  options.seed = 5;
  DecisionTree a, b;
  a.fit(d, options);
  b.fit(d, options);
  ASSERT_EQ(a.n_nodes(), b.n_nodes());
  for (std::size_t i = 0; i < a.n_nodes(); ++i) {
    EXPECT_EQ(a.nodes()[i].feature, b.nodes()[i].feature);
    EXPECT_FLOAT_EQ(a.nodes()[i].threshold, b.nodes()[i].threshold);
  }
}

TEST(DecisionTree, ClassWeightShiftsLeafValues) {
  const Dataset d = threshold_data();
  DecisionTreeOptions weighted;
  weighted.positive_weight = 10.0;
  weighted.max_depth = 0;  // root only: leaf value = weighted base rate
  DecisionTree tree;
  tree.fit(d, weighted);
  const double base_rate =
      static_cast<double>(d.n_positives()) / static_cast<double>(d.n_rows());
  EXPECT_GT(flat_of(tree).predict_tree(0, d.row(0).data()), base_rate);
}

TEST(DecisionTree, SingleClassDataYieldsLeafOnly) {
  Dataset d(2);
  for (int i = 0; i < 50; ++i) {
    d.append_row(std::vector<float>{static_cast<float>(i), 0.0f}, 0, 0);
  }
  DecisionTree tree;
  tree.fit(d);
  EXPECT_EQ(tree.n_nodes(), 1u);
  EXPECT_DOUBLE_EQ(flat_of(tree).predict_tree(0, d.row(0).data()), 0.0);
}

TEST(DecisionTree, FitOnBootstrapRows) {
  const Dataset d = threshold_data();
  const BinnedMatrix binned(d, 64);
  Rng rng(9);
  const auto rows = rng.bootstrap_indices(d.n_rows());
  DecisionTree tree;
  tree.fit_binned(binned, d, rows, {});
  EXPECT_GT(dataset_accuracy(tree, d), 0.9);
  EXPECT_DOUBLE_EQ(tree.nodes()[0].cover, static_cast<double>(rows.size()));
}

TEST(DecisionTree, MeanDepthBetweenZeroAndMax) {
  const Dataset d = xor_data();
  DecisionTree tree;
  tree.fit(d);
  EXPECT_GT(tree.mean_depth(), 0.0);
  EXPECT_LE(tree.mean_depth(), static_cast<double>(tree.depth()));
}

TEST(DecisionTree, LeafCountConsistent) {
  const Dataset d = threshold_data();
  DecisionTree tree;
  tree.fit(d);
  // Binary tree: leaves = internal nodes + 1.
  EXPECT_EQ(tree.n_leaves(), (tree.n_nodes() + 1) / 2);
}

}  // namespace
}  // namespace drcshap
