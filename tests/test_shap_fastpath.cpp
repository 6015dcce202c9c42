// Byte-identity suite for the batched fast TreeSHAP path and the
// explanation cache: whatever combination of walk (scalar fast / AVX2
// fast), thread count, and cache configuration runs, every phi double must
// match the reference recursion (single-sample shap_values) bit for bit. The
// fast path is only allowed to change speed, never a single output bit —
// same contract the compiled inference backend makes, now for explanations.

#include "core/tree_shap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "benchsuite/pipeline.hpp"
#include "benchsuite/suite.hpp"
#include "core/explanation_cache.hpp"
#include "core/random_forest.hpp"
#include "core/tree_shap_simd.hpp"
#include "features/feature_names.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace drcshap {
namespace {

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_TRUE(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Temporarily pins one environment variable, restoring on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_ = false;
};

Dataset random_data(std::size_t n, std::size_t n_features,
                    std::uint64_t seed) {
  Dataset d(n_features);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> x(n_features);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    double score = x[0] + x[1 % n_features] + x[2 % n_features];
    if (x[0] > 0.5 && x[1 % n_features] > 0.5) score += 1.0;
    score += 0.3 * rng.normal();
    d.append_row(x, score > 1.6 ? 1 : 0, 0);
  }
  return d;
}

/// Evaluation rows engineered against the walks' branch decisions: values
/// exactly on fitted thresholds, one ulp to either side, NaN (comparisons
/// false, so the sample always goes right), signed zeros, infinities, and
/// duplicated rows (exercising the dedupe-scatter path).
Dataset adversarial_rows(const RandomForestClassifier& forest, std::size_t n,
                         std::uint64_t seed) {
  const FlatForest& flat = forest.flat();
  std::vector<float> thresholds;
  for (std::size_t node = 0; node < flat.n_nodes(); ++node) {
    if (flat.feature()[node] >= 0) {
      thresholds.push_back(flat.threshold()[node]);
    }
  }
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Dataset d(flat.n_features());
  Rng rng(seed);
  std::vector<float> x(flat.n_features());
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : x) {
      const int kind = static_cast<int>(rng.uniform() * 10.0);
      if (kind <= 2 && !thresholds.empty()) {
        float t = thresholds[static_cast<std::size_t>(rng.uniform() *
                             static_cast<double>(thresholds.size())) %
                             thresholds.size()];
        if (kind == 1) t = std::nextafter(t, kInf);
        if (kind == 2) t = std::nextafter(t, -kInf);
        v = t;
      } else if (kind == 3) {
        v = rng.bernoulli(0.5) ? 0.0f : -0.0f;
      } else if (kind == 4) {
        v = rng.bernoulli(0.5) ? kInf : -kInf;
      } else if (kind == 5) {
        v = std::nanf("");
      } else {
        v = static_cast<float>(rng.uniform() * 2.0 - 0.5);
      }
    }
    d.append_row(x, 0, 0);
    if (rng.bernoulli(0.3)) d.append_row(x, 0, 0);  // duplicate row
  }
  return d;
}

/// Ground truth: the Algorithm-2 reference recursion, one shap_values call
/// per row. The batch sums trees in the same order and scales once, so the
/// two agree bit for bit on forests of at most one tree block (64 trees),
/// which every forest here is.
ShapMatrix reference_phi(const RandomForestClassifier& forest,
                         const Dataset& data) {
  const TreeShapExplainer explainer(forest);
  ShapMatrix out;
  out.n_rows = data.n_rows();
  out.n_features = data.n_features();
  for (std::size_t r = 0; r < data.n_rows(); ++r) {
    const std::vector<double> phi = explainer.shap_values(data.row(r));
    out.values.insert(out.values.end(), phi.begin(), phi.end());
  }
  return out;
}

void check_all_configs(const RandomForestClassifier& forest,
                       const Dataset& data) {
  const ShapMatrix reference = reference_phi(forest, data);

  TreeShapExplainer explainer(forest);
  const auto cache = std::make_shared<ExplanationCache>();
  for (const bool with_cache : {false, true}) {
    SCOPED_TRACE(with_cache ? "cache=on" : "cache=off");
    explainer.set_cache(with_cache ? cache : nullptr);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      expect_bits_equal(reference.values,
                        explainer.shap_values_batch(data, threads).values);
    }
  }
  // Warm cache: every row now hits; the scatter must still reproduce the
  // reference bits exactly.
  explainer.set_cache(cache);
  expect_bits_equal(reference.values,
                    explainer.shap_values_batch(data, 2).values);
  EXPECT_GT(cache->stats().hits, 0u);

  {
    // Scalar fast walk (SIMD kill switch): same bits again.
    ScopedEnv simd("DRCSHAP_SIMD", "0");
    const TreeShapExplainer scalar_explainer(forest);
    expect_bits_equal(reference.values,
                      scalar_explainer.shap_values_batch(data, 1).values);
  }
}

TEST(ShapFastPath, FuzzForestsByteIdenticalAcrossAllConfigs) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Dataset train = random_data(240, 10, seed);
    RandomForestOptions options;
    options.n_trees = 20;
    options.seed = seed;
    RandomForestClassifier forest(options);
    forest.fit(train);
    const Dataset eval = adversarial_rows(forest, 40, seed + 100);
    check_all_configs(forest, eval);
  }
}

TEST(ShapFastPath, HandBuiltAdversarialTrees) {
  // Tree 0: duplicated split feature along one path, thresholds one ulp
  // apart — the unique-path folding and dup_index machinery must agree
  // with the reference recursion on which branch each value takes.
  const float t = 0.5f;
  const float t_up = std::nextafter(t, 2.0f);
  std::vector<TreeNode> dup(7);
  dup[0] = {0, t, 1, 2, 0.5, 100.0};
  dup[1] = {0, std::nextafter(t, -2.0f), 3, 4, 0.3, 60.0};
  dup[2] = {1, -0.0f, 5, 6, 0.8, 40.0};
  dup[3] = {-1, 0.0f, -1, -1, 0.1, 30.0};
  dup[4] = {-1, 0.0f, -1, -1, 0.5, 30.0};
  dup[5] = {-1, 0.0f, -1, -1, 0.7, 25.0};
  dup[6] = {-1, 0.0f, -1, -1, 0.9, 15.0};
  DecisionTree tree_dup;
  tree_dup.set_nodes(dup, 2);

  // Tree 1: threshold exactly -0.0 (x <= -0.0 is true for both zeros).
  std::vector<TreeNode> zero(3);
  zero[0] = {1, -0.0f, 1, 2, 0.4, 80.0};
  zero[1] = {-1, 0.0f, -1, -1, 0.2, 50.0};
  zero[2] = {-1, 0.0f, -1, -1, 0.75, 30.0};
  DecisionTree tree_zero;
  tree_zero.set_nodes(zero, 2);

  RandomForestClassifier forest(RandomForestOptions{});
  forest.set_trees({tree_dup, tree_zero}, RandomForestOptions{});

  Dataset eval(2);
  for (const float x0 : {t, t_up, std::nextafter(t, -2.0f), -0.0f,
                         std::nanf(""), 0.75f}) {
    for (const float x1 : {-0.0f, 0.0f, std::nanf(""), -1.0f, 1.0f}) {
      eval.append_row(std::vector<float>{x0, x1}, 0, 0);
    }
  }
  check_all_configs(forest, eval);
}

/// Rows whose floats differ but whose quantized codes coincide take the
/// same branch at every split: the batch explains them as one unique row,
/// and each still gets exactly the phi of its own reference recursion.
TEST(ShapFastPath, EqualCodesDedupeToOneRowWithEachRowsOwnPhi) {
  const Dataset train = random_data(240, 10, 21);
  RandomForestOptions options;
  options.n_trees = 20;
  options.seed = 21;
  RandomForestClassifier forest(options);
  forest.fit(train);
  const CompiledForest* compiled = forest.compiled();
  ASSERT_NE(compiled, nullptr);

  // Nudge feature 0 of a training row up one ulp; keep the first row where
  // that crosses no split threshold.
  std::vector<float> a, b;
  std::vector<std::uint16_t> codes_a(10), codes_b(10);
  for (std::size_t r = 0; r < train.n_rows() && a.empty(); ++r) {
    std::vector<float> x(train.row(r).begin(), train.row(r).end());
    std::vector<float> y = x;
    y[0] = std::nextafter(x[0], 2.0f);
    compiled->quantize_sample(x.data(), codes_a.data());
    compiled->quantize_sample(y.data(), codes_b.data());
    if (codes_a == codes_b) {
      a = std::move(x);
      b = std::move(y);
    }
  }
  ASSERT_FALSE(a.empty());
  ASSERT_NE(a[0], b[0]);

  Dataset pair(10);
  pair.append_row(a, 0, 0);
  pair.append_row(b, 0, 0);
  const auto unique_rows = [] {
    const obs::Snapshot snap = obs::snapshot();
    const auto it = snap.counters.find("shap/batch_unique_rows");
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t before = unique_rows();
  const ShapMatrix phi = TreeShapExplainer(forest).shap_values_batch(pair, 1);
  if (obs::kEnabled) {
    EXPECT_EQ(unique_rows() - before, 1u);
  }

  for (std::size_t r = 0; r < 2; ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    Dataset one(10);
    one.append_row(r == 0 ? a : b, 0, 0);
    const auto row = phi.row(r);
    expect_bits_equal(reference_phi(forest, one).values,
                      std::vector<double>(row.begin(), row.end()));
  }
}

/// One tree with a `spine`-long chain of splits (each with a leaf on its
/// left) ending in a full subtree of depth `bush`: depth spine + bush,
/// spine + 2^bush leaves, consistent covers. Each bush leaf is 0.0 with
/// probability `zero_share` (a dead leaf of the fast walks); every other
/// leaf value is drawn from (0, 1).
DecisionTree spine_and_bush_tree(int spine, int bush, std::size_t n_features,
                                 std::uint64_t seed, double zero_share = 0.0) {
  std::vector<TreeNode> nodes;
  Rng rng(seed);
  const auto leaf = [&](bool in_bush) {
    const bool zero =
        in_bush && zero_share > 0.0 && rng.uniform() < zero_share;
    const double value = zero ? 0.0 : rng.uniform();
    nodes.push_back({-1, 0.0f, -1, -1, value, 1.0});
    return static_cast<std::int32_t>(nodes.size() - 1);
  };
  const auto grow = [&](const auto& self, int depth) -> std::int32_t {
    if (depth == spine + bush) return leaf(true);
    const auto index = static_cast<std::int32_t>(nodes.size());
    nodes.emplace_back();
    const std::int32_t left =
        depth < spine ? leaf(false) : self(self, depth + 1);
    const std::int32_t right = self(self, depth + 1);
    const TreeNode& l = nodes[static_cast<std::size_t>(left)];
    const TreeNode& r = nodes[static_cast<std::size_t>(right)];
    const double cover = l.cover + r.cover;
    nodes[static_cast<std::size_t>(index)] = {
        static_cast<std::int32_t>(static_cast<std::size_t>(depth) %
                                  n_features),
        static_cast<float>(rng.uniform()), left, right,
        (l.value * l.cover + r.value * r.cover) / cover, cover};
    return index;
  };
  grow(grow, 0);
  DecisionTree tree;
  tree.set_nodes(std::move(nodes), n_features);
  return tree;
}

std::string walk_note() {
  const obs::Snapshot snap = obs::snapshot();
  const auto it = snap.notes.find("shap/walk");
  return it == snap.notes.end() ? std::string() : it->second;
}

TEST(ShapFastPath, JobEngineBytesPricesInitAtBothEndsOfBudget) {
  using shap_detail::job_engine_bytes;
  using shap_detail::kJobEngineByteBudget;
  // A 500-tree forest of depth 30 with at most 236 leaves per tree stays
  // far under the budget; one 131k-leaf, depth-17 tree is far over it.
  EXPECT_LT(job_engine_bytes(32, 236), std::size_t{8} << 20);
  EXPECT_LT(job_engine_bytes(32, 236), kJobEngineByteBudget);
  EXPECT_GT(job_engine_bytes(19, 131072), std::size_t{1} << 30);
  EXPECT_GT(job_engine_bytes(19, 131072), kJobEngineByteBudget);

  // The price is exactly what init allocates.
  shap_detail::ShapJobEngine engine;
  engine.init(32, 236);
  using Engine = shap_detail::ShapJobEngine;
  const std::size_t allocated =
      engine.jobs.size() * sizeof(Engine::Job) +
      engine.pwpool.size() * sizeof(double) +
      (engine.f1.size() + engine.f0.size()) * sizeof(std::int32_t) +
      (engine.zf1.size() + engine.zf0.size() + engine.tot1.size() +
       engine.tot0.size()) *
          sizeof(double) +
      (engine.b1_data.size() + engine.b0_data.size()) * sizeof(Engine::Block) +
      (engine.b1_n.size() + engine.b0_n.size() + engine.used_ud.size()) *
          sizeof(std::int32_t);
  EXPECT_EQ(allocated, job_engine_bytes(32, 236));
}

/// The leaf-pool budget picks the walk from the model: an ordinary forest
/// keeps the AVX2 walk where the CPU has it, and a forest whose pools
/// would blow the budget takes the scalar walk. Both stay byte-identical
/// to the reference recursion.
TEST(ShapFastPath, LeafPoolBudgetPicksTheWalk) {
#if DRCSHAP_SIMD_ENABLED
  const bool avx2 = shap_detail::simd_walk_available();
#else
  const bool avx2 = false;
#endif
  {
    SCOPED_TRACE("under budget");
    const Dataset train = random_data(240, 10, 31);
    RandomForestOptions options;
    options.n_trees = 20;
    options.seed = 31;
    RandomForestClassifier forest(options);
    forest.fit(train);
    const Dataset eval = adversarial_rows(forest, 12, 131);
    const ShapMatrix phi = TreeShapExplainer(forest).shap_values_batch(eval);
    if (obs::kEnabled) {
      EXPECT_EQ(walk_note(), avx2 ? "avx2" : "scalar");
    }
    expect_bits_equal(reference_phi(forest, eval).values, phi.values);
  }
  {
    SCOPED_TRACE("over budget");
    const DecisionTree tree = spine_and_bush_tree(87, 11, 4, 32);
    ASSERT_EQ(tree.n_leaves(), 87u + 2048u);
    RandomForestClassifier forest;
    forest.set_trees({tree}, RandomForestOptions{});
    ASSERT_GT(shap_detail::job_engine_bytes(forest.flat().max_depth() + 2,
                                            static_cast<int>(tree.n_leaves())),
              shap_detail::kJobEngineByteBudget);
    const Dataset eval = random_data(8, 4, 33);
    const ShapMatrix phi = TreeShapExplainer(forest).shap_values_batch(eval);
    if (obs::kEnabled) {
      EXPECT_EQ(walk_note(), "scalar");
    }
    expect_bits_equal(reference_phi(forest, eval).values, phi.values);
    check_all_configs(forest, eval);
  }
  {
    // Same shape, but 95% of the bush leaves are 0.0: the pools are sized
    // by the leaves the walk can reach, which prices under the budget.
    SCOPED_TRACE("over budget by total leaves, under by live leaves");
    const DecisionTree tree = spine_and_bush_tree(87, 11, 4, 34, 0.95);
    ASSERT_EQ(tree.n_leaves(), 87u + 2048u);
    RandomForestClassifier forest;
    forest.set_trees({tree}, RandomForestOptions{});
    const int stride = forest.flat().max_depth() + 2;
    int live_leaves = 0;
    for (const TreeNode& node : tree.nodes()) {
      if (node.feature < 0 && node.value != 0.0) ++live_leaves;
    }
    ASSERT_GT(shap_detail::job_engine_bytes(stride,
                                            static_cast<int>(tree.n_leaves())),
              shap_detail::kJobEngineByteBudget);
    ASSERT_LT(shap_detail::job_engine_bytes(stride, live_leaves),
              shap_detail::kJobEngineByteBudget / 4);
    const Dataset eval = random_data(8, 4, 35);
    const ShapMatrix phi = TreeShapExplainer(forest).shap_values_batch(eval);
    if (obs::kEnabled) {
      EXPECT_EQ(walk_note(), avx2 ? "avx2" : "scalar");
    }
    expect_bits_equal(reference_phi(forest, eval).values, phi.values);
    check_all_configs(forest, eval);
  }
}

/// Element-wise phi identity where the reference may be non-finite: a NaN
/// reference element needs any NaN, every other element the same bits.
void expect_phi_equal_nan_aware(const std::vector<double>& reference,
                                const std::vector<double>& got) {
  ASSERT_EQ(reference.size(), got.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (std::isnan(reference[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << "element " << i;
    } else {
      EXPECT_EQ(std::memcmp(&reference[i], &got[i], sizeof(double)), 0)
          << "element " << i << ": " << reference[i] << " vs " << got[i];
    }
  }
}

/// Trees built around the dead-leaf rule of the fast walks (a leaf is dead
/// when its value is 0.0 and every cover from the root down to it is > 0):
///  * tree 0: every leaf 0.0 (one of them -0.0), so the root is dead;
///  * tree 1: a dead left subtree and a live right one, whose own children
///    are a dead leaf and a live split (one zero leaf, one nonzero) —
///    depending on the row, the dead child is the hot or the cold one,
///    and the live side repeats the root's split feature;
///  * tree 2: a 0.0 leaf with cover 0 — what a fit writes for a
///    pure-positive leaf at positive_weight = 0. Its zero_fraction is 0,
///    so rows that leave it cold get NaN phi in the reference; it must not
///    be skipped;
///  * tree 3: a single 0.0 leaf.
/// Live leaves: tree 1's 0.6 leaf, tree 2's cover-0 leaf and 0.5 leaf.
RandomForestClassifier zero_subtree_forest() {
  const auto leaf = [](double value, double cover) {
    return TreeNode{-1, 0.0f, -1, -1, value, cover};
  };
  const auto tree = [](std::vector<TreeNode> nodes) {
    DecisionTree t;
    t.set_nodes(std::move(nodes), 3);
    return t;
  };
  const DecisionTree all_zero = tree({{0, 0.5f, 1, 2, 0.0, 10.0},
                                      {1, 0.5f, 3, 4, 0.0, 6.0},
                                      leaf(0.0, 4.0),
                                      leaf(0.0, 3.0),
                                      leaf(-0.0, 3.0)});
  const DecisionTree half_dead = tree({{0, 0.5f, 1, 2, 0.1, 20.0},
                                       {1, 0.5f, 3, 4, 0.0, 8.0},
                                       {0, 0.75f, 5, 6, 0.15, 12.0},
                                       leaf(0.0, 5.0),
                                       leaf(0.0, 3.0),
                                       {2, 0.5f, 7, 8, 0.26, 7.0},
                                       leaf(0.0, 5.0),
                                       leaf(0.0, 4.0),
                                       leaf(0.6, 3.0)});
  const DecisionTree cover_zero = tree({{1, 0.5f, 1, 2, 0.3, 10.0},
                                        leaf(0.0, 0.0),
                                        {0, 0.25f, 3, 4, 0.3, 10.0},
                                        leaf(0.0, 4.0),
                                        leaf(0.5, 6.0)});
  const DecisionTree single = tree({leaf(0.0, 5.0)});
  RandomForestClassifier forest;
  forest.set_trees({all_zero, half_dead, cover_zero, single},
                   RandomForestOptions{});
  return forest;
}

constexpr std::uint64_t kZeroSubtreeForestLiveLeaves = 3;

Dataset zero_subtree_rows() {
  Dataset eval(3);
  for (const float x0 : {0.25f, 0.5f, 0.6f, 0.8f, std::nanf("")}) {
    for (const float x1 : {0.25f, 0.75f, std::nanf("")}) {
      for (const float x2 : {0.25f, 0.75f}) {
        eval.append_row(std::vector<float>{x0, x1, x2}, 0, 0);
      }
    }
  }
  return eval;
}

/// Skipping dead subtrees changes no bit of phi: every batch row equals
/// the unpruned reference recursion for that row, on the default walk and
/// on the scalar walk, at any thread count, with or without a cache.
TEST(ShapFastPath, ZeroSubtreesSkipByteIdentically) {
  const RandomForestClassifier forest = zero_subtree_forest();
  const Dataset eval = zero_subtree_rows();
  const ShapMatrix reference = reference_phi(forest, eval);
  // The cover-0 leaf does reach the reference as NaN on some rows, so the
  // rule's cover condition is exercised, and finite rows exist too.
  std::size_t nan_elements = 0;
  for (const double v : reference.values) nan_elements += std::isnan(v);
  ASSERT_GT(nan_elements, 0u);
  ASSERT_LT(nan_elements, reference.values.size());

  const auto check = [&](const char* walk) {
    SCOPED_TRACE(walk);
    TreeShapExplainer explainer(forest);
    const auto cache = std::make_shared<ExplanationCache>();
    for (const bool with_cache : {false, true}) {
      explainer.set_cache(with_cache ? cache : nullptr);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     (with_cache ? " cache=on" : " cache=off"));
        expect_phi_equal_nan_aware(
            reference.values,
            explainer.shap_values_batch(eval, threads).values);
      }
    }
  };
  check("default walk");
  {
    ScopedEnv simd("DRCSHAP_SIMD", "0");
    check("scalar walk");
  }
}

std::uint64_t counter(const char* name) {
  const obs::Snapshot snap = obs::snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? std::uint64_t{0} : it->second;
}

/// shap/leaves_attributed counts the (row, leaf) attributions the walks
/// make. They reach exactly the live leaves of every tree, whatever the
/// row: below rows x leaves when some leaves are 0.0, equal when none is.
TEST(ShapFastPath, LeavesAttributedCountsLiveLeavesOnly) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with DRCSHAP_OBS=OFF";
  const auto attributed_per_row = [](const RandomForestClassifier& forest,
                                     const Dataset& eval) {
    const std::uint64_t leaves = counter("shap/leaves_attributed");
    const std::uint64_t rows = counter("shap/batch_unique_rows");
    (void)TreeShapExplainer(forest).shap_values_batch(eval, 2);
    const std::uint64_t unique = counter("shap/batch_unique_rows") - rows;
    EXPECT_GT(unique, 0u);
    return std::pair{counter("shap/leaves_attributed") - leaves, unique};
  };
  {
    SCOPED_TRACE("forest with zero leaves");
    const RandomForestClassifier forest = zero_subtree_forest();
    std::uint64_t total_leaves = 0;
    for (const DecisionTree& tree : forest.trees()) {
      total_leaves += tree.n_leaves();
    }
    const auto [attributed, unique] =
        attributed_per_row(forest, zero_subtree_rows());
    EXPECT_LT(attributed, unique * total_leaves);
    EXPECT_EQ(attributed, unique * kZeroSubtreeForestLiveLeaves);
  }
  {
    SCOPED_TRACE("forest without zero leaves");
    RandomForestClassifier forest;
    forest.set_trees({spine_and_bush_tree(3, 3, 4, 41),
                      spine_and_bush_tree(2, 4, 4, 42)},
                     RandomForestOptions{});
    const auto [attributed, unique] =
        attributed_per_row(forest, random_data(16, 4, 43));
    EXPECT_EQ(attributed, unique * (3u + 8u + 2u + 16u));
  }
}

/// The full 14-design suite at test scale, one fitted forest: reference
/// recursion vs the fast path across thread counts and both cache
/// configurations, byte-identical on every design's real feature
/// distribution.
TEST(ShapFastPathSuite, AllSuiteDesignsByteIdentical) {
  PipelineOptions tiny;
  tiny.generator.scale = 16.0;

  Dataset train(FeatureSchema::kNumFeatures, FeatureSchema::names());
  std::vector<Dataset> designs;
  for (const BenchmarkSpec& spec : ispd2015_suite()) {
    designs.push_back(run_pipeline(spec, tiny).samples);
  }
  train.append(designs[0]);
  train.append(designs[1]);

  RandomForestOptions options;
  options.n_trees = 50;
  RandomForestClassifier forest(options);
  forest.fit(train);

  const auto cache = std::make_shared<ExplanationCache>();
  for (std::size_t i = 0; i < designs.size(); ++i) {
    SCOPED_TRACE("design " + ispd2015_suite()[i].name);
    if (designs[i].n_rows() == 0) continue;
    // Cap per-design rows: identity per row is what matters, not volume.
    std::vector<std::size_t> rows(
        std::min<std::size_t>(designs[i].n_rows(), 24));
    for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
    const Dataset d = designs[i].subset(rows);

    const ShapMatrix reference = reference_phi(forest, d);
    TreeShapExplainer explainer(forest);
    expect_bits_equal(reference.values,
                      explainer.shap_values_batch(d, 3).values);
    explainer.set_cache(cache);
    for (int pass = 0; pass < 2; ++pass) {  // cold inserts, then hits
      expect_bits_equal(reference.values,
                        explainer.shap_values_batch(d, 1).values);
    }
  }
  EXPECT_GT(cache->stats().hits, 0u);
}

}  // namespace
}  // namespace drcshap
