#pragma once
// Exact SHAP tree explainer (Lundberg, Erion & Lee 2018, Algorithm 2).
//
// Computes, in polynomial time, the exact Shapley values of Eq. (2) of the
// paper for tree ensembles, where the conditional expectations
// E[f(x) | x_S] are defined by tree traversal: splits on features in S
// follow x, splits on features outside S average both children weighted by
// training cover. Because SHAP values are linear in the model, the values
// for a Random Forest are the average of its trees' values.
//
// Complexity per sample and tree: O(L * D^2) with L leaves and D depth —
// this is what makes per-hotspot explanations cheap enough to run inside a
// physical-design loop (Section III-C). In the batch walks L counts only
// *live* leaves: a leaf whose value is exactly 0.0 under positive covers
// adds w * (one - zero) * 0.0, a signed zero, to phi, and phi (which starts
// at +0.0 and so is never -0.0) keeps every bit, so subtrees holding only
// such leaves are skipped without changing the result. An unpruned forest
// on imbalanced hotspot labels has many: every pure-negative leaf is 0.0.
//
// Explaining every predicted hotspot of a design means thousands of samples
// against a 500-tree ensemble, so the explainer also has a batched engine:
// shap_values_batch fans (sample, tree-block) work units across a thread
// pool with per-worker path scratch, and merges per-block partial phi
// vectors in fixed tree order — the accumulation structure depends only on
// the ensemble, so results are bit-identical for any thread count.
//
// Unlike inference, explanation has one tree layout: every walk below runs
// over the exact FlatForest arrays and the raw float sample. The forest's
// compiled layout (core/compiled_forest.hpp) serves only as a key: its
// monotone u16 quantization preserves every split decision, so rows with
// equal codes share one phi row (see the dedupe below).
//
// The batch engine always runs a *fast path* that amortizes the
// sample-independent half of Algorithm 2 across the whole batch. The key
// observation: a sample enters the recursion only through the hot/cold
// branch decision at each split. Everything else — the unique-path
// composition after duplicate-feature folding, the unique depth at every
// node, and the zero_fractions (products of cover ratios) — is a function
// of the tree alone. A one-time structural DFS over the forest
// precomputes, per node, the entry zero_fraction (with the exact op order
// of the original recursion, so the doubles are bit-equal), the folded
// unique depth, and the unique-path index of a duplicate split feature; the
// per-row walk then skips the two cover divisions and the O(depth)
// duplicate search at every node, specializes EXTEND on the fact that
// one_fractions are exactly 0.0 or 1.0, halves the path copies by extending
// cold children in the parent's scratch slot, skips dead subtrees (the
// DFS marks them: see ShapMeta::live in tree_shap.cpp), and interleaves the
// independent per-feature UNWIND chains at each leaf so the division unit
// pipelines instead of stalling. Every
// floating-point op that contributes to phi keeps its original operands and
// order, so fast-path phi is byte-identical to the reference recursion
// (kept verbatim behind the single-sample shap_values, the oracle the
// tests compare the batch against). There is one fast traversal; what
// happens at a leaf is the only difference between its two forms. The
// scalar form computes each leaf's attributions in place; the AVX2+FMA
// form — one function with a target("avx2,fma") attribute that the
// traversal is inlined into — stages them for vector kernels flushed once
// per tree. It runs when the CPU (and $DRCSHAP_SIMD) allows; both are
// byte-identical.
//
// On top of the fast path, shap_values_batch dedupes rows before compute:
// rows with byte-equal keys (quantized code vectors when the forest has a
// compiled layout, raw float rows when it could not be quantized) provably
// share one phi row,
// so each unique row is explained once and scattered to its duplicates.
// With a shared ExplanationCache attached (core/explanation_cache.hpp),
// unique rows are additionally served from — and inserted into — the cache,
// carrying the dedupe across batches and serve requests. Without one,
// every unique row is computed.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/random_forest.hpp"

namespace drcshap {

class ExplanationCache;

namespace detail {
struct ShapMetaCell;  // lazily built structural metadata of the fast walk
}  // namespace detail

/// Row-major matrix of SHAP values: one row of n_features doubles per
/// explained sample.
struct ShapMatrix {
  std::vector<double> values;
  std::size_t n_rows = 0;
  std::size_t n_features = 0;

  std::span<const double> row(std::size_t i) const {
    return {values.data() + i * n_features, n_features};
  }
};

class TreeShapExplainer {
 public:
  /// Snapshots the forest's flattened SoA view (and its compiled layout,
  /// when one was built, as the dedupe/cache key quantizer); the explainer
  /// stays valid even if the forest is refit afterwards.
  explicit TreeShapExplainer(const RandomForestClassifier& forest);

  /// Attaches a shared explanation cache consulted (and filled) by
  /// shap_values_batch for each unique row. Copies of the explainer share
  /// the cache, so every copy of a served model's explainer hits one
  /// store. nullptr detaches (the default: no cache).
  void set_cache(std::shared_ptr<ExplanationCache> cache) {
    cache_ = std::move(cache);
  }
  const std::shared_ptr<ExplanationCache>& cache() const { return cache_; }

  /// Structural FNV-1a digest of the snapshotted ensemble (features, values,
  /// covers, roots). Used as the cache key salt so a cache accidentally
  /// shared across models can never serve a stale row.
  std::uint64_t model_digest() const { return model_digest_; }

  /// E[f(x)] over the training distribution (cover-weighted).
  double base_value() const { return base_value_; }

  /// Per-feature SHAP values for one sample; size = n_features.
  /// Additivity holds: base_value() + sum(result) == forest.predict_proba(x)
  /// up to floating-point error.
  std::vector<double> shap_values(std::span<const float> features) const;

  /// SHAP values for every row of `data`, computed on the shared thread
  /// pool (n_threads caps the workers used; 0 means the whole pool).
  /// Matches shap_values row
  /// by row up to reassociation error (< 1e-12 here), and is bit-identical
  /// across thread counts.
  ShapMatrix shap_values_batch(const Dataset& data,
                               std::size_t n_threads = 0) const;

  /// Same, over a row-major matrix of n_rows x n_features floats.
  ShapMatrix shap_values_batch(std::span<const float> features,
                               std::size_t n_rows,
                               std::size_t n_threads = 0) const;

  /// SHAP values for a single tree (used by tests and RUSBoost reuse).
  static std::vector<double> tree_shap_values(const DecisionTree& tree,
                                              std::span<const float> features);

 private:
  /// One-time structural digest over the FlatForest snapshot (ctor only).
  std::uint64_t compute_model_digest() const;

  std::shared_ptr<const FlatForest> flat_;
  std::shared_ptr<const CompiledForest> compiled_;
  /// Shared lazily-initialized structural metadata of the fast batch path.
  /// Copies of the explainer share the cell, so the one-time DFS cost is
  /// paid once per loaded model, not once per copy.
  std::shared_ptr<detail::ShapMetaCell> meta_;
  std::shared_ptr<ExplanationCache> cache_;
  double base_value_;
  std::uint64_t model_digest_ = 0;
};

}  // namespace drcshap
