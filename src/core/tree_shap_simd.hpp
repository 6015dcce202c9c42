#pragma once
// Leaf-pool sizing of the TreeSHAP batch engine's AVX2 walk
// (tree_shap.cpp). Not part of the public explainer API: the header exists
// so tests can price the per-worker pools a model makes the engine
// allocate, and see which walk it selects. The walk itself — its path,
// traversal and metadata types and EXTEND/UNWIND — is private to
// tree_shap.cpp, where the scalar and the AVX2+FMA walk share one
// traversal.

#include <cstddef>
#include <cstdint>
#include <vector>

#ifndef DRCSHAP_SIMD_ENABLED
#define DRCSHAP_SIMD_ENABLED 0
#endif

namespace drcshap::shap_detail {

/// Per-tree staging pools of the vector walk. The walk defers every leaf's
/// UNWOUND_PATH_SUM chains into ud-bucketed 4-lane blocks (lanes of one
/// block come from one leaf, so they share the pweight array and load it
/// broadcast) and flushes once per tree: interleaved blocks hide the
/// recurrence latency, and phi is applied afterwards in exactly the DFS
/// emission order the reference uses. Chain regions are padded to lane
/// multiples so kernels can store 4 wide; padding lanes are garbage but
/// lane-local (no cross-lane op reads them) and never applied to phi.
struct ShapJobEngine {
  struct Job {
    std::int32_t unique_depth;
    std::int32_t e1_off, n1;  ///< one_fraction==1 chain range (padded pool)
    std::int32_t e0_off, n0;  ///< one_fraction==0 chain range (padded pool)
    double leaf_value;
  };
  /// One 4-lane block of same-kind chains from one leaf.
  struct Block {
    std::int32_t pw_off;  ///< lane-shared pweight array in `pwpool`
    std::int32_t out;     ///< 4-aligned index into the tot pool
    double zf[4];         ///< per-lane zero_fractions (padding lanes: 1.0)
  };

  std::vector<Job> jobs;
  int n_jobs = 0;
  std::vector<double> pwpool;
  int n_pw = 0;
  // Per-chain feature/zero_fraction/total pools, 4-aligned regions per job.
  std::vector<std::int32_t> f1, f0;
  std::vector<double> zf1, zf0, tot1, tot0;
  int n1 = 0, n0 = 0;
  // Fixed-capacity per-unique-depth block buckets, touched-list reset.
  std::vector<Block> b1_data, b0_data;
  std::vector<std::int32_t> b1_n, b0_n;
  std::vector<std::int32_t> used_ud;
  int n_used = 0;
  int bucket_cap = 0;
  int init_stride = -1, init_leaves = -1;

  /// Element counts of every pool for forests of path stride `stride`
  /// whose widest tree has `max_leaves` live leaves (ShapMeta::max_leaves):
  /// the one sizing rule that init() allocates and job_engine_bytes()
  /// prices.
  struct Sizes {
    std::size_t jobs;        ///< Job records
    std::size_t pweights;    ///< pwpool doubles
    std::size_t chains;      ///< entries of each f/zf/tot pool
    std::size_t depths;      ///< unique-depth slots (max_ud + 2)
    std::size_t bucket_cap;  ///< blocks per unique-depth bucket
  };
  static Sizes sizes(int stride, int max_leaves) {
    const auto leaves = static_cast<std::size_t>(max_leaves);
    const auto max_ud = static_cast<std::size_t>(stride - 1);
    // Worst case per leaf: unique_depth chains + one padding block each
    // side; +8 keeps the last 4-wide store of either pool in bounds.
    return {leaves + 1, leaves * (max_ud + 2), leaves * (max_ud + 9),
            max_ud + 2, leaves * ((max_ud + 4) / 4 + 1)};
  }

  void init(int stride, int max_leaves) {
    if (stride <= init_stride && max_leaves <= init_leaves) return;
    init_stride = stride;
    init_leaves = max_leaves;
    const Sizes s = sizes(stride, max_leaves);
    jobs.resize(s.jobs);
    pwpool.resize(s.pweights);
    f1.resize(s.chains);
    zf1.resize(s.chains);
    tot1.resize(s.chains);
    f0.resize(s.chains);
    zf0.resize(s.chains);
    tot0.resize(s.chains);
    bucket_cap = static_cast<int>(s.bucket_cap);
    b1_data.resize(s.depths * s.bucket_cap);
    b0_data.resize(s.depths * s.bucket_cap);
    b1_n.assign(s.depths, 0);
    b0_n.assign(s.depths, 0);
    used_ud.resize(s.depths);
    n_jobs = 0;
    n_pw = 0;
    n1 = 0;
    n0 = 0;
    n_used = 0;
  }
  void reset() {
    n_jobs = 0;
    n_pw = 0;
    n1 = 0;
    n0 = 0;
    for (int i = 0; i < n_used; ++i) {
      b1_n[static_cast<std::size_t>(used_ud[i])] = 0;
      b0_n[static_cast<std::size_t>(used_ud[i])] = 0;
    }
    n_used = 0;
  }
};

/// Bytes one worker's ShapJobEngine::init(stride, max_leaves) allocates:
/// O(max_leaves * stride^2), dominated by the per-unique-depth block
/// buckets. A tree with 131k live leaves and depth 17 needs ~1.4 GB.
inline std::size_t job_engine_bytes(int stride, int max_leaves) {
  using E = ShapJobEngine;
  const E::Sizes s = E::sizes(stride, max_leaves);
  return s.jobs * sizeof(E::Job) + s.pweights * sizeof(double) +
         s.chains * 2 * (sizeof(std::int32_t) + 2 * sizeof(double)) +
         s.depths * s.bucket_cap * 2 * sizeof(E::Block) +
         s.depths * 3 * sizeof(std::int32_t);
}

/// Per-worker ceiling on job_engine_bytes: forests above it take the scalar
/// fast walk, which is byte-identical and needs only O(stride^2) scratch.
inline constexpr std::size_t kJobEngineByteBudget = std::size_t{256} << 20;

#if DRCSHAP_SIMD_ENABLED

/// True when this CPU can run the vector walk (AVX2 + FMA) and
/// $DRCSHAP_SIMD does not disable SIMD. Defined in tree_shap.cpp.
bool simd_walk_available();

/// Depth ceiling of the vector walk: the correctly-rounded FMA division
/// replacement draws reciprocals from a fixed table of integer divisors up
/// to this depth. Deeper forests fall back to the scalar fast walk.
inline constexpr int kSimdWalkMaxDepth = 190;

#endif  // DRCSHAP_SIMD_ENABLED

}  // namespace drcshap::shap_detail
