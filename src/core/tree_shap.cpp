#include "core/tree_shap.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "core/explanation_cache.hpp"
#include "core/tree_shap_simd.hpp"
#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

#if DRCSHAP_SIMD_ENABLED
#include <immintrin.h>
#endif

namespace drcshap {

namespace {

using shap_detail::ShapJobEngine;

// One element of the "unique path" of Algorithm 2: a feature encountered on
// the way down, the fraction of paths that flow through when the feature is
// unknown (zero_fraction = cover ratio) or known (one_fraction = 0/1), and
// the permutation weight accumulator pweight.
struct PathElement {
  int feature_index = -1;
  double zero_fraction = 0.0;
  double one_fraction = 0.0;
  double pweight = 0.0;
};

/// FlatForest arrays + the raw sample: the one traversal every walk (the
/// reference recursion and the fast walk) runs.
struct ExactTraversal {
  const std::int32_t* feature;
  const float* threshold;
  const std::int32_t* left;
  const std::int32_t* right;
  const double* value;
  const double* cover;
  const float* x;

  bool is_leaf(std::size_t node) const { return feature[node] < 0; }
  std::int32_t split_feature(std::size_t node) const { return feature[node]; }
  bool goes_left(std::size_t node) const {
    return x[static_cast<std::size_t>(feature[node])] <= threshold[node];
  }
  std::int32_t left_child(std::size_t node) const { return left[node]; }
  std::int32_t right_child(std::size_t node) const { return right[node]; }
};

/// Structural per-node metadata of the FlatForest, node-indexed like its
/// arrays.
struct ShapMeta {
  /// zero_fraction of the edge into each node (1.0 at roots).
  std::vector<double> entry_zero_fraction;
  /// For internal nodes: index of this node's split feature in the unique
  /// path *after* extending with the incoming edge, or 0 when the feature
  /// is fresh (path index 0 is the dummy base element, never a match).
  std::vector<std::int32_t> dup_index;
  /// 1 when the node's subtree holds a leaf whose attributions can change
  /// phi. A leaf is dead (0) when its value is exactly 0.0 and every cover
  /// from the root down to it, its own included, is finite and > 0: every
  /// zero_fraction on its path is then a finite, nonzero product of cover
  /// ratios (for covers within ~300 decades of each other, as weighted
  /// sample counts are), so each attribution w * (one - zero) * 0.0 is a
  /// signed zero, and phi — which starts at +0.0 and so can never reach
  /// -0.0 — keeps every bit when it is added. An internal node is live iff
  /// either child is. The fast walk skips dead subtrees; the reference
  /// recursion does not.
  std::vector<std::uint8_t> live;
  /// Live-leaf count of the widest tree — the most leaves one tree's walk
  /// can reach, which sizes the vector walk's per-tree leaf-job pools.
  int max_leaves = 0;
};

/// Undo an extension for a repeated feature (UNWIND). Shared verbatim by
/// the reference recursion and the fast walk.
inline void unwind_path(PathElement* path, int unique_depth, int path_index) {
  const double one_fraction = path[path_index].one_fraction;
  const double zero_fraction = path[path_index].zero_fraction;
  double next_one_portion = path[unique_depth].pweight;
  for (int i = unique_depth - 1; i >= 0; --i) {
    if (one_fraction != 0.0) {
      const double tmp = path[i].pweight;
      path[i].pweight = next_one_portion * (unique_depth + 1) /
                        static_cast<double>((i + 1) * one_fraction);
      next_one_portion =
          tmp - path[i].pweight * zero_fraction * (unique_depth - i) /
                    static_cast<double>(unique_depth + 1);
    } else {
      path[i].pweight = path[i].pweight * (unique_depth + 1) /
                        static_cast<double>(zero_fraction * (unique_depth - i));
    }
  }
  for (int i = path_index; i < unique_depth; ++i) {
    path[i].feature_index = path[i + 1].feature_index;
    path[i].zero_fraction = path[i + 1].zero_fraction;
    path[i].one_fraction = path[i + 1].one_fraction;
  }
}

/// Grow the path by one split (EXTEND).
void extend_path(PathElement* path, int unique_depth, double zero_fraction,
                 double one_fraction, int feature_index) {
  path[unique_depth] = {feature_index, zero_fraction, one_fraction,
                        unique_depth == 0 ? 1.0 : 0.0};
  for (int i = unique_depth - 1; i >= 0; --i) {
    path[i + 1].pweight += one_fraction * path[i].pweight * (i + 1) /
                           static_cast<double>(unique_depth + 1);
    path[i].pweight = zero_fraction * path[i].pweight * (unique_depth - i) /
                      static_cast<double>(unique_depth + 1);
  }
}

/// EXTEND specialized on what the recursion guarantees about one_fraction:
/// it is exactly 0.0 or 1.0 (the root gets 1.0, hot edges inherit a stored
/// 0/1, cold edges get 0.0). With 1.0 the `one_fraction *` factor is the
/// identity; with 0.0 the whole first line adds a signed zero, which never
/// changes the target bits (pweights that are exactly zero are always +0.0:
/// every product chain has non-negative structural factors and exact
/// cancellation yields +0.0), so it is skipped. The surviving ops keep the
/// reference operand order, so the resulting pweights are bit-identical.
inline void extend_path_01(PathElement* path, int unique_depth,
                           double zero_fraction, double one_fraction,
                           int feature_index) {
  path[unique_depth] = {feature_index, zero_fraction, one_fraction,
                        unique_depth == 0 ? 1.0 : 0.0};
  if (one_fraction != 0.0) {
    for (int i = unique_depth - 1; i >= 0; --i) {
      path[i + 1].pweight += path[i].pweight * (i + 1) /
                             static_cast<double>(unique_depth + 1);
      path[i].pweight = zero_fraction * path[i].pweight * (unique_depth - i) /
                        static_cast<double>(unique_depth + 1);
    }
  } else {
    for (int i = unique_depth - 1; i >= 0; --i) {
      path[i].pweight = zero_fraction * path[i].pweight * (unique_depth - i) /
                        static_cast<double>(unique_depth + 1);
    }
  }
}

/// Total permutation weight if path_index were unwound (UNWOUND_PATH_SUM).
double unwound_path_sum(const PathElement* path, int unique_depth,
                        int path_index) {
  const double one_fraction = path[path_index].one_fraction;
  const double zero_fraction = path[path_index].zero_fraction;
  double next_one_portion = path[unique_depth].pweight;
  double total = 0.0;
  for (int i = unique_depth - 1; i >= 0; --i) {
    if (one_fraction != 0.0) {
      const double tmp = next_one_portion * (unique_depth + 1) /
                         static_cast<double>((i + 1) * one_fraction);
      total += tmp;
      next_one_portion = path[i].pweight -
                         tmp * zero_fraction * (unique_depth - i) /
                             static_cast<double>(unique_depth + 1);
    } else {
      total += path[i].pweight * (unique_depth + 1) /
               static_cast<double>(zero_fraction * (unique_depth - i));
    }
  }
  return total;
}

// Per-traversal state: the phi accumulator and the path scratch. Recursion
// level L uses the scratch slot starting at L * stride; a repeated feature
// shrinks unique_depth without changing the level, so slots are keyed by
// level.
struct ShapContext {
  ExactTraversal tree;
  double* phi;
  PathElement* path_storage;
  int stride;
};

void shap_recurse(const ShapContext& ctx, std::int32_t node_index,
                  int level, int unique_depth, const PathElement* parent_path,
                  double parent_zero_fraction, double parent_one_fraction,
                  int parent_feature_index) {
  // Copy the parent's path into this level's slot, then extend it.
  PathElement* path = ctx.path_storage +
                      static_cast<std::size_t>(level) *
                          static_cast<std::size_t>(ctx.stride);
  for (int i = 0; i < unique_depth; ++i) path[i] = parent_path[i];
  extend_path(path, unique_depth, parent_zero_fraction, parent_one_fraction,
              parent_feature_index);

  const auto node = static_cast<std::size_t>(node_index);
  if (ctx.tree.is_leaf(node)) {
    // Leaf: attribute to every feature on the unique path.
    const double leaf_value = ctx.tree.value[node];
    for (int i = 1; i <= unique_depth; ++i) {
      const double w = unwound_path_sum(path, unique_depth, i);
      ctx.phi[static_cast<std::size_t>(path[i].feature_index)] +=
          w * (path[i].one_fraction - path[i].zero_fraction) * leaf_value;
    }
    return;
  }

  const std::int32_t feature = ctx.tree.split_feature(node);
  const bool goes_left = ctx.tree.goes_left(node);
  const std::int32_t left = ctx.tree.left_child(node);
  const std::int32_t right = ctx.tree.right_child(node);
  const std::int32_t hot = goes_left ? left : right;
  const std::int32_t cold = goes_left ? right : left;
  const double hot_cover = ctx.tree.cover[static_cast<std::size_t>(hot)];
  const double cold_cover = ctx.tree.cover[static_cast<std::size_t>(cold)];

  double incoming_zero_fraction = 1.0;
  double incoming_one_fraction = 1.0;
  // If this feature was already on the path, undo its previous extension and
  // fold its fractions into this one.
  int path_index = 1;
  for (; path_index <= unique_depth; ++path_index) {
    if (path[path_index].feature_index == feature) break;
  }
  int depth_after = unique_depth;
  if (path_index <= unique_depth) {
    incoming_zero_fraction = path[path_index].zero_fraction;
    incoming_one_fraction = path[path_index].one_fraction;
    unwind_path(path, unique_depth, path_index);
    depth_after = unique_depth - 1;
  }

  const double cover = ctx.tree.cover[node];
  shap_recurse(ctx, hot, level + 1, depth_after + 1, path,
               hot_cover / cover * incoming_zero_fraction,
               incoming_one_fraction, feature);
  shap_recurse(ctx, cold, level + 1, depth_after + 1, path,
               cold_cover / cover * incoming_zero_fraction, 0.0, feature);
}

/// Scratch sizing for one forest: a level-L path holds <= L+1 elements.
std::size_t path_scratch_len(const FlatForest& forest) {
  return static_cast<std::size_t>(forest.max_depth() + 1) *
         static_cast<std::size_t>(forest.max_depth() + 2);
}

/// Traversal view of `forest` for sample `x` (nullptr for the structural
/// pass, which never compares).
ExactTraversal exact_traversal(const FlatForest& forest, const float* x) {
  ExactTraversal tree;
  tree.feature = forest.feature();
  tree.threshold = forest.threshold();
  tree.left = forest.left();
  tree.right = forest.right();
  tree.value = forest.value();
  tree.cover = forest.cover();
  tree.x = x;
  return tree;
}

/// Accumulate one tree's SHAP values for `x` into `phi` (not normalized).
/// `path_storage` must hold (forest.max_depth()+1) * stride elements with
/// stride >= forest.max_depth() + 2.
void flat_tree_shap(const FlatForest& forest, std::size_t tree, const float* x,
                    double* phi, PathElement* path_storage, int stride) {
  const ShapContext ctx{exact_traversal(forest, x), phi, path_storage, stride};
  shap_recurse(ctx, forest.root(tree), /*level=*/0, /*unique_depth=*/0,
               /*parent_path=*/nullptr, 1.0, 1.0, -1);
}

// ---------------------------------------------------------------------------
// Fast batch path.
//
// The per-row recursion above recomputes, at every node, quantities that do
// not depend on the sample at all: the sample enters Algorithm 2 only
// through goes_left (which child is hot). The zero_fraction of every edge
// is a product of cover ratios folded through duplicate features — purely
// structural — and the unique-path composition (which features sit at which
// path indices, and hence where a duplicate split feature is found) is
// structural too. A one-time DFS over the forest records both per node,
// with the *identical* floating-point expression order the recursion uses
// (`child_cover / cover * incoming_zero_fraction`), so the precomputed
// doubles are bit-equal to the ones the reference path derives per row.

/// Structural half of shap_recurse: walks one tree maintaining only the
/// (feature, zero_fraction) path with duplicate folding, recording per-node
/// metadata. Mirrors the reference op order exactly. `covers_positive`
/// says every cover above this node is finite and > 0; returns whether the
/// node is live (see ShapMeta::live), counting live leaves in `live_leaves`.
bool build_meta_recurse(const ExactTraversal& tree, ShapMeta& meta,
                        std::int32_t node_index, int level, int unique_depth,
                        const PathElement* parent_path,
                        double parent_zero_fraction, int parent_feature_index,
                        bool covers_positive, PathElement* storage, int stride,
                        int& live_leaves) {
  PathElement* path = storage + static_cast<std::size_t>(level) *
                                    static_cast<std::size_t>(stride);
  for (int i = 0; i < unique_depth; ++i) path[i] = parent_path[i];
  path[unique_depth] = {parent_feature_index, parent_zero_fraction, 0.0, 0.0};

  const auto node = static_cast<std::size_t>(node_index);
  meta.entry_zero_fraction[node] = parent_zero_fraction;
  const double cover = tree.cover[node];
  covers_positive = covers_positive && std::isfinite(cover) && cover > 0.0;
  if (tree.is_leaf(node)) {
    const bool live = !(covers_positive && tree.value[node] == 0.0);
    meta.live[node] = live;
    if (live) ++live_leaves;
    return live;
  }

  const std::int32_t feature = tree.split_feature(node);
  int path_index = 1;
  for (; path_index <= unique_depth; ++path_index) {
    if (path[path_index].feature_index == feature) break;
  }
  double incoming_zero_fraction = 1.0;
  int depth_after = unique_depth;
  if (path_index <= unique_depth) {
    meta.dup_index[node] = path_index;
    incoming_zero_fraction = path[path_index].zero_fraction;
    for (int i = path_index; i < unique_depth; ++i) {
      path[i].feature_index = path[i + 1].feature_index;
      path[i].zero_fraction = path[i + 1].zero_fraction;
    }
    depth_after = unique_depth - 1;
  } else {
    meta.dup_index[node] = 0;
  }

  const std::int32_t left = tree.left_child(node);
  const std::int32_t right = tree.right_child(node);
  // Same expression shape as the recursion's hot/cold arguments; which
  // child is hot only swaps which of the two symmetric expressions it
  // receives, so computing both per child here is bit-equivalent.
  const bool live_left = build_meta_recurse(
      tree, meta, left, level + 1, depth_after + 1, path,
      tree.cover[static_cast<std::size_t>(left)] / cover *
          incoming_zero_fraction,
      feature, covers_positive, storage, stride, live_leaves);
  const bool live_right = build_meta_recurse(
      tree, meta, right, level + 1, depth_after + 1, path,
      tree.cover[static_cast<std::size_t>(right)] / cover *
          incoming_zero_fraction,
      feature, covers_positive, storage, stride, live_leaves);
  const bool live = live_left || live_right;
  meta.live[node] = live;
  return live;
}

ShapMeta build_meta(const FlatForest& flat) {
  const ExactTraversal tree = exact_traversal(flat, nullptr);
  ShapMeta meta;
  meta.entry_zero_fraction.assign(flat.n_nodes(), 1.0);
  meta.dup_index.assign(flat.n_nodes(), 0);
  meta.live.assign(flat.n_nodes(), 1);
  std::vector<PathElement> storage(path_scratch_len(flat));
  for (std::size_t t = 0; t < flat.n_trees(); ++t) {
    int live_leaves = 0;
    build_meta_recurse(tree, meta, flat.root(t), /*level=*/0,
                       /*unique_depth=*/0, /*parent_path=*/nullptr, 1.0, -1,
                       /*covers_positive=*/true, storage.data(),
                       flat.max_depth() + 2, live_leaves);
    meta.max_leaves = std::max(meta.max_leaves, live_leaves);
  }
  return meta;
}

/// Leaf attribution with the per-feature UNWOUND_PATH_SUM chains
/// interleaved four wide. Each chain is a serial recurrence through two
/// divisions per step (~40 cycles of latency the divider spends mostly
/// idle); the chains for different path elements only share the read-only
/// path, so running four in lockstep pipelines the divider without touching
/// any chain's operand order. phi updates stay in ascending element order
/// (they would commute anyway: unique-path features are distinct).
inline void leaf_accumulate(const ExactTraversal& tree, std::size_t node,
                            const PathElement* path, int unique_depth,
                            double* phi) {
  const double leaf_value = tree.value[node];
  const double top_pweight = path[unique_depth].pweight;
  int i = 1;
  for (; i + 3 <= unique_depth; i += 4) {
    double total[4] = {0.0, 0.0, 0.0, 0.0};
    double next_one[4];
    double zf[4];
    double of[4];
    for (int k = 0; k < 4; ++k) {
      next_one[k] = top_pweight;
      zf[k] = path[i + k].zero_fraction;
      of[k] = path[i + k].one_fraction;
    }
    for (int j = unique_depth - 1; j >= 0; --j) {
      const double pw = path[j].pweight;
      for (int k = 0; k < 4; ++k) {
        if (of[k] != 0.0) {
          const double tmp = next_one[k] * (unique_depth + 1) /
                             static_cast<double>((j + 1) * of[k]);
          total[k] += tmp;
          next_one[k] = pw - tmp * zf[k] * (unique_depth - j) /
                                 static_cast<double>(unique_depth + 1);
        } else {
          total[k] += pw * (unique_depth + 1) /
                      static_cast<double>(zf[k] * (unique_depth - j));
        }
      }
    }
    for (int k = 0; k < 4; ++k) {
      phi[static_cast<std::size_t>(path[i + k].feature_index)] +=
          total[k] * (of[k] - zf[k]) * leaf_value;
    }
  }
  for (; i <= unique_depth; ++i) {
    const double w = unwound_path_sum(path, unique_depth, i);
    phi[static_cast<std::size_t>(path[i].feature_index)] +=
        w * (path[i].one_fraction - path[i].zero_fraction) * leaf_value;
  }
}

/// Pending cold-subtree entry of the iterative fast walk.
struct FastFrame {
  std::int32_t node;
  std::int32_t slot;  ///< path scratch slot (level); cold reuses its parent's
  std::int32_t unique_depth;
  std::int32_t feature;  ///< split feature of the edge into `node`
  double one_fraction;
};

/// Iterative fast traversal of one tree for one sample. Visits leaves in
/// exactly the reference order (hot subtree fully, then cold — the LIFO
/// stack preserves DFS order), feeds EXTEND/UNWIND the same operands, and
/// uses the precomputed metadata only to *skip* recomputing structural
/// values (the two cover divisions and the duplicate search per node, and
/// one of the two path copies: a cold child extends its parent's slot in
/// place, because the parent path is dead once the hot subtree returned)
/// and to skip dead subtrees (ShapMeta::live), whose leaves would only add
/// signed zeros. Each leaf reached goes to `on_leaf(node, path,
/// unique_depth)`; returns the number of leaves reached.
///
/// Always inlined, so each walk compiles the traversal for its caller's
/// ISA: baseline for the scalar walk, AVX2+FMA inside the vector walk.
template <class OnLeaf>
[[gnu::always_inline]] inline std::size_t fast_tree_shap(
    const ExactTraversal& tree, const ShapMeta& meta, std::int32_t root,
    PathElement* storage, int stride, std::vector<FastFrame>& stack,
    OnLeaf&& on_leaf) {
  if (meta.live[static_cast<std::size_t>(root)] == 0) return 0;
  std::size_t leaves = 0;
  stack.clear();
  stack.push_back({root, 0, 0, -1, 1.0});
  while (!stack.empty()) {
    FastFrame frame = stack.back();
    stack.pop_back();
    std::int32_t node_index = frame.node;
    std::int32_t slot = frame.slot;
    int unique_depth = frame.unique_depth;
    double one_fraction = frame.one_fraction;
    int feature = frame.feature;
    PathElement* path = storage + static_cast<std::size_t>(slot) *
                                      static_cast<std::size_t>(stride);
    for (;;) {
      const auto node = static_cast<std::size_t>(node_index);
      extend_path_01(path, unique_depth, meta.entry_zero_fraction[node],
                     one_fraction, feature);
      if (tree.is_leaf(node)) {
        on_leaf(node, path, unique_depth);
        ++leaves;
        break;
      }
      feature = tree.split_feature(node);
      const int path_index = meta.dup_index[node];
      double incoming_one_fraction = 1.0;
      int depth_after = unique_depth;
      if (path_index != 0) {
        incoming_one_fraction = path[path_index].one_fraction;
        unwind_path(path, unique_depth, path_index);
        depth_after = unique_depth - 1;
      }
      const std::int32_t left = tree.left_child(node);
      const std::int32_t right = tree.right_child(node);
      const bool goes_left = tree.goes_left(node);
      const std::int32_t hot = goes_left ? left : right;
      const std::int32_t cold = goes_left ? right : left;
      unique_depth = depth_after + 1;
      if (meta.live[static_cast<std::size_t>(hot)] == 0) {
        // Only the cold child is live (this node is): it extends this slot
        // in place, exactly as its popped frame would.
        node_index = cold;
        one_fraction = 0.0;
        continue;
      }
      if (meta.live[static_cast<std::size_t>(cold)] != 0) {
        stack.push_back({cold, slot, unique_depth, feature, 0.0});
      }
      PathElement* hot_path = storage + static_cast<std::size_t>(slot + 1) *
                                            static_cast<std::size_t>(stride);
      for (int i = 0; i <= depth_after; ++i) hot_path[i] = path[i];
      path = hot_path;
      node_index = hot;
      ++slot;
      one_fraction = incoming_one_fraction;
    }
  }
  return leaves;
}

#if DRCSHAP_SIMD_ENABLED

// ---------------------------------------------------------------------------
// AVX2+FMA vector walk. Each function below carries its own
// target("avx2,fma") attribute; no file is compiled with -mavx2, so every
// inline or template function the linker may merge across objects stays
// baseline code, and this code runs only behind simd_walk_available().
// tree_shap.cpp is compiled with -ffp-contract=off, so no scalar
// expression in these functions gains an FMA the scalar walk lacks.
//
// What vectorizes, and why it stays byte-identical:
//
//  * Per leaf, Algorithm 2 runs one UNWOUND_PATH_SUM recurrence per unique
//    path element — `unique_depth` independent chains of ~2 divisions per
//    step, each with ~40 cycles of serial latency. The walk defers them:
//    chains of one leaf are packed 4 to a lane block (they share the
//    read-only pweight array, loaded broadcast), blocks are bucketed by
//    unique depth (all broadcast constants of the kernel depend only on
//    (ud, j)), and a once-per-tree flush runs several blocks interleaved in
//    one step loop so the recurrence latency of one chain hides behind the
//    arithmetic of the others. Lanes never mix: a SIMD lane computes
//    exactly the scalar chain, same operands, same order.
//  * one_fraction==1 chains divide only by integers ((j+1)*of with of==1,
//    and ud+1). Those divisions run as multiply + two FMAs against a
//    precomputed correctly-rounded reciprocal (Markstein): for normal
//    operands the result is the correctly rounded quotient, i.e. the very
//    bits vdivpd would produce, but at FMA throughput. one_fraction==0
//    chains keep real vdivpd (their divisor zf*(ud-j) is not integral) and
//    ride in the same flush loop, so the divider unit works in parallel
//    with the FMA ports ("mixed" kernel).
//  * phi application is deferred to the flush but ordered by leaf-job
//    emission (= reference DFS leaf order), and within a leaf the unique
//    path features are distinct, so every phi slot sees its additions in
//    exactly the reference order.
//
// EXTEND/UNWIND and the traversal stay scalar: the same fast_tree_shap,
// inlined into fast_tree_shap_avx2.

/// Correctly-rounded reciprocals of the small integers the kernels divide
/// by (unique_depth+1 and j+1 are bounded by tree depth + 1).
struct RecipTable {
  double inv[shap_detail::kSimdWalkMaxDepth + 2];
  RecipTable() {
    inv[0] = 0.0;
    for (int i = 1; i < shap_detail::kSimdWalkMaxDepth + 2; ++i) {
      inv[i] = 1.0 / static_cast<double>(i);
    }
  }
};
const RecipTable kRecip;

/// Markstein correctly-rounded division x/d via the precomputed
/// reciprocal rd = RN(1/d): q0 = x*rd; r = x - q0*d (exact, FMA);
/// q = q0 + r*rd. For normal x and integer d this returns RN(x/d) — the
/// same bits as vdivpd — in 3 FMA-port ops instead of one long division.
__attribute__((target("avx2,fma"))) inline __m256d fma_div(__m256d x,
                                                           __m256d d,
                                                           __m256d rd) {
  const __m256d q0 = _mm256_mul_pd(x, rd);
  const __m256d r = _mm256_fnmadd_pd(q0, d, x);
  return _mm256_fmadd_pd(r, rd, q0);
}

using Block = ShapJobEngine::Block;

/// one_fraction==1 chains, NB interleaved blocks. Per step j (descending):
///   tmp    = next_one * (ud+1) / (j+1)          [integer divisor -> FMA]
///   total += tmp
///   next_one = pw[j] - tmp * zf * (ud-j) / (ud+1)
/// Lane-independent; same operand order as the scalar chain.
template <int NB>
__attribute__((target("avx2,fma"))) void k_of1(int ud, const Block* bs,
                                               const double* pwpool,
                                               double* tot_pool) {
  const __m256d Av = _mm256_set1_pd(static_cast<double>(ud + 1));
  const __m256d rdA = _mm256_set1_pd(kRecip.inv[ud + 1]);
  __m256d nop[NB], tot[NB];
  const double* pw[NB];
  for (int b = 0; b < NB; ++b) {
    pw[b] = pwpool + bs[b].pw_off;
    nop[b] = _mm256_set1_pd(pw[b][ud]);
    tot[b] = _mm256_setzero_pd();
  }
  for (int j = ud - 1; j >= 0; --j) {
    const __m256d Bj = _mm256_set1_pd(static_cast<double>(j + 1));
    const __m256d rdB = _mm256_set1_pd(kRecip.inv[j + 1]);
    const __m256d Cj = _mm256_set1_pd(static_cast<double>(ud - j));
    for (int b = 0; b < NB; ++b) {
      const __m256d pwv = _mm256_set1_pd(pw[b][j]);
      const __m256d zfv = _mm256_loadu_pd(bs[b].zf);
      const __m256d num1 = _mm256_mul_pd(nop[b], Av);
      const __m256d t = fma_div(num1, Bj, rdB);
      tot[b] = _mm256_add_pd(tot[b], t);
      const __m256d num2 = _mm256_mul_pd(_mm256_mul_pd(t, zfv), Cj);
      nop[b] = _mm256_sub_pd(pwv, fma_div(num2, Av, rdA));
    }
  }
  for (int b = 0; b < NB; ++b) {
    _mm256_storeu_pd(tot_pool + bs[b].out, tot[b]);
  }
}

/// one_fraction==0 chains: total += pw[j]*(ud+1) / (zf*(ud-j)). The
/// divisor is not integral, so this is real vdivpd — but carries no
/// recurrence, so a few interleaved blocks keep the divider saturated.
template <int NB>
__attribute__((target("avx2,fma"))) void k_of0(int ud, const Block* bs,
                                               const double* pwpool,
                                               double* tot_pool) {
  const __m256d Av = _mm256_set1_pd(static_cast<double>(ud + 1));
  __m256d tot[NB];
  const double* pw[NB];
  for (int b = 0; b < NB; ++b) {
    pw[b] = pwpool + bs[b].pw_off;
    tot[b] = _mm256_setzero_pd();
  }
  for (int j = ud - 1; j >= 0; --j) {
    const __m256d Cj = _mm256_set1_pd(static_cast<double>(ud - j));
    for (int b = 0; b < NB; ++b) {
      const __m256d zfv = _mm256_loadu_pd(bs[b].zf);
      const __m256d num = _mm256_mul_pd(_mm256_set1_pd(pw[b][j]), Av);
      tot[b] = _mm256_add_pd(tot[b], _mm256_div_pd(num, _mm256_mul_pd(zfv, Cj)));
    }
  }
  for (int b = 0; b < NB; ++b) {
    _mm256_storeu_pd(tot_pool + bs[b].out, tot[b]);
  }
}

/// Mixed kernel: N1 of1 blocks (FMA ports) and N0 of0 blocks (divider) in
/// one step loop, so the two execution units overlap instead of idling.
template <int N1, int N0>
__attribute__((target("avx2,fma"))) void k_mixed(int ud, const Block* bs1,
                                                 const Block* bs0,
                                                 const double* pwpool,
                                                 double* tot1_pool,
                                                 double* tot0_pool) {
  const __m256d Av = _mm256_set1_pd(static_cast<double>(ud + 1));
  const __m256d rdA = _mm256_set1_pd(kRecip.inv[ud + 1]);
  __m256d nop[N1], tot1[N1], tot0[N0];
  const double* pw1[N1];
  const double* pw0[N0];
  for (int b = 0; b < N1; ++b) {
    pw1[b] = pwpool + bs1[b].pw_off;
    nop[b] = _mm256_set1_pd(pw1[b][ud]);
    tot1[b] = _mm256_setzero_pd();
  }
  for (int b = 0; b < N0; ++b) {
    pw0[b] = pwpool + bs0[b].pw_off;
    tot0[b] = _mm256_setzero_pd();
  }
  for (int j = ud - 1; j >= 0; --j) {
    const __m256d Bj = _mm256_set1_pd(static_cast<double>(j + 1));
    const __m256d rdB = _mm256_set1_pd(kRecip.inv[j + 1]);
    const __m256d Cj = _mm256_set1_pd(static_cast<double>(ud - j));
    for (int b = 0; b < N0; ++b) {
      const __m256d zfv = _mm256_loadu_pd(bs0[b].zf);
      const __m256d num = _mm256_mul_pd(_mm256_set1_pd(pw0[b][j]), Av);
      tot0[b] =
          _mm256_add_pd(tot0[b], _mm256_div_pd(num, _mm256_mul_pd(zfv, Cj)));
    }
    for (int b = 0; b < N1; ++b) {
      const __m256d pwv = _mm256_set1_pd(pw1[b][j]);
      const __m256d zfv = _mm256_loadu_pd(bs1[b].zf);
      const __m256d num1 = _mm256_mul_pd(nop[b], Av);
      const __m256d t = fma_div(num1, Bj, rdB);
      tot1[b] = _mm256_add_pd(tot1[b], t);
      const __m256d num2 = _mm256_mul_pd(_mm256_mul_pd(t, zfv), Cj);
      nop[b] = _mm256_sub_pd(pwv, fma_div(num2, Av, rdA));
    }
  }
  for (int b = 0; b < N1; ++b) {
    _mm256_storeu_pd(tot1_pool + bs1[b].out, tot1[b]);
  }
  for (int b = 0; b < N0; ++b) {
    _mm256_storeu_pd(tot0_pool + bs0[b].out, tot0[b]);
  }
}

/// Drains every bucket through the kernels, then applies phi per leaf job
/// in emission (= reference DFS) order: tot * (of - zf) * leaf_value with
/// of literal 1.0 / 0.0, exactly the reference expression.
__attribute__((target("avx2,fma"))) void flush_tree(ShapJobEngine& je,
                                                    double* phi) {
  const double* pwpool = je.pwpool.data();
  for (int u = 0; u < je.n_used; ++u) {
    const int ud = je.used_ud[u];
    const Block* b1 =
        je.b1_data.data() + static_cast<std::size_t>(ud) * je.bucket_cap;
    const Block* b0 =
        je.b0_data.data() + static_cast<std::size_t>(ud) * je.bucket_cap;
    const int m1 = je.b1_n[static_cast<std::size_t>(ud)];
    const int m0 = je.b0_n[static_cast<std::size_t>(ud)];
    int c1 = 0, c0 = 0;
    while (m1 - c1 >= 4 && m0 - c0 >= 2) {
      k_mixed<4, 2>(ud, b1 + c1, b0 + c0, pwpool, je.tot1.data(),
                    je.tot0.data());
      c1 += 4;
      c0 += 2;
    }
    while (m1 - c1 > 0) {
      const int nb = m1 - c1 >= 6 ? 6 : m1 - c1;
      switch (nb) {
        case 6: k_of1<6>(ud, b1 + c1, pwpool, je.tot1.data()); break;
        case 5: k_of1<5>(ud, b1 + c1, pwpool, je.tot1.data()); break;
        case 4: k_of1<4>(ud, b1 + c1, pwpool, je.tot1.data()); break;
        case 3: k_of1<3>(ud, b1 + c1, pwpool, je.tot1.data()); break;
        case 2: k_of1<2>(ud, b1 + c1, pwpool, je.tot1.data()); break;
        default: k_of1<1>(ud, b1 + c1, pwpool, je.tot1.data()); break;
      }
      c1 += nb;
    }
    while (m0 - c0 > 0) {
      const int nb = m0 - c0 >= 3 ? 3 : m0 - c0;
      switch (nb) {
        case 3: k_of0<3>(ud, b0 + c0, pwpool, je.tot0.data()); break;
        case 2: k_of0<2>(ud, b0 + c0, pwpool, je.tot0.data()); break;
        default: k_of0<1>(ud, b0 + c0, pwpool, je.tot0.data()); break;
      }
      c0 += nb;
    }
  }
  for (int jb = 0; jb < je.n_jobs; ++jb) {
    const ShapJobEngine::Job& job = je.jobs[static_cast<std::size_t>(jb)];
    for (int k = 0; k < job.n1; ++k) {
      const int e = job.e1_off + k;
      phi[static_cast<std::size_t>(je.f1[static_cast<std::size_t>(e)])] +=
          je.tot1[static_cast<std::size_t>(e)] *
          (1.0 - je.zf1[static_cast<std::size_t>(e)]) * job.leaf_value;
    }
    for (int k = 0; k < job.n0; ++k) {
      const int e = job.e0_off + k;
      phi[static_cast<std::size_t>(je.f0[static_cast<std::size_t>(e)])] +=
          je.tot0[static_cast<std::size_t>(e)] *
          (0.0 - je.zf0[static_cast<std::size_t>(e)]) * job.leaf_value;
    }
  }
  je.reset();
}

/// Stage one leaf's chains into the engine: the path's unique elements,
/// partitioned by one_fraction, packed 4 per block into the leaf's shared
/// pweight array. Padding lanes get zf = 1.0 (any finite value works —
/// lanes are independent and padding totals are never applied).
inline void emit_leaf(const ExactTraversal& tree, std::size_t node,
                      const PathElement* path, int ud, ShapJobEngine& je) {
  ShapJobEngine::Job& job = je.jobs[static_cast<std::size_t>(je.n_jobs++)];
  job.unique_depth = ud;
  job.leaf_value = tree.value[node];
  job.e1_off = je.n1;
  job.e0_off = je.n0;
  const std::int32_t pw_off = je.n_pw;
  double* pwdst = je.pwpool.data() + pw_off;
  for (int j = 0; j <= ud; ++j) pwdst[j] = path[j].pweight;
  je.n_pw += ud + 1;
  Block* bucket1 =
      je.b1_data.data() + static_cast<std::size_t>(ud) * je.bucket_cap;
  Block* bucket0 =
      je.b0_data.data() + static_cast<std::size_t>(ud) * je.bucket_cap;
  std::int32_t& bn1 = je.b1_n[static_cast<std::size_t>(ud)];
  std::int32_t& bn0 = je.b0_n[static_cast<std::size_t>(ud)];
  if (bn1 == 0 && bn0 == 0) je.used_ud[je.n_used++] = ud;
  int lane1 = 4, lane0 = 4;  // force a new block on the first element
  Block* cur1 = nullptr;
  Block* cur0 = nullptr;
  for (int i = 1; i <= ud; ++i) {
    if (path[i].one_fraction != 0.0) {
      if (lane1 == 4) {
        cur1 = &bucket1[bn1++];
        cur1->pw_off = pw_off;
        cur1->out = je.n1;
        cur1->zf[1] = cur1->zf[2] = cur1->zf[3] = 1.0;
        lane1 = 0;
        je.n1 += 4;
      }
      cur1->zf[lane1] = path[i].zero_fraction;
      const auto e = static_cast<std::size_t>(cur1->out + lane1);
      je.f1[e] = path[i].feature_index;
      je.zf1[e] = path[i].zero_fraction;
      ++lane1;
    } else {
      if (lane0 == 4) {
        cur0 = &bucket0[bn0++];
        cur0->pw_off = pw_off;
        cur0->out = je.n0;
        cur0->zf[1] = cur0->zf[2] = cur0->zf[3] = 1.0;
        lane0 = 0;
        je.n0 += 4;
      }
      cur0->zf[lane0] = path[i].zero_fraction;
      const auto e = static_cast<std::size_t>(cur0->out + lane0);
      je.f0[e] = path[i].feature_index;
      je.zf0[e] = path[i].zero_fraction;
      ++lane0;
    }
  }
  job.n1 = (je.n1 - job.e1_off) - 4 + (lane1 == 4 ? 4 : lane1);
  job.n0 = (je.n0 - job.e0_off) - 4 + (lane0 == 4 ? 4 : lane0);
  if (job.n1 < 0) job.n1 = 0;
  if (job.n0 < 0) job.n0 = 0;
}

/// The vector walk for one (sample, tree): the fast walk with each leaf's
/// chains staged into `je`, then flushed into phi in reference DFS order.
/// Byte-identical to the scalar walk (and so to the reference recursion).
__attribute__((target("avx2,fma"))) std::size_t fast_tree_shap_avx2(
    const ExactTraversal& tree, const ShapMeta& meta, std::int32_t root,
    double* phi, PathElement* storage, int stride,
    std::vector<FastFrame>& stack, ShapJobEngine& je) {
  const std::size_t leaves = fast_tree_shap(
      tree, meta, root, storage, stride, stack,
      [&](std::size_t node, const PathElement* path, int unique_depth) {
        if (unique_depth > 0) emit_leaf(tree, node, path, unique_depth, je);
      });
  flush_tree(je, phi);
  return leaves;
}

#endif  // DRCSHAP_SIMD_ENABLED

// Trees per reduction block of the batch engine. The block partition is a
// function of the ensemble alone — never of the thread count or the batch
// size — so the merge structure, and therefore every last bit of the
// result, is the same no matter how work lands on workers.
constexpr std::size_t kTreesPerBlock = 64;

// Samples per in-flight slab when tree blocks force a partial buffer;
// bounds partial memory at ~kPartialBudget doubles per feature.
constexpr std::size_t kPartialBudget = 2048;

}  // namespace

#if DRCSHAP_SIMD_ENABLED
bool shap_detail::simd_walk_available() {
  // The compiled backend's AVX2 gate (build flag, cpuid, $DRCSHAP_SIMD)
  // plus FMA, which the walk's division replacement needs.
  static const bool fma_ok = __builtin_cpu_supports("fma");
  return fma_ok && CompiledForest::simd_available();
}
#endif

namespace detail {

/// Lazily-built structural metadata of the fast walk. Shared (via
/// shared_ptr) by every copy of an explainer, so copies reuse one build.
struct ShapMetaCell {
  std::once_flag once;
  ShapMeta meta;
};

}  // namespace detail

std::vector<double> TreeShapExplainer::tree_shap_values(
    const DecisionTree& tree, std::span<const float> features) {
  if (!tree.fitted()) throw std::logic_error("tree_shap: tree not fitted");
  if (features.size() != tree.n_features()) {
    throw std::invalid_argument("tree_shap: feature count mismatch");
  }
  const FlatForest flat(std::span<const DecisionTree>(&tree, 1));
  std::vector<double> phi(tree.n_features(), 0.0);
  std::vector<PathElement> path(path_scratch_len(flat));
  flat_tree_shap(flat, 0, features.data(), phi.data(), path.data(),
                 flat.max_depth() + 2);
  return phi;
}

TreeShapExplainer::TreeShapExplainer(const RandomForestClassifier& forest) {
  if (!forest.fitted()) {
    throw std::invalid_argument("TreeShapExplainer: forest not fitted");
  }
  flat_ = forest.flat_shared();
  compiled_ = forest.compiled_shared();
  meta_ = std::make_shared<detail::ShapMetaCell>();
  base_value_ = forest.expected_value();
  model_digest_ = compute_model_digest();
}

std::uint64_t TreeShapExplainer::compute_model_digest() const {
  // Structural FNV-1a over what determines phi: tree shapes live in the
  // child topology, but covers + values + roots pin the ensemble well
  // enough to keep one cache from serving another model's rows.
  const FlatForest& flat = *flat_;
  std::uint64_t h = ExplanationCache::digest(nullptr, 0);
  const auto fold = [&h](const void* bytes, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(bytes);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  const std::size_t n_nodes = flat.n_nodes();
  const std::size_t n_trees = flat.n_trees();
  fold(&n_nodes, sizeof(n_nodes));
  fold(&n_trees, sizeof(n_trees));
  for (std::size_t t = 0; t < n_trees; ++t) {
    const std::int32_t root = flat.root(t);
    fold(&root, sizeof(root));
  }
  fold(flat.feature(), n_nodes * sizeof(std::int32_t));
  fold(flat.value(), n_nodes * sizeof(double));
  fold(flat.cover(), n_nodes * sizeof(double));
  return h;
}

std::vector<double> TreeShapExplainer::shap_values(
    std::span<const float> features) const {
  const FlatForest& flat = *flat_;
  if (features.size() != flat.n_features()) {
    throw std::invalid_argument("tree_shap: feature count mismatch");
  }
  DRCSHAP_OBS_TIMER("shap/values");
  obs::counter_add("shap/samples");
  std::vector<double> phi(flat.n_features(), 0.0);
  std::vector<PathElement> path(path_scratch_len(flat));
  const int stride = flat.max_depth() + 2;
  for (std::size_t t = 0; t < flat.n_trees(); ++t) {
    flat_tree_shap(flat, t, features.data(), phi.data(), path.data(), stride);
  }
  const double inv = 1.0 / static_cast<double>(flat.n_trees());
  for (double& v : phi) v *= inv;
  return phi;
}

ShapMatrix TreeShapExplainer::shap_values_batch(const Dataset& data,
                                                std::size_t n_threads) const {
  if (data.n_features() != flat_->n_features()) {
    throw std::invalid_argument("shap_values_batch: feature count mismatch");
  }
  return shap_values_batch(std::span<const float>(data.features_flat()),
                           data.n_rows(), n_threads);
}

ShapMatrix TreeShapExplainer::shap_values_batch(std::span<const float> features,
                                                std::size_t n_rows,
                                                std::size_t n_threads) const {
  const FlatForest& flat = *flat_;
  const std::size_t n_features = flat.n_features();
  if (features.size() != n_rows * n_features) {
    throw std::invalid_argument("shap_values_batch: matrix shape mismatch");
  }
  DRCSHAP_OBS_TIMER("shap/values_batch");
  obs::counter_add("shap/batch_samples", n_rows);
  const CompiledForest* compiled = compiled_.get();
  ExplanationCache* cache = cache_.get();
  ShapMatrix out;
  out.n_rows = n_rows;
  out.n_features = n_features;
  out.values.assign(n_rows * n_features, 0.0);
  if (n_rows == 0) return out;

  ThreadPool& pool = ThreadPool::global();

  // Quantize every row once up front when the forest has a compiled layout:
  // equal codes take the same branch at every split, so the codes are the
  // dedupe/cache key. The walk itself always reads the raw floats.
  std::vector<std::uint16_t> codes;
  if (compiled != nullptr) {
    codes.resize(n_rows * n_features);
    pool.parallel_for(
        n_rows,
        [&](std::size_t r) {
          compiled->quantize_sample(features.data() + r * n_features,
                                    codes.data() + r * n_features);
        },
        /*grain=*/8, /*max_workers=*/n_threads);
  }

  // --- Dedupe rows on their explanation key (the codes, or the raw floats
  // of a forest too fine to quantize). Rows with byte-equal keys take the
  // same branch at every split, so their phi rows are bit-equal: explain
  // one representative, scatter to the rest.
  const std::size_t key_len = compiled != nullptr
                                  ? n_features * sizeof(std::uint16_t)
                                  : n_features * sizeof(float);
  const auto key_ptr = [&](std::size_t r) -> const void* {
    if (compiled != nullptr) return codes.data() + r * n_features;
    return features.data() + r * n_features;
  };
  std::vector<std::uint32_t> rep(n_rows);
  std::vector<std::uint32_t> uniques;
  uniques.reserve(n_rows);
  {
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_digest;
    by_digest.reserve(n_rows * 2);
    for (std::size_t r = 0; r < n_rows; ++r) {
      const std::uint64_t d = ExplanationCache::digest(key_ptr(r), key_len);
      auto& chain = by_digest[d];
      const auto row32 = static_cast<std::uint32_t>(r);
      std::uint32_t found = row32;
      for (const std::uint32_t u : chain) {
        if (std::memcmp(key_ptr(u), key_ptr(r), key_len) == 0) {
          found = u;
          break;
        }
      }
      rep[r] = found;
      if (found == row32) {
        chain.push_back(row32);
        uniques.push_back(row32);
      }
    }
  }
  obs::counter_add("shap/batch_unique_rows", uniques.size());

  // --- Serve unique rows from the cache where possible.
  std::vector<std::uint32_t> pending;
  if (cache != nullptr) {
    pending.reserve(uniques.size());
    const std::uint64_t salt = model_digest_;
    for (const std::uint32_t u : uniques) {
      if (!cache->lookup(salt, key_ptr(u), key_len,
                         out.values.data() + std::size_t{u} * n_features,
                         n_features)) {
        pending.push_back(u);
      }
    }
    obs::counter_add("shap/cache_hits", uniques.size() - pending.size());
    obs::counter_add("shap/cache_misses", pending.size());
  } else {
    pending = uniques;
  }

  // --- Compute the remaining rows with the same block/merge structure as
  // ever (bit-identical at any thread count), through the fast walk.
  if (!pending.empty()) {
    const std::size_t n_trees = flat.n_trees();
    const std::size_t n_blocks =
        (n_trees + kTreesPerBlock - 1) / kTreesPerBlock;
    const double inv = 1.0 / static_cast<double>(n_trees);
    const int stride = flat.max_depth() + 2;
    const std::size_t scratch_len = path_scratch_len(flat);
    obs::counter_add("shap/tree_traversals", pending.size() * n_trees);

    std::call_once(meta_->once, [&] { meta_->meta = build_meta(flat); });
    const ShapMeta& meta = meta_->meta;

    // One scratch slot per shared-pool worker: the unique-path storage plus
    // the fast walk's frame stack. Ranges may also run inline on the
    // calling thread (worker index -1 when it is not a pool worker), but
    // only when nothing was submitted — a serial-degraded nested call runs
    // entirely on its outer worker, and a top-level inline run has no
    // workers active in this call — so a slot is never contended within one
    // call.
    struct WorkerScratch {
      std::vector<PathElement> path;
      std::vector<FastFrame> stack;
      ShapJobEngine engine;
    };
    std::vector<WorkerScratch> scratch(pool.size());
    auto worker_scratch = [&]() -> WorkerScratch& {
      const int w = ThreadPool::current_worker_index();
      const std::size_t slot =
          (w < 0 || static_cast<std::size_t>(w) >= scratch.size())
              ? 0
              : static_cast<std::size_t>(w);
      WorkerScratch& ws = scratch[slot];
      if (ws.path.size() < scratch_len) ws.path.assign(scratch_len, {});
      return ws;
    };
    // The AVX2+FMA walk batches each tree's leaf chains through vector
    // kernels; it is byte-identical to the scalar walk, entered only behind
    // the build flag + runtime cpuid + $DRCSHAP_SIMD, and bounded by the
    // reciprocal table depth and by the per-worker leaf-pool budget (one
    // very wide, deep tree would otherwise cost gigabytes per worker).
#if DRCSHAP_SIMD_ENABLED
    const bool simd_walk =
        shap_detail::simd_walk_available() &&
        flat.max_depth() <= shap_detail::kSimdWalkMaxDepth &&
        shap_detail::job_engine_bytes(stride, meta.max_leaves) <=
            shap_detail::kJobEngineByteBudget;
#else
    const bool simd_walk = false;
#endif
    obs::note_set("shap/walk", simd_walk ? "avx2" : "scalar");
    // Accumulate trees [t_begin, t_end) for row `row` into `phi` in fixed
    // tree order, counting the leaves the walk attributed once per call.
    auto accumulate_trees = [&](std::size_t row, double* phi,
                                std::size_t t_begin, std::size_t t_end) {
      WorkerScratch& ws = worker_scratch();
      const ExactTraversal trav =
          exact_traversal(flat, features.data() + row * n_features);
      std::size_t leaves = 0;
#if DRCSHAP_SIMD_ENABLED
      if (simd_walk) {
        ws.engine.init(stride, meta.max_leaves);
        for (std::size_t t = t_begin; t < t_end; ++t) {
          leaves += fast_tree_shap_avx2(trav, meta, flat.root(t), phi,
                                        ws.path.data(), stride, ws.stack,
                                        ws.engine);
        }
        obs::counter_add("shap/leaves_attributed", leaves);
        return;
      }
#endif
      for (std::size_t t = t_begin; t < t_end; ++t) {
        leaves += fast_tree_shap(
            trav, meta, flat.root(t), ws.path.data(), stride, ws.stack,
            [&](std::size_t node, const PathElement* path, int unique_depth) {
              leaf_accumulate(trav, node, path, unique_depth, phi);
            });
      }
      obs::counter_add("shap/leaves_attributed", leaves);
    };

    if (n_blocks == 1) {
      // Small ensemble: one work unit per pending row writes its output row
      // directly, accumulating trees in fixed order.
      pool.parallel_for(
          pending.size(),
          [&](std::size_t i) {
            const std::size_t row = pending[i];
            double* phi = out.values.data() + row * n_features;
            accumulate_trees(row, phi, 0, n_trees);
            for (std::size_t f = 0; f < n_features; ++f) phi[f] *= inv;
          },
          /*grain=*/0, /*max_workers=*/n_threads);
    } else {
      // Large ensemble: (row, tree-block) work units write per-unit partial
      // phi rows, merged per row in ascending block order. Rows stream
      // through in slabs so the partial buffer stays bounded.
      const std::size_t slab =
          std::max<std::size_t>(1, kPartialBudget / n_blocks);
      std::vector<double> partial(std::min(slab, pending.size()) * n_blocks *
                                  n_features);
      for (std::size_t begin = 0; begin < pending.size(); begin += slab) {
        const std::size_t count = std::min(slab, pending.size() - begin);
        std::fill(partial.begin(),
                  partial.begin() + static_cast<std::ptrdiff_t>(
                                        count * n_blocks * n_features),
                  0.0);
        pool.parallel_for(
            count * n_blocks,
            [&](std::size_t unit) {
              const std::size_t local = unit / n_blocks;
              const std::size_t block = unit % n_blocks;
              double* phi =
                  partial.data() + (local * n_blocks + block) * n_features;
              const std::size_t t_begin = block * kTreesPerBlock;
              const std::size_t t_end =
                  std::min(n_trees, t_begin + kTreesPerBlock);
              accumulate_trees(pending[begin + local], phi, t_begin, t_end);
            },
            /*grain=*/0, /*max_workers=*/n_threads);
        pool.parallel_for(
            count,
            [&](std::size_t local) {
              double* dst = out.values.data() +
                            std::size_t{pending[begin + local]} * n_features;
              for (std::size_t block = 0; block < n_blocks; ++block) {
                const double* src =
                    partial.data() + (local * n_blocks + block) * n_features;
                for (std::size_t f = 0; f < n_features; ++f) dst[f] += src[f];
              }
              for (std::size_t f = 0; f < n_features; ++f) dst[f] *= inv;
            },
            /*grain=*/0, /*max_workers=*/n_threads);
      }
    }

    if (cache != nullptr) {
      const std::uint64_t salt = model_digest_;
      for (const std::uint32_t u : pending) {
        cache->insert(salt, key_ptr(u), key_len,
                      out.values.data() + std::size_t{u} * n_features,
                      n_features);
      }
    }
  }

  // --- Scatter representatives to their duplicates.
  for (std::size_t r = 0; r < n_rows; ++r) {
    if (rep[r] != r) {
      std::memcpy(out.values.data() + r * n_features,
                  out.values.data() + std::size_t{rep[r]} * n_features,
                  n_features * sizeof(double));
    }
  }
  return out;
}

}  // namespace drcshap
