#pragma once
// Incremental ECO (engineering change order) loop: apply a small design
// edit and recompute routes, congestion features, DRC labels, hotspot
// probabilities and SHAP explanations only where they can have changed,
// then report a before/after hotspot diff.
//
// The engine holds one design resident together with every intermediate
// the one-shot pipeline normally throws away (route trace, congestion
// snapshot, per-g-cell aggregates, per-cell DRC violations, the feature
// matrix, probabilities and the full phi matrix). An apply() then flows an
// edit through the stages with dirty tracking:
//
//   route     memoized replay of the exact global-routing algorithm
//             (route/route_trace.hpp) — byte-identical by construction;
//   features  cells within Chebyshev distance 1 of any cell whose
//             aggregates or incident congestion changed (the 3x3 feature
//             window and the DRC causes both read exactly that far);
//   labels    the same dirty set re-scored with re-derived per-cell rng
//             streams; violation coverage counts keep straddling boxes'
//             hotspot flags exact;
//   predict / explain
//             only dirty rows, batched through the compiled forest engine
//             and the TreeSHAP fast path (+ explanation cache). Per-row
//             results are independent of batch composition, so subset
//             batches are byte-identical to full ones.
//
// Invariant (enforced by golden-digest tests at 1 and 8 threads, cache on
// and off): after any apply() sequence, every piece of resident state is
// byte-identical to a from-scratch rebuild of the edited design.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/random_forest.hpp"
#include "core/tree_shap.hpp"
#include "drc/drc_oracle.hpp"
#include "netlist/design.hpp"
#include "route/global_router.hpp"

namespace drcshap {

/// One design edit. kMoveMacro / kResizeMacro change a macro footprint and
/// its routing blockage; kRerouteNets forces the named nets' segments to
/// re-run their routing calls (a no-op on an unchanged design — which is
/// exactly what byte-identity demands — but it invalidates any reuse for
/// those nets when combined with congestion drift).
struct EcoEdit {
  enum class Kind : std::uint8_t {
    kMoveMacro = 0,
    kResizeMacro = 1,
    kRerouteNets = 2,
  };
  Kind kind = Kind::kMoveMacro;
  MacroId macro = kInvalidId;      ///< kMoveMacro / kResizeMacro
  double dx = 0.0, dy = 0.0;       ///< kMoveMacro
  Rect new_box;                    ///< kResizeMacro
  std::vector<std::string> nets;   ///< kRerouteNets (net names)
};

/// One changed cell in a before/after hotspot diff.
struct HotspotDiffEntry {
  enum class Change : std::uint8_t {
    kAppeared = 0,   ///< prob crossed the hotspot threshold upward
    kVanished = 1,   ///< prob crossed it downward
    kChanged = 2,    ///< still on the same side, |delta| >= min_prob_delta
  };
  std::size_t cell = 0;
  Change change = Change::kChanged;
  double prob_before = 0.0;
  double prob_after = 0.0;
  /// Top-k features by |phi_after - phi_before|, largest first (ties break
  /// on feature index, so the order is deterministic).
  std::vector<std::pair<std::uint32_t, double>> shap_deltas;
};

struct HotspotDiff {
  std::vector<HotspotDiffEntry> entries;  ///< ascending cell index
  std::size_t n_appeared = 0;
  std::size_t n_vanished = 0;
  std::size_t n_changed = 0;
};

/// Per-apply accounting, for serve stats and the bench.
struct EcoStats {
  std::size_t dirty_cells = 0;        ///< feature/label/predict/explain set
  std::size_t route_dirty_cells = 0;  ///< route replay's divergence set
  std::size_t pattern_reused = 0;
  std::size_t maze_reused = 0;
  std::size_t maze_recomputed = 0;
  std::size_t rows_rescored = 0;      ///< rows re-predicted + re-explained
};

struct EcoResult {
  HotspotDiff diff;
  EcoStats stats;
};

struct EcoOptions {
  GlobalRouterOptions router;
  DrcOracleOptions drc;
  /// Worker cap for the parallel stages of a rebuild/apply; results are
  /// byte-identical at any value (0 = whole shared pool, 1 = serial).
  std::size_t n_threads = 0;
  double hotspot_threshold = 0.5;
  double min_prob_delta = 0.05;
  std::size_t top_k = 5;
};

class EcoEngine {
 public:
  /// Builds the full resident state (route + features + labels + predict +
  /// explain over every g-cell) — the same work a one-shot pipeline run
  /// does, which is also the baseline apply() is benchmarked against.
  /// The explainer must wrap `forest`; attach a cache to it before handing
  /// it in.
  EcoEngine(Design design, std::shared_ptr<const RandomForestClassifier> forest,
            TreeShapExplainer explainer, EcoOptions options = {});

  /// Applies one edit and incrementally recomputes everything downstream.
  /// Throws std::invalid_argument on a malformed edit (unknown macro id or
  /// net name, box outside the die); the resident state is unchanged then.
  EcoResult apply(const EcoEdit& edit);

  // --- resident state (post-edit), for tests, serving, and diff digests --
  const Design& design() const { return design_; }
  const CongestionMap& congestion() const { return *congestion_; }
  const std::vector<GCellAggregate>& aggregates() const { return agg_; }
  /// Row-major g-cells x FeatureSchema::kNumFeatures.
  const std::vector<float>& features() const { return features_; }
  /// Per-cell hotspot label (the oracle's ground truth).
  const std::vector<std::uint8_t>& labels() const { return drc_.hotspot; }
  const DrcOracleState& drc_state() const { return drc_; }
  const std::vector<double>& probabilities() const { return probs_; }
  /// Row-major g-cells x kNumFeatures SHAP matrix.
  const std::vector<double>& shap_values() const { return phi_; }
  double shap_base_value() const { return explainer_.base_value(); }
  long edge_overflow() const { return edge_overflow_; }
  long via_overflow() const { return via_overflow_; }
  std::size_t num_cells() const { return design_.grid().size(); }

 private:
  void rebuild_full();
  /// Re-scores features/labels/probs/phi for `dirty` cells against the
  /// current congestion_/agg_, and fills the diff from the saved old rows.
  EcoResult rescore_dirty(const std::vector<std::size_t>& dirty);

  Design design_;
  EcoOptions options_;
  std::shared_ptr<const RandomForestClassifier> forest_;
  TreeShapExplainer explainer_;

  RouteTrace trace_;
  // optional only because CongestionMap is constructible solely via
  // extract(); always engaged after construction.
  std::optional<CongestionMap> congestion_;
  std::vector<GCellAggregate> agg_;
  DrcOracleState drc_;
  std::vector<float> features_;
  std::vector<double> probs_;
  std::vector<double> phi_;
  long edge_overflow_ = 0;
  long via_overflow_ = 0;
  EcoStats last_route_stats_;
};

}  // namespace drcshap
