// `eco` workload: a resident EcoEngine on a member of the uncongested
// eco_bench spec family (bench/bench_eco.cpp), at kGrid x kGrid g-cells
// with the family's density, driven by a seeded script of small edits
// through apply() (see make_script): macro moves and resizes, each followed
// by its revert, and net reroutes. The script mixes cold edits (fresh
// features, cache misses) with reverts the explanation cache serves.
// Throughput is edits per second of the script; the AUPRC pools the maps
// after every edit. After the timed script, the engine's end state
// (features, labels, probabilities, phi) must be digest-equal to a
// from-scratch EcoEngine on the edited design built without a cache.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "benchsuite/pipeline.hpp"
#include "core/explanation_cache.hpp"
#include "eco/eco_engine.hpp"
#include "stats.hpp"
#include "util/artifact.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace drcshap;

namespace {

constexpr std::size_t kGrid = 20;
constexpr std::size_t kNudges = 5;
constexpr double kGrowth = 2.0;  // um, resize edits
constexpr std::size_t kRerouteNets = 8;
// Script length: one round of the edit set per this many seconds of
// measuring time, at least one.
constexpr double kSecondsPerRound = 25.0;

/// bench_eco's 400 um / 60x60 / 2k-cell / 8-macro spec (and its seed)
/// scaled to kGrid at the same g-cell pitch and cell and macro density. The
/// design is fixed: apply() cost depends strongly on the design, so a
/// seeded design would make runs with different seeds incomparable; the
/// seed drives the edit script instead.
BenchmarkSpec eco_spec() {
  const double area = static_cast<double>(kGrid * kGrid) / (60.0 * 60.0);
  BenchmarkSpec spec;
  spec.name = "eco_bench";
  spec.table_group = 0;
  spec.die_microns = 400.0 * static_cast<double>(kGrid) / 60.0;
  spec.gcells_x = kGrid;
  spec.gcells_y = kGrid;
  spec.cells_thousands = 2.0 * area;
  spec.n_macros = std::max(3, static_cast<int>(std::lround(8.0 * area)));
  spec.difficulty = 0.02;
  spec.wiring_richness = 1.0;
  spec.seed = 7;
  return spec;
}

Design make_design(const BenchmarkSpec& spec) {
  const PipelineOptions options;
  const NetlistSpec netlist = generate_netlist(spec, options.generator);
  PlacerOptions placer = options.placer;
  placer.row_height = options.generator.row_height;
  placer.seed = spec.seed * 31 + 1;
  return place_design(netlist, placer);
}

bool inside(const Rect& box, const Rect& die) {
  return !box.empty() && box.x_lo >= die.x_lo && box.y_lo >= die.y_lo &&
         box.x_hi <= die.x_hi && box.y_hi <= die.y_hi;
}

/// The seeded edit script. One round covers a fixed edit set, one cycle per
/// (macro, axis): nudge the macro kNudges times by 0.25 um along the axis,
/// revert it to its original box in one edit, grow it by 0.5 um on the edge
/// across that axis, revert that, and reroute kRerouteNets random nets.
/// Cold edits (fresh features, cache misses) are the majority, so the
/// per-edit median measures re-scoring of a dirty region; the reverts are
/// served by the explanation cache. The seed orders the cycles and picks
/// the nets; covering the whole set keeps the work of a round the same for
/// every seed. Every cycle returns the design to its initial state, so each
/// cycle's boxes are taken from the initial design.
std::vector<EcoEdit> make_script(const Design& design, std::uint64_t seed,
                                 std::size_t rounds) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 3);
  struct Cycle {
    EcoEdit nudge, restore, resize;
  };
  std::vector<Cycle> cycles;
  for (MacroId m = 0; m < design.num_macros(); ++m) {
    const Rect& box = design.macro(m).box;
    for (const bool along_x : {true, false}) {
      Cycle c;
      c.nudge.kind = EcoEdit::Kind::kMoveMacro;
      c.nudge.macro = m;
      double step = 0.25;
      Rect last = box;
      (along_x ? last.x_lo : last.y_lo) += kNudges * step;
      (along_x ? last.x_hi : last.y_hi) += kNudges * step;
      if (!inside(last, design.die())) step = -step;
      (along_x ? c.nudge.dx : c.nudge.dy) = step;
      c.restore.kind = EcoEdit::Kind::kResizeMacro;  // exact revert
      c.restore.macro = m;
      c.restore.new_box = box;
      c.resize = c.restore;
      (along_x ? c.resize.new_box.x_hi : c.resize.new_box.y_hi) += kGrowth;
      if (!inside(c.resize.new_box, design.die())) {
        c.resize.new_box = box;
        (along_x ? c.resize.new_box.x_lo : c.resize.new_box.y_lo) -= kGrowth;
      }
      cycles.push_back(c);
    }
  }

  std::vector<EcoEdit> script;
  for (std::size_t round = 0; round < rounds; ++round) {
    rng.shuffle(cycles);
    for (const Cycle& c : cycles) {
      script.insert(script.end(), kNudges, c.nudge);
      EcoEdit reroute;
      reroute.kind = EcoEdit::Kind::kRerouteNets;
      for (std::size_t n = 0; n < kRerouteNets; ++n) {
        reroute.nets.push_back(
            design.net(static_cast<NetId>(rng.index(design.num_nets()))).name);
      }
      script.insert(script.end(), {c.restore, c.resize, c.restore, reroute});
    }
  }
  return script;
}

std::uint64_t state_digest(const EcoEngine& engine) {
  const auto& f = engine.features();
  const auto& l = engine.labels();
  const auto& p = engine.probabilities();
  const auto& s = engine.shap_values();
  std::uint64_t h = fnv1a(f.data(), f.size() * sizeof(float));
  h = fnv1a(l.data(), l.size(), h);
  h = fnv1a(p.data(), p.size() * sizeof(double), h);
  return fnv1a(s.data(), s.size() * sizeof(double), h);
}

}  // namespace

void run_eco(const RunContext& ctx, Tracer& tracer, RunResult& result) {
  const TrainedModel model = train_model(ctx, tracer, result);
  const BenchmarkSpec spec = eco_spec();

  const double build_start = wall_ms();
  std::optional<EcoEngine> engine;
  {
    const auto span = tracer.span("eco.build");
    TreeShapExplainer explainer(*model.forest);
    explainer.set_cache(std::make_shared<ExplanationCache>());
    engine.emplace(make_design(spec), model.forest, std::move(explainer));
  }
  const double build_s = (wall_ms() - build_start) * 1e-3;
  result.layer("eco.build_ms", build_s * 1e3, "ms");

  const std::size_t rounds = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(ctx.seconds / kSecondsPerRound)));
  const std::vector<EcoEdit> script =
      make_script(engine->design(), ctx.seed, rounds);

  std::vector<double> apply_ms;
  std::vector<double> probs;          ///< every post-edit map, pooled
  std::vector<std::uint8_t> labels;
  double dirty = 0, route_dirty = 0, rescored = 0, pattern_reused = 0,
         maze_reused = 0, maze_recomputed = 0;
  const obs::Snapshot before = obs::snapshot();
  for (std::size_t i = 0; i < script.size(); ++i) {
    ++result.attempted;
    const double start = wall_ms();
    EcoResult out;
    try {
      const auto span = tracer.span("eco.apply", i + 1);
      out = engine->apply(script[i]);
    } catch (const std::exception& e) {
      result.fail(std::string("eco apply: ") + e.what());
      continue;
    }
    apply_ms.push_back(wall_ms() - start);
    if (!probabilities_valid(engine->probabilities())) {
      result.fail("eco: probability outside [0,1] after edit " + std::to_string(i));
    }
    const auto& p = engine->probabilities();
    const auto& l = engine->labels();
    probs.insert(probs.end(), p.begin(), p.end());
    labels.insert(labels.end(), l.begin(), l.end());
    dirty += static_cast<double>(out.stats.dirty_cells);
    route_dirty += static_cast<double>(out.stats.route_dirty_cells);
    rescored += static_cast<double>(out.stats.rows_rescored);
    pattern_reused += static_cast<double>(out.stats.pattern_reused);
    maze_reused += static_cast<double>(out.stats.maze_reused);
    maze_recomputed += static_cast<double>(out.stats.maze_recomputed);
  }
  const obs::Snapshot after = obs::snapshot();
  if (apply_ms.empty()) throw std::runtime_error("eco: every edit failed");

  double session_ms = 0.0;
  for (const double ms : apply_ms) session_ms += ms;
  report_end_to_end(result, model.setup_s + build_s,
                    nearest_rank(apply_ms, 50.0), nearest_rank(apply_ms, 75.0),
                    static_cast<double>(apply_ms.size()) / (session_ms * 1e-3),
                    probs, labels);

  const double n = static_cast<double>(apply_ms.size());
  result.layer("eco.apply_ms", session_ms / n, "ms");
  result.layer("eco.dirty_cells", dirty / n, "count");
  result.layer("eco.route_dirty_cells", route_dirty / n, "count");
  result.layer("eco.rows_rescored", rescored / n, "count");
  result.layer("eco.pattern_reused", pattern_reused, "count");
  result.layer("eco.maze_reused", maze_reused, "count");
  result.layer("eco.maze_recomputed", maze_recomputed, "count");
  result.layer("eco.maze_reuse_share",
               Ratio{maze_reused, maze_reused + maze_recomputed}.value(), "ratio");
  result.layer("forest.rows_scored",
               static_cast<double>(counter_delta(before, after, "forest/rows_scored")),
               "count");
  report_shap_counters(before, after, result);
  std::fprintf(stderr, "eco: %zu edits on a %zux%zu design (%zu cells)\n",
               apply_ms.size(), kGrid, kGrid, engine->num_cells());

  // End-state checks, outside timing. Every cycle ends reverted, so one more
  // nudge is left in place first; then additivity on every cell, and the
  // state must equal a from-scratch, cache-free rebuild of the edited design.
  ++result.attempted;
  engine->apply(script.front());
  if (max_additivity_gap(engine->shap_values(), engine->features().size() /
                                                    engine->num_cells(),
                         engine->shap_base_value(),
                         engine->probabilities()) > kAdditivityTolerance) {
    result.fail("eco end state: SHAP additivity gap above 1e-9");
  }
  const EcoEngine reference(engine->design(), model.forest,
                            TreeShapExplainer(*model.forest));
  if (state_digest(reference) != state_digest(*engine)) {
    result.fail("eco end state differs from a from-scratch rebuild");
  }
}

}  // namespace perfbench
