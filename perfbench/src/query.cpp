// `query` workload: design -> hotspot map + top-k SHAP explanations, one
// design at a time, over a held-out variant of each of the 14 Table I specs
// at scale 16 (see perfbench/README.md for why the variants are fixed and
// the seed sets the order).
//
// Per query, timed as one latency: place_design -> global_route ->
// compute_gcell_aggregates -> FeatureExtractor::extract_all ->
// predict_proba_all over every g-cell -> shap_values_batch on the kTopK
// most probable g-cells. generate_netlist (input preparation) and
// run_drc_oracle (ground-truth labels for the AUPRC guard) are traced as
// layers but sit outside the latency. No explanation cache.
//
// The run makes one pass over the 14 designs per kSecondsPerPass seconds of
// measuring time, each pass in a seeded order; p50 and p75 are taken over
// every query of the run. Throughput is designs per second of summed query
// latency; the AUPRC pools the first pass's maps.

#include <cmath>
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>

#include "bench.hpp"
#include "benchsuite/pipeline.hpp"
#include "core/tree_shap.hpp"
#include "features/feature_names.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace drcshap;

namespace {

constexpr std::size_t kTopK = 8;
// Passes over the corpus: one per this many seconds of measuring time.
constexpr double kSecondsPerPass = 8.0;

/// Spec seed of a held-out variant: distinct from the training seed
/// (spec.seed) and fixed, so every run routes the same designs.
std::uint64_t held_out_seed(std::uint64_t train_seed) {
  return train_seed * 1000003ULL + 7919ULL;
}

struct PassResult {
  std::vector<double> latencies_s;
  std::vector<double> probs;          ///< pooled over the pass's designs
  std::vector<std::uint8_t> labels;
  long overflow = 0;
  std::uint64_t segments = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t ripup_iterations = 0;
  std::vector<double> unattributed;   ///< per query, traced passes only
};

void run_design(const BenchmarkSpec& spec, const RandomForestClassifier& forest,
                const TreeShapExplainer& explainer, Tracer& tracer,
                std::uint64_t request, PassResult& pass, RunResult& result) {
  PipelineOptions options;
  options.generator.scale = 16.0;
  NetlistSpec netlist;
  {
    const auto span = tracer.span("generate", request);
    netlist = generate_netlist(spec, options.generator);
  }
  PlacerOptions placer = options.placer;
  placer.row_height = options.generator.row_height;
  placer.seed = spec.seed * 31 + 1;

  const double start = wall_ms();
  std::optional<Design> design;
  std::optional<GlobalRouteResult> route;
  std::vector<GCellAggregate> aggregates;
  std::vector<double> probs;
  std::vector<double> top_probs;
  ShapMatrix phi;
  {
    const auto query_span = tracer.span("query", request);
    {
      const auto span = tracer.span("place", request);
      design.emplace(place_design(netlist, placer));
    }
    {
      const auto span = tracer.span("route", request);
      route.emplace(global_route(*design, options.router));
    }
    {
      const auto span = tracer.span("features.aggregates", request);
      aggregates = compute_gcell_aggregates(*design);
    }
    std::vector<float> matrix;
    {
      const auto span = tracer.span("features.extract", request);
      const FeatureExtractor extractor(*design, route->congestion, aggregates);
      matrix = extractor.extract_all();
    }
    const std::size_t n_cells = design->grid().size();
    {
      const auto span = tracer.span("forest.predict", request);
      probs = forest.predict_proba_all(matrix, n_cells, ForestEngine::kAuto);
    }
    {
      const auto span = tracer.span("shap", request);
      std::vector<std::size_t> order(n_cells);
      std::iota(order.begin(), order.end(), std::size_t{0});
      const std::size_t k = std::min(kTopK, n_cells);
      std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                        order.end(), [&](std::size_t a, std::size_t b) {
                          return probs[a] != probs[b] ? probs[a] > probs[b]
                                                      : a < b;
                        });
      std::vector<float> rows;
      rows.reserve(k * FeatureSchema::kNumFeatures);
      for (std::size_t i = 0; i < k; ++i) {
        const float* row = matrix.data() + order[i] * FeatureSchema::kNumFeatures;
        rows.insert(rows.end(), row, row + FeatureSchema::kNumFeatures);
        top_probs.push_back(probs[order[i]]);
      }
      phi = explainer.shap_values_batch(rows, k);
    }
  }
  pass.latencies_s.push_back((wall_ms() - start) * 1e-3);

  DrcReport drc;
  {
    const auto span = tracer.span("drc", request);
    drc = run_drc_oracle(*design, route->congestion, aggregates, options.drc);
  }

  ++result.attempted;
  if (!probabilities_valid(probs)) {
    result.fail("query " + spec.name + ": probability outside [0,1]");
  } else if (max_additivity_gap(phi.values, phi.n_features,
                                explainer.base_value(),
                                top_probs) > kAdditivityTolerance) {
    result.fail("query " + spec.name + ": SHAP additivity gap above 1e-9");
  } else if (drc.hotspot.size() != probs.size()) {
    result.fail("query " + spec.name + ": label/probability size mismatch");
  }
  pass.probs.insert(pass.probs.end(), probs.begin(), probs.end());
  pass.labels.insert(pass.labels.end(), drc.hotspot.begin(), drc.hotspot.end());
  pass.overflow += route->edge_overflow + route->via_overflow;
  pass.segments += route->segments_total;
  pass.rerouted += route->segments_rerouted;
  pass.ripup_iterations += static_cast<std::uint64_t>(route->iterations_run);

  if (tracer.enabled()) {
    const auto layers = tracer.totals(request);
    double covered = 0.0;
    for (const char* child : {"place", "route", "features.aggregates",
                              "features.extract", "forest.predict", "shap"}) {
      const auto it = layers.find(child);
      if (it != layers.end()) covered += it->second.wall_ms;
    }
    const double wall = layers.at("query").wall_ms;
    pass.unattributed.push_back(wall > 0.0 ? 1.0 - covered / wall : 0.0);
  }
}

/// One pass: the held-out variant of every spec, in a seeded order.
/// Request ids are unique across passes.
PassResult run_pass(std::uint64_t seed, int pass,
                    const RandomForestClassifier& forest,
                    const TreeShapExplainer& explainer, Tracer& tracer,
                    RunResult& result) {
  const std::vector<BenchmarkSpec>& suite = ispd2015_suite();
  PassResult out;
  std::vector<std::size_t> order(suite.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(pass) * 131);
  rng.shuffle(order);
  for (const std::size_t i : order) {
    BenchmarkSpec spec = suite[i];
    spec.seed = held_out_seed(spec.seed);
    const std::uint64_t request = static_cast<std::uint64_t>(pass) * 1000 + i + 1;
    run_design(spec, forest, explainer, tracer, request, out, result);
  }
  return out;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

}  // namespace

void run_query(const RunContext& ctx, Tracer& tracer, RunResult& result) {
  const TrainedModel model = train_model(ctx, tracer, result);
  const RandomForestClassifier& forest = *model.forest;
  const TreeShapExplainer explainer(forest);
  // Untimed warm-up: the explainer builds its per-tree walk metadata lazily
  // on the first batch.
  explainer.shap_values_batch(std::vector<float>(FeatureSchema::kNumFeatures, 0.0f), 1);

  const int n_passes =
      std::max(1, static_cast<int>(std::lround(ctx.seconds / kSecondsPerPass)));
  std::vector<PassResult> passes;
  if (!ctx.trace) {
    for (int p = 0; p < n_passes; ++p) {
      passes.push_back(run_pass(ctx.seed, p, forest, explainer, tracer, result));
    }
  } else {
    // Traced run: the first pass untraced, then every pass traced; on the
    // same inputs, the difference is the tracing overhead.
    Tracer untraced(false);
    const PassResult reference =
        run_pass(ctx.seed, 0, forest, explainer, untraced, result);
    const obs::Snapshot before = obs::snapshot();
    for (int p = 0; p < n_passes; ++p) {
      passes.push_back(run_pass(ctx.seed, p, forest, explainer, tracer, result));
    }
    const obs::Snapshot after = obs::snapshot();

    const double n = static_cast<double>(passes.size());
    const auto layers = tracer.totals();
    const auto wall = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.wall_ms / n;
    };
    const auto cpu = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.cpu_ms / n;
    };
    result.layer("generate.ms", wall("generate"), "ms");
    result.layer("place.ms", wall("place"), "ms");
    result.layer("route.ms", wall("route"), "ms");
    result.layer("route.cpu_ms", cpu("route"), "ms");
    result.layer("features.aggregates_ms", wall("features.aggregates"), "ms");
    result.layer("features.extract_ms", wall("features.extract"), "ms");
    result.layer("forest.predict_ms", wall("forest.predict"), "ms");
    result.layer("shap.ms", wall("shap"), "ms");
    result.layer("shap.cpu_ms", cpu("shap"), "ms");
    result.layer("shap.cpu_per_wall", Ratio{cpu("shap"), wall("shap")}.value(),
                 "ratio");
    result.layer("drc.ms", wall("drc"), "ms");

    const auto delta = [&](const char* name) {
      return static_cast<double>(counter_delta(before, after, name)) / n;
    };
    double segments = 0, rerouted = 0, ripups = 0, overflow = 0;
    std::vector<double> unattributed;
    for (const PassResult& p : passes) {
      segments += static_cast<double>(p.segments) / n;
      rerouted += static_cast<double>(p.rerouted) / n;
      ripups += static_cast<double>(p.ripup_iterations) / n;
      overflow += static_cast<double>(p.overflow) / n;
      unattributed.insert(unattributed.end(), p.unattributed.begin(),
                          p.unattributed.end());
    }
    result.layer("route.maze_expansions", delta("route/maze_expansions"), "count");
    result.layer("route.segments", segments, "count");
    result.layer("route.rerouted", rerouted, "count");
    result.layer("route.reroute_share", Ratio{rerouted, segments}.value(), "ratio");
    result.layer("route.ripup_iterations", ripups, "count");
    result.layer("route.overflow", overflow, "count");
    result.layer("drc.cells_scored", delta("drc/cells_scored"), "count");
    result.layer("forest.rows_scored", delta("forest/rows_scored"), "count");
    report_shap_counters(before, after, result);
    for (const char* name : {"shap.rows", "shap.unique_rows",
                             "shap.tree_traversals", "cache.hits",
                             "cache.misses"}) {
      result.per_layer[name].value /= n;
    }
    result.layer("shap.ms_per_row",
                 Ratio{wall("shap"), result.per_layer["shap.rows"].value}.value(),
                 "ms");

    // Coverage: the layer spans must account for >= 95% of every query.
    const double worst = *std::max_element(unattributed.begin(), unattributed.end());
    result.layer("query.unattributed_share",
                 sum(unattributed) / static_cast<double>(unattributed.size()),
                 "ratio");
    result.layer("query.max_unattributed_share", worst, "ratio");
    if (worst > 0.05) {
      result.fail("query trace: layer spans cover less than 95% of a query");
    }
    result.layer("query.trace_overhead_ms",
                 (sum(passes[0].latencies_s) - sum(reference.latencies_s)) * 1e3,
                 "ms");
  }

  std::vector<double> latencies_ms;
  double latency_s = 0.0;
  for (const PassResult& p : passes) {
    for (const double s : p.latencies_s) latencies_ms.push_back(s * 1e3);
    latency_s += sum(p.latencies_s);
  }
  // Every pass maps the same designs, so the first holds every map.
  report_end_to_end(result, model.setup_s, nearest_rank(latencies_ms, 50.0),
                    nearest_rank(latencies_ms, 75.0),
                    static_cast<double>(latencies_ms.size()) / latency_s,
                    passes[0].probs, passes[0].labels);
  std::fprintf(stderr, "query: %zu queries in %zu passes\n",
               latencies_ms.size(), passes.size());
}

}  // namespace perfbench
