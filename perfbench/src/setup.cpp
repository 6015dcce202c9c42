// Model-training set-up shared by every workload, plus small helpers.

#include <cmath>

#include "bench.hpp"
#include "benchsuite/pipeline.hpp"
#include "core/model_io.hpp"
#include "ml/metrics.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace drcshap;

void RunResult::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void report_end_to_end(RunResult& result, double setup_s, double p50_ms,
                       double p75_ms, double throughput_per_s,
                       const std::vector<double>& probs,
                       const std::vector<std::uint8_t>& labels) {
  result.e2e("setup_s", setup_s, "s");
  result.e2e("latency_p50_ms", p50_ms, "ms");
  result.e2e("latency_p75_ms", p75_ms, "ms");
  result.e2e("throughput_per_s", throughput_per_s, "1/s");
  ++result.attempted;
  const double quality = auprc(probs, labels);
  if (!std::isfinite(quality)) {
    result.fail("hotspot maps hold no positive label: AUPRC undefined");
  }
  result.e2e("auprc", std::isfinite(quality) ? quality : 0.0, "ratio");
}

std::uint64_t counter_delta(const obs::Snapshot& before,
                            const obs::Snapshot& after,
                            const std::string& name) {
  const auto get = [&](const obs::Snapshot& s) -> std::uint64_t {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return get(after) - get(before);
}

void report_shap_counters(const obs::Snapshot& before,
                          const obs::Snapshot& after, RunResult& result) {
  const auto delta = [&](const char* name) {
    return static_cast<double>(counter_delta(before, after, name));
  };
  result.layer("shap.rows", delta("shap/batch_samples"), "count");
  result.layer("shap.unique_rows", delta("shap/batch_unique_rows"), "count");
  result.layer("shap.tree_traversals", delta("shap/tree_traversals"), "count");
  const double hits = delta("shap/cache_hits");
  const double misses = delta("shap/cache_misses");
  result.layer("cache.hits", hits, "count");
  result.layer("cache.misses", misses, "count");
  result.layer("cache.hit_rate", Ratio{hits, hits + misses}.value(), "ratio");
}

bool probabilities_valid(const std::vector<double>& probs) {
  for (const double p : probs) {
    if (!std::isfinite(p) || p < 0.0 || p > 1.0) return false;
  }
  return true;
}

double max_additivity_gap(const std::vector<double>& phi,
                          std::size_t n_features, double base,
                          const std::vector<double>& probs) {
  double worst = 0.0;
  for (std::size_t r = 0; r < probs.size(); ++r) {
    double sum = base;
    for (std::size_t f = 0; f < n_features; ++f) sum += phi[r * n_features + f];
    const double gap = std::fabs(sum - probs[r]);
    // A NaN gap must read as a failure, not compare false.
    if (!(gap <= worst)) worst = std::isnan(gap) ? INFINITY : gap;
  }
  return worst;
}

TrainedModel train_model(const RunContext& ctx, Tracer& tracer,
                         RunResult& result) {
  PipelineOptions pipeline;
  pipeline.generator.scale = 16.0;
  RandomForestOptions forest_options;
  forest_options.n_trees = 500;

  TrainedModel model;
  model.artifact_path = ctx.work_dir + "/model.forest";
  std::vector<double> rep_s;
  LayerTotal suite, fit;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const auto rep_span = tracer.span("setup.model");
    const double start = wall_ms();
    double cpu = process_cpu_ms();
    Dataset train = [&] {
      const auto span = tracer.span("ml.suite_build");
      return build_suite_dataset(ispd2015_suite(), pipeline);
    }();
    const double t_suite = wall_ms();
    suite.wall_ms += t_suite - start;
    suite.cpu_ms += process_cpu_ms() - cpu;
    cpu = process_cpu_ms();
    RandomForestClassifier forest(forest_options);
    {
      const auto span = tracer.span("forest.fit");
      forest.fit(train);
    }
    const double t_fit = wall_ms();
    fit.wall_ms += t_fit - t_suite;
    fit.cpu_ms += process_cpu_ms() - cpu;
    {
      const auto span = tracer.span("model.save_load");
      save_forest_file(forest, model.artifact_path);
      model.forest = std::make_shared<const RandomForestClassifier>(
          load_forest_file(model.artifact_path));
    }
    rep_s.push_back((wall_ms() - start) * 1e-3);
  }
  model.setup_s = nearest_rank(rep_s, 50.0);

  const double n = static_cast<double>(kSetupRepetitions);
  result.layer("ml.suite_build_ms", suite.wall_ms / n, "ms");
  result.layer("ml.suite_build_cpu_ms", suite.cpu_ms / n, "ms");
  result.layer("ml.suite_build.cpu_per_wall",
               Ratio{suite.cpu_ms, suite.wall_ms}.value(), "ratio");
  result.layer("forest.fit_ms", fit.wall_ms / n, "ms");
  result.layer("forest.fit_cpu_ms", fit.cpu_ms / n, "ms");
  result.layer("forest.fit.cpu_per_wall",
               Ratio{fit.cpu_ms, fit.wall_ms}.value(), "ratio");
  result.layer("setup.model_s", model.setup_s, "s");
  return model;
}

}  // namespace perfbench
