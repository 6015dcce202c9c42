#pragma once
// Shared pieces of the repository benchmark: the run context, the metric
// sink that becomes the final JSON line, the model-training set-up every
// workload starts with, and the three workload entry points.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/random_forest.hpp"
#include "obs/registry.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir{"."};  ///< scratch space inside the checkout
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Operation counts and metrics of one run; printed as the last stdout line.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> failures;  ///< first few diagnoses, for stderr

  void fail(const std::string& why);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
};

/// The model every workload serves: 500 trees fit on the canonical 14-design
/// Table I suite at scale 16, round-tripped through its on-disk artifact.
struct TrainedModel {
  std::shared_ptr<const drcshap::RandomForestClassifier> forest;
  std::string artifact_path;
  double setup_s = 0.0;  ///< median wall time of the repeated set-up
};

/// How many times set-up trains the model; `setup_s` takes the median.
inline constexpr int kSetupRepetitions = 2;

/// Builds the training set, fits, saves and reloads the model
/// kSetupRepetitions times (the set-up is deterministic, so every
/// repetition yields the same model) and reports the median wall time.
/// Spans go to `tracer`; suite-build and fit per-layer metrics (means over
/// the repetitions) go to `result`.
TrainedModel train_model(const RunContext& ctx, Tracer& tracer,
                         RunResult& result);

/// Reports the end-to-end metrics every workload prints (BENCHMARK.json):
/// `setup_s`; the p50 and p75 latency (ms) of the workload's user
/// operation (p75 is the highest percentile with at least ten samples
/// beyond it on every workload); its throughput (operations per second); and the AUPRC of the
/// hotspot maps it produced against the DRC oracle's labels. Maps without a
/// positive label count as a failed check.
void report_end_to_end(RunResult& result, double setup_s, double p50_ms,
                       double p75_ms, double throughput_per_s,
                       const std::vector<double>& probs,
                       const std::vector<std::uint8_t>& labels);

/// Counter delta between two obs snapshots (0 when absent).
std::uint64_t counter_delta(const drcshap::obs::Snapshot& before,
                            const drcshap::obs::Snapshot& after,
                            const std::string& name);

/// Per-layer SHAP work and cache traffic from obs counter deltas.
void report_shap_counters(const drcshap::obs::Snapshot& before,
                          const drcshap::obs::Snapshot& after,
                          RunResult& result);

/// Whether every probability is finite and inside [0, 1].
bool probabilities_valid(const std::vector<double>& probs);

/// Largest |base + sum(phi_row) - p| over the rows of a row-major phi matrix.
double max_additivity_gap(const std::vector<double>& phi, std::size_t n_features,
                          double base, const std::vector<double>& probs);

inline constexpr double kAdditivityTolerance = 1e-9;

void run_query(const RunContext& ctx, Tracer& tracer, RunResult& result);
void run_serve(const RunContext& ctx, Tracer& tracer, RunResult& result);
void run_eco(const RunContext& ctx, Tracer& tracer, RunResult& result);

}  // namespace perfbench
