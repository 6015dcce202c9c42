// drcshap_perfbench: the repository benchmark's binary, normally run
// through perfbench/run.py, which builds it first.
//
//   drcshap_perfbench --workload query|serve|eco --seed N --seconds S
//                     --trace 0|1 [--work-dir DIR] [--source-id ID]
//
// stdout: a provenance line, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"} holding every end-to-end
// metric (--trace 0) or every per-layer metric (--trace 1; a layer the
// workload does not exercise reads 0). A human-readable summary goes to
// stderr. Exits nonzero, without a result line, on any error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "stats.hpp"
#include "obs/json.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, in BENCHMARK.json order; every workload
/// reports each of them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p75_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"auprc", "ratio"},
};

/// Every per-layer metric, in BENCHMARK.json order.
constexpr MetricSpec kPerLayer[] = {
    {"place.ms", "ms"},
    {"route.ms", "ms"},
    {"route.cpu_ms", "ms"},
    {"route.maze_expansions", "count"},
    {"route.segments", "count"},
    {"route.rerouted", "count"},
    {"route.reroute_share", "ratio"},
    {"route.ripup_iterations", "count"},
    {"route.overflow", "count"},
    {"features.aggregates_ms", "ms"},
    {"features.extract_ms", "ms"},
    {"drc.ms", "ms"},
    {"drc.cells_scored", "count"},
    {"forest.predict_ms", "ms"},
    {"forest.rows_scored", "count"},
    {"forest.fit_ms", "ms"},
    {"forest.fit_cpu_ms", "ms"},
    {"forest.fit.cpu_per_wall", "ratio"},
    {"ml.suite_build_ms", "ms"},
    {"ml.suite_build_cpu_ms", "ms"},
    {"ml.suite_build.cpu_per_wall", "ratio"},
    {"shap.ms", "ms"},
    {"shap.cpu_ms", "ms"},
    {"shap.cpu_per_wall", "ratio"},
    {"shap.rows", "count"},
    {"shap.unique_rows", "count"},
    {"shap.tree_traversals", "count"},
    {"shap.ms_per_row", "ms"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_rate", "ratio"},
    {"serve.batches", "count"},
    {"serve.rows_per_batch", "count"},
    {"serve.max_queue_depth", "count"},
    {"serve.rejected", "count"},
    {"serve.server_explain_p50_ms", "ms"},
    {"serve.explain_p90_ms", "ms"},
    {"serve.score_p50_ms", "ms"},
    {"serve.score_p90_ms", "ms"},
    {"serve.generator_lag_ms", "ms"},
    {"eco.build_ms", "ms"},
    {"eco.apply_ms", "ms"},
    {"eco.dirty_cells", "count"},
    {"eco.route_dirty_cells", "count"},
    {"eco.rows_rescored", "count"},
    {"eco.pattern_reused", "count"},
    {"eco.maze_reused", "count"},
    {"eco.maze_recomputed", "count"},
    {"eco.maze_reuse_share", "ratio"},
    {"generate.ms", "ms"},
    {"setup.model_s", "s"},
    {"query.unattributed_share", "ratio"},
    {"query.max_unattributed_share", "ratio"},
    {"query.trace_overhead_ms", "ms"},
    {"host.steal_share", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "drcshap_perfbench: %s\nusage: drcshap_perfbench --workload "
               "query|serve|eco --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--source-id ID]\n",
               why.c_str());
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

drcshap::obs::JsonValue provenance(const RunContext& ctx,
                                   const std::string& source_id) {
  drcshap::obs::JsonValue p = drcshap::obs::JsonValue::make_object();
  p["cpu_model"] = cpu_model();
  p["nproc"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  p["pool_size"] =
      static_cast<std::uint64_t>(drcshap::ThreadPool::global().size());
  p["avx2"] = static_cast<bool>(__builtin_cpu_supports("avx2"));
  p["build_type"] = PERFBENCH_BUILD_TYPE;
  p["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  p["DRCSHAP_OBS"] = DRCSHAP_OBS_ENABLED != 0;
  p["DRCSHAP_SIMD"] = DRCSHAP_SIMD_ENABLED != 0;
  p["DRCSHAP_FAILPOINTS"] = DRCSHAP_FAILPOINTS_ENABLED != 0;
  const char* threads_env = std::getenv("DRCSHAP_THREADS");
  p["DRCSHAP_THREADS"] = threads_env != nullptr ? threads_env : "";
  p["source"] = source_id;
  p["workload"] = ctx.workload;
  p["seed"] = ctx.seed;
  p["seconds"] = ctx.seconds;
  p["trace"] = ctx.trace;
  return p;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  std::string source_id = "unknown";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        ctx.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        ctx.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        ctx.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        ctx.trace = value == "1";
      } else if (flag == "--work-dir") {
        ctx.work_dir = value;
      } else if (flag == "--source-id") {
        source_id = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (!(ctx.seconds > 0.0)) usage("--seconds must be positive");

  drcshap::set_log_level(drcshap::LogLevel::kWarn);
  std::printf("%s\n", provenance(ctx, source_id).dump(0).c_str());
  std::fflush(stdout);

  Tracer tracer(ctx.trace);
  RunResult result;
  const HostCpu host_start = host_cpu();
  try {
    if (ctx.workload == "query") {
      run_query(ctx, tracer, result);
    } else if (ctx.workload == "serve") {
      run_serve(ctx, tracer, result);
    } else if (ctx.workload == "eco") {
      run_eco(ctx, tracer, result);
    } else {
      usage("unknown workload " + ctx.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drcshap_perfbench: %s workload aborted: %s\n",
                 ctx.workload.c_str(), e.what());
    return 1;
  }
  // Time the hypervisor gave to other guests: explains a slow run.
  const HostCpu host_end = host_cpu();
  result.layer("host.steal_share",
               Ratio{host_end.steal - host_start.steal,
                     host_end.total - host_start.total}.value(),
               "ratio");
  if (ctx.trace) {
    tracer.write_jsonl(ctx.work_dir + "/trace-" + ctx.workload + ".jsonl");
  }

  using drcshap::obs::JsonValue;
  JsonValue metrics = JsonValue::make_object();
  bool all_finite = true;
  const auto emit = [&](const std::string& name, const Metric& m) {
    all_finite = all_finite && std::isfinite(m.value);
    JsonValue entry = JsonValue::make_object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[name] = std::move(entry);
    std::fprintf(stderr, "  %-32s %16.6f %s\n", name.c_str(), m.value,
                 m.unit.c_str());
  };
  if (ctx.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = result.per_layer.find(spec.name);
      emit(spec.name, it != result.per_layer.end() ? it->second
                                                   : Metric{0.0, spec.unit});
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = result.end_to_end.find(spec.name);
      if (it == result.end_to_end.end() || it->second.unit != spec.unit) {
        std::fprintf(stderr, "drcshap_perfbench: %s workload did not report %s\n",
                     ctx.workload.c_str(), spec.name);
        return 1;
      }
      emit(spec.name, it->second);
    }
    std::fprintf(stderr, "  (host steal share %.4f)\n",
                 result.per_layer["host.steal_share"].value);
  }
  for (const std::string& why : result.failures) {
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  }
  if (!all_finite) {
    std::fprintf(stderr, "drcshap_perfbench: a metric is not a finite number\n");
    return 1;
  }
  JsonValue out = JsonValue::make_object();
  out["correct"] = result.failed == 0;
  out["attempted"] = result.attempted;
  out["failed"] = result.failed;
  out["metrics"] = std::move(metrics);
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}
