// `serve` workload: an in-process serve::Server on a Unix socket, loaded
// from the set-up model's artifact, driven by kConnections client
// connections. The timed part is kCycles cycles, each of two phases:
//
//   open loop    one request every 1 / kOpenLoopRate seconds for
//                kOpenShare * seconds / kCycles; each request is timed from
//                its due time, so a stall also counts against the requests
//                queued behind it.
//   closed loop  every connection sends back-to-back with the same mix for
//                kClosedShare * seconds / kCycles (explain throughput at
//                saturation).
//
// Mix: kExplainShare of requests are explain requests of kExplainRows rows
// (one in kRepeatEvery takes all its rows from a kHotRows hot set, so the
// explanation cache is exercised), the rest score requests of kScoreRows
// rows. Rows are g-cell feature rows of fixed held-out variants of four
// quick-to-route Table I specs; the seed draws the rows, the hot set, the
// verb sequence and the schedule phase.
//
// Latency p50 and p75 are medians over the cycles of each open loop's
// explain-request percentiles (the explain p90 over the whole run and score
// latencies are per-layer metrics);
// throughput is the median over the cycles of explained rows per second at
// saturation. The host's speed drifts within seconds, so spreading both
// phases over the whole run and taking medians over cycles keeps one slow
// stretch from moving a whole metric. The AUPRC is that of every pool row
// scored through the server after the timed cycles, against the rows'
// oracle labels.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "benchsuite/pipeline.hpp"
#include "core/tree_shap.hpp"
#include "obs/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace perfbench {

using namespace drcshap;
using serve::Request;
using serve::Response;
using serve::Verb;

namespace {

constexpr std::uint32_t kConnections = 4;
// A light fixed load: requests arrive 1/16 s apart, about twice as long as
// an explain batch takes, so requests do not queue even when the host runs
// slow (explain capacity at saturation was ~110-130 rows/s on a 4-thread
// Xeon VM when this benchmark was written; this offers ~16 explain rows/s
// plus score traffic). At 24/s a slow host pushed explain batches past the
// arrival spacing and the p90s doubled; near half load the single batch
// runner is busy half the time and the percentiles flip between "runner
// idle" and "queued behind an explain batch" from run to run.
constexpr double kOpenLoopRate = 16.0;
constexpr double kOpenShare = 0.7;
constexpr double kClosedShare = 0.3;
constexpr int kCycles = 5;
constexpr double kExplainShare = 0.5;
constexpr std::uint32_t kScoreRows = 8;
constexpr std::uint32_t kExplainRows = 2;
// One explain request in kRepeatEvery repeats: it takes all its rows from
// the hot set, so the cache serves it whole. Repeating single rows would
// add requests of half the cost of a fresh one, a third latency mode next
// to the median; a fixed pattern in the open loop keeps the share of
// cache-served requests, and with it the median's place among the fresh
// ones, the same in every loop.
constexpr std::size_t kRepeatEvery = 4;
constexpr std::size_t kHotRows = 16;
constexpr double kVerifyShare = 0.125;  // replies re-checked byte for byte
// Quick-to-route Table I specs whose held-out variants supply the rows.
constexpr const char* kRowSpecs[] = {"des_perf_b", "fft_a", "bridge32_b",
                                     "mult_a"};

class Client {
 public:
  explicit Client(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      const std::string why = std::strerror(errno);
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("connect " + socket_path + ": " + why);
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Response call(const Request& request) {
    throw_if_error(serve::write_frame(fd_, serve::encode_request(request)));
    StatusOr<std::string> frame = serve::read_frame(fd_);
    throw_if_error(frame.status());
    StatusOr<Response> response = serve::decode_response(frame.value());
    throw_if_error(response.status());
    return std::move(response).value();
  }

 private:
  int fd_ = -1;
};

/// The feature rows requests are drawn from.
struct RowPool {
  std::vector<float> values;  ///< row-major
  std::vector<std::uint8_t> labels;  ///< DRC oracle hotspot label per row
  std::size_t n_rows = 0;
  std::size_t n_features = 0;
  std::vector<std::uint32_t> hot;

  const float* row(std::uint32_t i) const { return values.data() + i * n_features; }
};

RowPool build_row_pool(std::uint64_t seed) {
  PipelineOptions options;
  options.generator.scale = 16.0;
  RowPool pool;
  for (const char* name : kRowSpecs) {
    BenchmarkSpec spec = suite_spec(name);
    spec.seed = spec.seed * 1000003ULL + 104729ULL;  // not a training seed
    const DesignRun run = run_pipeline(spec, options);
    pool.n_features = run.samples.n_features();
    for (std::size_t r = 0; r < run.samples.n_rows(); ++r) {
      const auto row = run.samples.row(r);
      pool.values.insert(pool.values.end(), row.begin(), row.end());
    }
    pool.labels.insert(pool.labels.end(), run.samples.labels().begin(),
                       run.samples.labels().end());
    pool.n_rows += run.samples.n_rows();
  }
  Rng rng(seed ^ 0xC0FFEEULL);
  for (std::size_t i = 0; i < kHotRows; ++i) {
    pool.hot.push_back(static_cast<std::uint32_t>(rng.index(pool.n_rows)));
  }
  return pool;
}

/// One request as sent, and what the checks need of its reply.
struct Exchange {
  std::uint64_t id = 0;
  bool explain = false;
  bool verify = false;          ///< re-computed directly after the run
  std::vector<std::uint32_t> rows;
  double latency_ms = 0.0;      ///< from due time (open) / send (closed)
  double lag_ms = 0.0;          ///< send time - due time (open loop)
  std::string error;            ///< transport/status/shape failure
  double base_value = 0.0;
  std::vector<double> values;   ///< kept for explain + verified requests
};

/// A request of the given verb; a repeat explain takes all its rows from
/// the hot set.
Request make_request(const RowPool& pool, Rng& rng, bool explain, bool repeat,
                     Exchange& exchange) {
  Request request;
  request.id = exchange.id;
  request.verb = explain ? Verb::kExplain : Verb::kScore;
  const std::uint32_t n = explain ? kExplainRows : kScoreRows;
  request.n_rows = n;
  request.n_features = static_cast<std::uint32_t>(pool.n_features);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r =
        explain && repeat ? pool.hot[rng.index(pool.hot.size())]
            : static_cast<std::uint32_t>(rng.index(pool.n_rows));
    exchange.rows.push_back(r);
    request.features.insert(request.features.end(), pool.row(r),
                            pool.row(r) + pool.n_features);
  }
  exchange.explain = explain;
  exchange.verify = rng.bernoulli(kVerifyShare);
  return request;
}

void record_reply(const Response& response, Exchange& exchange) {
  const std::size_t n = exchange.rows.size();
  const std::size_t expect =
      exchange.explain ? n * (response.n_features) : n;
  if (response.status != StatusCode::kOk) {
    exchange.error = "status " + std::string(to_string(response.status)) +
                     ": " + response.message;
  } else if (response.id != exchange.id || response.n_rows != n ||
             response.values.size() != expect) {
    exchange.error = "reply id/shape mismatch";
  } else {
    exchange.base_value = response.base_value;
    exchange.values = response.values;
  }
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

obs::JsonValue fetch_stats(const std::string& socket_path) {
  Client client(socket_path);
  Request request;
  request.id = 1;
  request.verb = Verb::kStats;
  const Response response = client.call(request);
  if (response.status != StatusCode::kOk) {
    throw std::runtime_error("stats verb failed: " + response.message);
  }
  return obs::JsonValue::parse(response.text);
}

/// Re-checks every reply after the timed phases: status and shape, finite
/// probabilities in [0,1], SHAP additivity on every explained row, and a
/// seeded sample byte-identical to direct engine calls. Rows are scored and
/// explained independently of batch composition, so one direct batch over
/// all checked rows reproduces every reply exactly.
void verify(const std::vector<Exchange>& exchanges, const RowPool& pool,
            const RandomForestClassifier& forest, RunResult& result) {
  std::vector<float> all_rows, explain_rows;
  std::size_t n_all = 0, n_explain = 0;
  for (const Exchange& ex : exchanges) {
    for (const std::uint32_t r : ex.rows) {
      all_rows.insert(all_rows.end(), pool.row(r), pool.row(r) + pool.n_features);
      ++n_all;
      if (ex.explain && ex.verify && ex.error.empty()) {
        explain_rows.insert(explain_rows.end(), pool.row(r),
                            pool.row(r) + pool.n_features);
        ++n_explain;
      }
    }
  }
  const std::vector<double> probs =
      forest.predict_proba_all(all_rows, n_all, ForestEngine::kAuto);
  const TreeShapExplainer explainer(forest);  // no cache: the reference
  const ShapMatrix direct = explainer.shap_values_batch(explain_rows, n_explain);

  std::size_t next_row = 0, next_explain = 0;
  for (const Exchange& ex : exchanges) {
    const std::size_t n = ex.rows.size();
    const std::size_t first = next_row;
    next_row += n;
    ++result.attempted;
    if (!ex.error.empty()) {
      result.fail("serve request " + std::to_string(ex.id) + ": " + ex.error);
      continue;
    }
    const std::vector<double> expect(probs.begin() + static_cast<long>(first),
                                     probs.begin() + static_cast<long>(first + n));
    if (!ex.explain) {
      if (!probabilities_valid(ex.values)) {
        result.fail("serve score: probability outside [0,1]");
      } else if (ex.verify && std::memcmp(ex.values.data(), expect.data(),
                                          n * sizeof(double)) != 0) {
        result.fail("serve score: reply differs from predict_proba_all");
      }
      continue;
    }
    if (max_additivity_gap(ex.values, pool.n_features, ex.base_value, expect) >
        kAdditivityTolerance) {
      result.fail("serve explain: SHAP additivity gap above 1e-9");
      if (ex.verify) next_explain += n;
      continue;
    }
    if (!ex.verify) continue;
    const double* want = direct.values.data() + next_explain * pool.n_features;
    next_explain += n;
    if (ex.base_value != explainer.base_value() ||
        std::memcmp(want, ex.values.data(), ex.values.size() * sizeof(double)) != 0) {
      result.fail("serve explain: reply differs from shap_values_batch");
    }
  }
}

using Clock = std::chrono::steady_clock;

/// One open-loop phase of `duration_s` at kOpenLoopRate over `clients`,
/// appending its exchanges to `out` in schedule order.
void open_loop(const std::vector<std::unique_ptr<Client>>& clients,
               const RowPool& pool, std::uint64_t seed, double duration_s,
               std::uint64_t& next_id, std::vector<Exchange>& out) {
  const auto n_clients = static_cast<std::uint32_t>(clients.size());
  const std::vector<Arrival> schedule = open_loop_schedule(
      seed, kOpenLoopRate, duration_s, kExplainShare, n_clients);
  // Every kRepeatEvery-th explain of the schedule repeats, so each open
  // loop holds the same share of cache-served requests.
  std::vector<bool> repeat(schedule.size());
  for (std::size_t i = 0, explains = 0; i < schedule.size(); ++i) {
    if (schedule[i].explain) repeat[i] = ++explains % kRepeatEvery == 0;
  }
  const std::size_t first = out.size();
  out.resize(first + schedule.size());
  for (std::size_t i = first; i < out.size(); ++i) out[i].id = next_id++;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < n_clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 1315423911ULL + c);
      for (std::size_t i = c; i < schedule.size(); i += n_clients) {
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(schedule[i].due_s));
        std::this_thread::sleep_until(due);
        Exchange& ex = out[first + i];
        const Request request =
            make_request(pool, rng, schedule[i].explain, repeat[i], ex);
        const Clock::time_point sent = Clock::now();
        try {
          record_reply(clients[c]->call(request), ex);
        } catch (const std::exception& e) {
          ex.error = e.what();
        }
        ex.lag_ms = ms_between(due, sent);
        ex.latency_ms = ms_between(due, Clock::now());
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// One closed-loop phase: every client sends back-to-back until
/// `duration_s` has passed, then finishes its request in flight. Appends
/// the exchanges to `out`; returns the phase's wall time in seconds.
double closed_loop(const std::vector<std::unique_ptr<Client>>& clients,
                   const RowPool& pool, std::uint64_t seed, double duration_s,
                   std::uint64_t& next_id, std::vector<Exchange>& out) {
  std::vector<std::vector<Exchange>> per_client(clients.size());
  std::atomic<std::uint64_t> id{next_id};
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(duration_s));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 2654435761ULL + 17 * c + 5);
      while (Clock::now() < deadline) {
        Exchange ex;
        ex.id = id.fetch_add(1);
        const bool explain = rng.bernoulli(kExplainShare);
        const Request request = make_request(
            pool, rng, explain, rng.bernoulli(1.0 / kRepeatEvery), ex);
        const Clock::time_point sent = Clock::now();
        try {
          record_reply(clients[c]->call(request), ex);
        } catch (const std::exception& e) {
          ex.error = e.what();
        }
        ex.latency_ms = ms_between(sent, Clock::now());
        per_client[c].push_back(std::move(ex));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s = ms_between(t0, Clock::now()) * 1e-3;
  next_id = id.load();
  for (auto& exchanges : per_client) {
    for (Exchange& ex : exchanges) out.push_back(std::move(ex));
  }
  return elapsed_s;
}

/// Scores every pool row through the server in kMapChunkRows-row requests
/// (the served hotspot maps of the row designs), after the timed phases.
/// Each request is an operation; its reply must be byte-identical to a
/// direct predict_proba_all. Returns the served probabilities.
std::vector<double> serve_maps(const std::string& socket_path,
                               const RowPool& pool,
                               const RandomForestClassifier& forest,
                               std::uint64_t first_id, RunResult& result) {
  constexpr std::size_t kMapChunkRows = 1024;
  const std::vector<double> direct =
      forest.predict_proba_all(pool.values, pool.n_rows, ForestEngine::kAuto);
  Client client(socket_path);
  std::vector<double> served;
  for (std::size_t first = 0; first < pool.n_rows; first += kMapChunkRows) {
    const std::size_t n = std::min(kMapChunkRows, pool.n_rows - first);
    Request request;
    request.id = first_id++;
    request.verb = Verb::kScore;
    request.n_rows = static_cast<std::uint32_t>(n);
    request.n_features = static_cast<std::uint32_t>(pool.n_features);
    request.features.assign(pool.row(static_cast<std::uint32_t>(first)),
                            pool.row(static_cast<std::uint32_t>(first)) +
                                n * pool.n_features);
    ++result.attempted;
    const Response response = client.call(request);
    if (response.status != StatusCode::kOk || response.values.size() != n) {
      result.fail("serve map: score request failed: " + response.message);
      served.insert(served.end(), direct.begin() + static_cast<long>(first),
                    direct.begin() + static_cast<long>(first + n));
      continue;
    }
    if (std::memcmp(response.values.data(), direct.data() + first,
                    n * sizeof(double)) != 0) {
      result.fail("serve map: reply differs from predict_proba_all");
    }
    served.insert(served.end(), response.values.begin(), response.values.end());
  }
  return served;
}

}  // namespace

void run_serve(const RunContext& ctx, Tracer& tracer, RunResult& result) {
  const TrainedModel model = train_model(ctx, tracer, result);
  const RowPool pool = build_row_pool(ctx.seed);

  const std::string socket_path = ctx.work_dir + "/serve.sock";
  serve::ServerOptions options;
  options.model_path = model.artifact_path;
  options.socket_path = socket_path;
  const double start_begin = wall_ms();
  serve::Server server(options);
  {
    const auto span = tracer.span("serve.start");
    throw_if_error(server.start());
  }
  const double setup_s = model.setup_s + (wall_ms() - start_begin) * 1e-3;
  std::thread server_thread([&server] { server.run(); });
  // Stop the daemon on every exit path, including a throwing phase.
  struct StopServer {
    serve::Server& server;
    std::thread& thread;
    ~StopServer() {
      server.request_shutdown();
      if (thread.joinable()) thread.join();
    }
  } stop_server{server, server_thread};

  std::vector<Exchange> exchanges;
  std::uint64_t next_id = 100;

  // Warm-up (untimed): builds the explainer's lazy per-tree metadata.
  {
    Client client(socket_path);
    Rng rng(ctx.seed ^ 0xABCDULL);
    for (int i = 0; i < 4; ++i) {
      for (const bool explain : {false, true}) {
        Exchange ex;
        ex.id = next_id++;
        const Request request = make_request(pool, rng, explain, false, ex);
        record_reply(client.call(request), ex);
        exchanges.push_back(std::move(ex));
      }
    }
  }
  const obs::JsonValue stats_before = fetch_stats(socket_path);

  // ---- timed cycles: open loop, then closed loop ----------------------------
  std::vector<std::unique_ptr<Client>> clients;
  for (std::uint32_t c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<Client>(socket_path));
  }
  std::vector<double> cycle_p50_ms, cycle_p75_ms, cycle_rows_per_s;
  std::vector<double> score_ms, lag_ms, all_explain_ms;
  std::size_t n_closed = 0;
  const obs::Snapshot obs_before = obs::snapshot();
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const std::uint64_t seed = ctx.seed * 1000003ULL + static_cast<std::uint64_t>(cycle);
    const std::size_t first_open = exchanges.size();
    {
      const auto span = tracer.span("serve.open_loop");
      open_loop(clients, pool, seed, kOpenShare * ctx.seconds / kCycles,
                next_id, exchanges);
    }
    std::vector<double> explain_ms;
    for (std::size_t i = first_open; i < exchanges.size(); ++i) {
      const Exchange& ex = exchanges[i];
      // A failed request counts as missing every latency limit.
      const double latency = ex.error.empty() ? ex.latency_ms : INFINITY;
      (ex.explain ? explain_ms : score_ms).push_back(latency);
      lag_ms.push_back(ex.lag_ms);
    }
    cycle_p50_ms.push_back(nearest_rank(explain_ms, 50.0));
    cycle_p75_ms.push_back(nearest_rank(explain_ms, 75.0));
    all_explain_ms.insert(all_explain_ms.end(), explain_ms.begin(),
                          explain_ms.end());

    const std::size_t first_closed = exchanges.size();
    double closed_s = 0.0;
    {
      const auto span = tracer.span("serve.closed_loop");
      closed_s = closed_loop(clients, pool, seed,
                             kClosedShare * ctx.seconds / kCycles, next_id,
                             exchanges);
    }
    double explain_rows = 0.0;
    for (std::size_t i = first_closed; i < exchanges.size(); ++i) {
      const Exchange& ex = exchanges[i];
      if (ex.explain && ex.error.empty()) {
        explain_rows += static_cast<double>(ex.rows.size());
      }
    }
    n_closed += exchanges.size() - first_closed;
    cycle_rows_per_s.push_back(explain_rows / closed_s);
  }
  const obs::Snapshot obs_after = obs::snapshot();
  const obs::JsonValue stats_after = fetch_stats(socket_path);
  clients.clear();

  result.layer("serve.explain_p90_ms", nearest_rank(all_explain_ms, 90.0), "ms");
  result.layer("serve.score_p50_ms", nearest_rank(score_ms, 50.0), "ms");
  result.layer("serve.score_p90_ms", nearest_rank(score_ms, 90.0), "ms");
  std::fprintf(stderr,
               "serve: %d cycles; open loop %zu score + %zu explain requests "
               "at %.0f/s, closed loop %zu requests\n",
               kCycles, score_ms.size(), all_explain_ms.size(), kOpenLoopRate,
               n_closed);

  // Per-layer: both phases of every cycle, from obs deltas and the stats
  // verb.
  const auto timer_ms = [&](const char* name) {
    const auto get = [&](const obs::Snapshot& s) {
      const auto it = s.timers.find(name);
      return it == s.timers.end() ? 0.0 : it->second.total_ms();
    };
    return get(obs_after) - get(obs_before);
  };
  const auto stat = [](const obs::JsonValue& doc, const char* section,
                       const char* key) {
    return doc.at(section).at(key).as_number();
  };
  const double batches = stat(stats_after, "batch", "batches") -
                         stat(stats_before, "batch", "batches");
  const double rows =
      stat(stats_after, "requests", "score_rows") +
      stat(stats_after, "requests", "explain_rows") -
      stat(stats_before, "requests", "score_rows") -
      stat(stats_before, "requests", "explain_rows");
  result.layer("serve.batches", batches, "count");
  result.layer("serve.rows_per_batch", Ratio{rows, batches}.value(), "count");
  result.layer("serve.max_queue_depth", stat(stats_after, "queue", "max_depth"),
               "count");
  result.layer("serve.rejected",
               stat(stats_after, "requests", "rejected") -
                   stat(stats_before, "requests", "rejected"),
               "count");
  result.layer("serve.server_explain_p50_ms",
               stats_after.at("latency_ms").at("explain").at("p50_ms").as_number(),
               "ms");
  result.layer("serve.generator_lag_ms", nearest_rank(lag_ms, 100.0), "ms");
  result.layer("forest.predict_ms", timer_ms("forest/predict_all"), "ms");
  result.layer("forest.rows_scored",
               static_cast<double>(counter_delta(obs_before, obs_after,
                                                 "forest/rows_scored")),
               "count");
  result.layer("shap.ms", timer_ms("shap/values_batch"), "ms");
  report_shap_counters(obs_before, obs_after, result);
  result.layer("shap.ms_per_row",
               Ratio{timer_ms("shap/values_batch"),
                     result.per_layer["shap.rows"].value}.value(),
               "ms");

  // Checks run after the timed cycles, on every exchange.
  verify(exchanges, pool, *model.forest, result);

  const std::vector<double> maps =
      serve_maps(socket_path, pool, *model.forest, next_id, result);
  report_end_to_end(result, setup_s, nearest_rank(cycle_p50_ms, 50.0),
                    nearest_rank(cycle_p75_ms, 50.0),
                    nearest_rank(cycle_rows_per_s, 50.0), maps, pool.labels);
}

}  // namespace perfbench
