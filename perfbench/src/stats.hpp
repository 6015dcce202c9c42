#pragma once
// Small statistics helpers of the repository benchmark: nearest-rank
// percentiles, ratios that keep their base, and the seeded open-loop
// arrival schedule of the serve workload. Header-only so the unit tests
// (perfbench/tests/test_stats.cpp) exercise exactly what the benchmark runs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// Nearest-rank percentile: the smallest sample x such that at least p% of
/// the samples are <= x (rank ceil(p * n / 100), 1-based). p must lie in
/// (0, 100]; throws std::invalid_argument on an empty sample or a bad p.
inline double nearest_rank(std::vector<double> samples, double p) {
  if (samples.empty()) {
    throw std::invalid_argument("nearest_rank: empty sample");
  }
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("nearest_rank: p outside (0, 100]");
  }
  std::sort(samples.begin(), samples.end());
  // p * n is exact for the integral percentiles used here, so the division
  // by 100 lands exactly on whole ranks (0.9 * 100 would not).
  const double rank = std::ceil(p * static_cast<double>(samples.size()) / 100.0);
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// A share reported together with its base (the number of attempts it is
/// taken over), so a ratio is never read without knowing what it is of.
struct Ratio {
  double numerator = 0.0;
  double base = 0.0;

  /// numerator / base; 0 when nothing was attempted (base 0).
  double value() const { return base > 0.0 ? numerator / base : 0.0; }
};

/// One request of an open-loop run: when it is due (seconds after the start
/// of the phase), which verb it carries and which connection sends it.
struct Arrival {
  double due_s = 0.0;
  bool explain = false;
  std::uint32_t connection = 0;
};

/// A constant-rate schedule: one request every 1 / rate_per_s seconds over
/// [0, duration_s), starting at a seeded phase within the first interval,
/// each request an explain with probability `explain_share`, dealt
/// round-robin over `n_connections`. Deterministic from `seed`; the load a
/// run offers therefore never depends on how fast the server answers.
inline std::vector<Arrival> open_loop_schedule(std::uint64_t seed,
                                               double rate_per_s,
                                               double duration_s,
                                               double explain_share,
                                               std::uint32_t n_connections) {
  if (!(rate_per_s > 0.0) || !(duration_s > 0.0) || n_connections == 0) {
    throw std::invalid_argument("open_loop_schedule: bad rate/duration/connections");
  }
  drcshap::Rng rng(seed);
  const double phase = rng.uniform();
  std::vector<Arrival> schedule;
  for (std::size_t i = 0;; ++i) {
    const double due = (static_cast<double>(i) + phase) / rate_per_s;
    if (due >= duration_s) break;
    Arrival arrival;
    arrival.due_s = due;
    arrival.explain = rng.bernoulli(explain_share);
    arrival.connection = static_cast<std::uint32_t>(i % n_connections);
    schedule.push_back(arrival);
  }
  return schedule;
}

}  // namespace perfbench
