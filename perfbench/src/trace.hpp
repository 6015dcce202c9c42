#pragma once
// Benchmark-side tracing: spans recorded around each call into a library
// layer, carrying wall time and process CPU time (all threads, via
// CLOCK_PROCESS_CPUTIME_ID, so pool-parallel layers report their real CPU).
// Spans live in memory and are written out once the run ends. A disabled
// tracer records nothing and reads no clock.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in milliseconds.
double wall_ms();
/// CPU time consumed by every thread of this process, in milliseconds.
double process_cpu_ms();

/// Host-wide CPU time from /proc/stat, in clock ticks: `steal` is time the
/// hypervisor ran something else while this VM wanted the CPU. Zeros when
/// /proc/stat is unreadable.
struct HostCpu {
  double steal = 0.0;
  double total = 0.0;
};
HostCpu host_cpu();

struct SpanRecord {
  std::string name;
  std::int64_t parent = -1;    ///< index of the enclosing span, -1 = root
  std::uint64_t request = 0;   ///< spans of one query/edit share this id
  double start_ms = 0.0;
  double end_ms = 0.0;
  double cpu_ms = 0.0;         ///< process CPU consumed inside the span
};

/// Per-name sums over the recorded spans.
struct LayerTotal {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span; nests under the innermost open span of the same thread.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, std::uint64_t request);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
    double cpu_start_ = 0.0;
  };

  Span span(const char* name, std::uint64_t request = 0) {
    return Span(enabled_ ? this : nullptr, name, request);
  }

  /// Sums by span name, over every span or the spans of one request.
  std::map<std::string, LayerTotal> totals(
      std::optional<std::uint64_t> request = std::nullopt) const;

  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
};

}  // namespace perfbench
