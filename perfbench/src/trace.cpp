#include "trace.hpp"

#include <chrono>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace perfbench {

namespace {
// Innermost open span of the calling thread (index into records_).
thread_local std::int64_t t_open_span = -1;
}  // namespace

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

HostCpu host_cpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  HostCpu cpu;
  if (label != "cpu") return cpu;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  for (int field = 0; field < 8; ++field) {
    double ticks = 0.0;
    if (!(in >> ticks)) return HostCpu{};
    cpu.total += ticks;
    if (field == 7) cpu.steal = ticks;
  }
  return cpu;
}

Tracer::Span::Span(Tracer* tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  SpanRecord record;
  record.name = name;
  record.parent = t_open_span;
  record.request = request;
  cpu_start_ = process_cpu_ms();
  record.start_ms = wall_ms();
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    index_ = static_cast<std::int64_t>(tracer_->records_.size());
    tracer_->records_.push_back(std::move(record));
  }
  saved_parent_ = t_open_span;
  t_open_span = index_;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const double end = wall_ms();
  const double cpu = process_cpu_ms() - cpu_start_;
  t_open_span = saved_parent_;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  SpanRecord& record = tracer_->records_[static_cast<std::size_t>(index_)];
  record.end_ms = end;
  record.cpu_ms = cpu;
}

std::map<std::string, LayerTotal> Tracer::totals(
    std::optional<std::uint64_t> request) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, LayerTotal> out;
  for (const SpanRecord& r : records_) {
    if (request && r.request != *request) continue;
    LayerTotal& t = out[r.name];
    t.wall_ms += r.end_ms - r.start_ms;
    t.cpu_ms += r.cpu_ms;
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& r : records_) {
    drcshap::obs::JsonValue line = drcshap::obs::JsonValue::make_object();
    line["name"] = r.name;
    line["parent"] = r.parent;
    line["request"] = r.request;
    line["start_ms"] = r.start_ms;
    line["end_ms"] = r.end_ms;
    line["cpu_ms"] = r.cpu_ms;
    out << line.dump(0) << '\n';
  }
}

}  // namespace perfbench
