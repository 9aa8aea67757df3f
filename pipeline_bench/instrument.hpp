// Benchmark-side instrumentation of the pipeline benchmark: span helpers
// over csb::TraceRecorder for the traced reps and a GraphStore decorator
// that times every sink call from outside the generators. Nothing here
// changes what the program does: the decorator forwards each call
// unchanged, so the stored bytes are the same as an undecorated run's
// (csb_pipeline_bench checks the digests agree).
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/memwatch.hpp"
#include "obs/trace.hpp"
#include "store/graph_store.hpp"

namespace pipeline_bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process user+sys CPU seconds (all threads).
inline double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Resets the kernel's VmHWM to the current RSS (Linux clear_refs "5"), so
/// the next peak reading covers only what runs afterwards.
inline void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

inline std::uint64_t peak_rss_bytes() {
  return csb::sample_process_memory().hwm_bytes;
}

/// A span recorded when it closes, under an explicit parent, so it can be
/// taken on any thread (the sink calls come from pool threads). The close
/// reads the clock and records under `order`, which keeps the recorder's
/// completion order monotone in t1, as csb.trace.v1 wants. A null recorder
/// makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(csb::TraceRecorder* trace, std::mutex& order, const char* name,
             std::uint64_t parent)
      : trace_(trace), order_(order) {
    if (trace_ == nullptr) return;
    span_.name = name;
    span_.kind = "phase";
    span_.parent = parent;
    span_.t0 = trace_->now();
  }
  ~ScopedSpan() {
    if (trace_ == nullptr) return;
    const std::lock_guard<std::mutex> lock(order_);
    span_.t1 = trace_->now();
    span_.seconds = span_.t1 - span_.t0;
    trace_->record_span(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  csb::TraceRecorder* trace_;
  std::mutex& order_;
  csb::SpanRecord span_;
};

/// Runs `body` on the calling thread under a phase span (when `trace` is
/// set) and stores its wall time.
template <typename F>
void timed_phase(csb::TraceRecorder* trace, const char* name, double& seconds,
                 F&& body) {
  const csb::PhaseScope phase(trace, name);
  const auto start = Clock::now();
  body();
  seconds = seconds_between(start, Clock::now());
}

/// What the decorator measured over one generate_into call.
struct SinkStats {
  // Timestamps are seconds since the decorator was built, just before
  // generate_into; -1 marks a call that never came.
  double begin_at = -1.0;
  double first_edges = -1.0, last_edges = -1.0;
  double first_props = -1.0, last_props = -1.0;
  std::uint64_t edge_calls = 0, prop_calls = 0;
  double edge_busy_s = 0.0, prop_busy_s = 0.0;
  std::uint64_t edge_bytes = 0, prop_bytes = 0;
  std::vector<std::thread::id> threads;
  double finish_start = 0.0, finish_end = 0.0;
  double cpu_at_start = 0.0, cpu_at_finish = 0.0, cpu_after_finish = 0.0;
  /// VmHWM read just before finish() reset it, and the peak inside finish.
  std::uint64_t peak_before_finish = 0, finish_peak = 0;
};

/// GraphStore decorator: forwards every call unchanged to the wrapped store
/// and records per-call durations, calling threads, first/last timestamps,
/// call counts and the bytes each call hands over (computed from the spans'
/// element sizes). finish() also brackets the call with getrusage and a
/// VmHWM reset, giving the CSR finish its own CPU and peak-RSS figures.
/// With a recorder every call also becomes a span under `parent`.
class TimingStore final : public csb::GraphStore {
 public:
  TimingStore(csb::GraphStore& inner, csb::TraceRecorder* trace,
              std::uint64_t parent)
      : inner_(inner), trace_(trace), parent_(parent) {
    stats_.cpu_at_start = process_cpu_seconds();
  }

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }

  void begin(const csb::StoreHeader& header) override {
    stats_.begin_at = elapsed();
    ScopedSpan span(trace_, mutex_, "store:begin", parent_);
    inner_.begin(header);
  }

  void put_edges(std::uint64_t first_edge,
                 std::span<const csb::VertexId> src,
                 std::span<const csb::VertexId> dst) override {
    const double t0 = elapsed();
    {
      ScopedSpan span(trace_, mutex_, "store:put_edges", parent_);
      inner_.put_edges(first_edge, src, dst);
    }
    record(t0, elapsed(), (src.size() + dst.size()) * sizeof(csb::VertexId),
           /*edges=*/true);
  }

  void put_properties(std::uint64_t first_edge,
                      const csb::PropertyRowsView& rows) override {
    const double t0 = elapsed();
    {
      ScopedSpan span(trace_, mutex_, "store:put_props", parent_);
      inner_.put_properties(first_edge, rows);
    }
    record(t0, elapsed(), rows.size() * kPropertyRowBytes, /*edges=*/false);
  }

  void finish() override {
    stats_.cpu_at_finish = process_cpu_seconds();
    stats_.peak_before_finish = peak_rss_bytes();
    reset_peak_rss();
    stats_.finish_start = elapsed();
    {
      ScopedSpan span(trace_, mutex_, "store:finish", parent_);
      inner_.finish();
    }
    stats_.finish_end = elapsed();
    stats_.cpu_after_finish = process_cpu_seconds();
    stats_.finish_peak = peak_rss_bytes();
  }

  /// Valid once generate_into has returned (no more sink calls).
  [[nodiscard]] const SinkStats& stats() const noexcept { return stats_; }

  /// Seconds since the decorator was built (just before generate_into).
  [[nodiscard]] double elapsed() const {
    return seconds_between(epoch_, Clock::now());
  }

 private:
  /// Bytes of one NetFlow property row across the nine store columns.
  static constexpr std::uint64_t kPropertyRowBytes =
      sizeof(csb::Protocol) + 2 * sizeof(std::uint16_t) +
      sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t) +
      2 * sizeof(std::uint32_t) + sizeof(csb::ConnState);

  void record(double t0, double t1, std::uint64_t bytes, bool edges) {
    const std::lock_guard<std::mutex> lock(mutex_);
    double& first = edges ? stats_.first_edges : stats_.first_props;
    double& last = edges ? stats_.last_edges : stats_.last_props;
    if (first < 0.0 || t0 < first) first = t0;
    last = std::max(last, t1);
    (edges ? stats_.edge_calls : stats_.prop_calls) += 1;
    (edges ? stats_.edge_busy_s : stats_.prop_busy_s) += t1 - t0;
    (edges ? stats_.edge_bytes : stats_.prop_bytes) += bytes;
    const auto self = std::this_thread::get_id();
    if (std::find(stats_.threads.begin(), stats_.threads.end(), self) ==
        stats_.threads.end()) {
      stats_.threads.push_back(self);
    }
  }

  csb::GraphStore& inner_;
  csb::TraceRecorder* trace_;
  std::uint64_t parent_;
  Clock::time_point epoch_ = Clock::now();
  std::mutex mutex_;
  SinkStats stats_;
};

}  // namespace pipeline_bench
