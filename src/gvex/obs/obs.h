// gvex::obs — low-overhead observability: trace spans, counters, and
// latency histograms behind a process-wide registry.
//
// Three primitives (see docs/OBSERVABILITY.md for the full model):
//
//   * GVEX_SPAN("vf2.match")           — RAII wall-time span. Recorded into
//     a per-thread buffer only while tracing is on (SetTraceEnabled); the
//     buffered events export as Chrome trace format JSON
//     (chrome://tracing / Perfetto) via WriteChromeTrace.
//   * GVEX_COUNTER_ADD("vf2.steps", n) — monotonic named counter. Sharded
//     per-thread-slot relaxed atomics, merged on read; hot loops should
//     accumulate locally and flush one Add at operation end.
//   * GVEX_LATENCY_US("gnn.forward_us") — RAII latency sample into a named
//     histogram (log2 microsecond buckets, lock-free shards).
//
// Names follow the `subsystem.verb` convention; histogram names carry a
// unit suffix (`_us`, `_depth`).
//
// Cost model: with observability enabled (the default) a disarmed span is
// one relaxed atomic load; a counter add is a load + one sharded relaxed
// fetch_add. SetEnabled(false) turns counters/histograms into a single
// load+branch. The measured budget is <2% on the bench_micro_kernels hot
// kernels.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "gvex/common/result.h"

namespace gvex {
namespace obs {

// ---- runtime switches -------------------------------------------------------

/// Counters/histograms record only while enabled (default: enabled).
bool Enabled();
void SetEnabled(bool on);

/// Spans record only while tracing is enabled (default: disabled — traces
/// are opt-in because buffers grow with the workload).
bool TraceEnabled();
void SetTraceEnabled(bool on);

// ---- clock + thread identity ------------------------------------------------

/// Monotonic microseconds since process start (steady_clock based).
uint64_t NowMicros();

/// Small dense id for the calling thread (1, 2, 3, ... in first-use order).
uint32_t ThreadId();

// ---- counters ---------------------------------------------------------------

/// Monotonic counter. Adds go to one of kShards cache-line-padded relaxed
/// atomics picked by thread id, so concurrent writers do not contend on a
/// single line; Value() merges the shards.
class Counter {
 public:
  static constexpr size_t kShards = 16;

  void Add(uint64_t delta) {
    shards_[ThreadId() % kShards].v.fetch_add(delta,
                                              std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

// ---- histograms -------------------------------------------------------------

/// Merged, read-side view of a histogram. Bucket i counts samples in
/// [2^(i-1), 2^i) (bucket 0 counts zeros), i.e. log2 buckets over the
/// recorded unit (microseconds for `_us` histograms).
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  std::vector<uint64_t> buckets;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper bound of the bucket holding the q-quantile (q in [0,1]),
  /// clamped to [min, max].
  uint64_t Quantile(double q) const;
};

/// Latency/size histogram with the same lock-free sharding as Counter.
class Histogram {
 public:
  static constexpr size_t kShards = 8;
  static constexpr size_t kBuckets = 40;  // 2^40 us ~ 12.7 days

  void Record(uint64_t value);
  HistogramSnapshot Snapshot() const;  // merged over shards; name unset
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> buckets[kBuckets] = {};
  };
  Shard shards_[kShards];
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

// ---- trace events -----------------------------------------------------------

/// One completed span. `name` must point at storage that outlives the
/// registry — the macros pass string literals.
struct TraceEvent {
  const char* name;
  uint32_t tid;
  uint64_t start_us;
  uint64_t dur_us;
};

// ---- registry ---------------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  uint64_t value;
};

/// Process-wide home of every named counter/histogram and the flushed
/// trace buffers. Leaky singleton: instruments handed out stay valid for
/// the process lifetime, so static references cached at macro sites never
/// dangle during shutdown.
class Registry {
 public:
  static Registry& Global();

  /// Find-or-create; the returned reference is stable forever.
  Counter& GetCounter(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Merged snapshots, sorted by name. Zero-valued counters are included
  /// (a zero is information: the path was compiled in but never taken).
  std::vector<CounterSnapshot> Counters() const;
  std::vector<HistogramSnapshot> Histograms() const;

  /// Copy out every recorded span (flushed + still-buffered), ordered by
  /// start time.
  std::vector<TraceEvent> TraceEvents() const;

  /// Zero all counters/histograms and drop buffered spans. For tests and
  /// bench section boundaries.
  void Reset();

  // Internal: per-thread trace buffer management (used by SpanTimer).
  struct ThreadTraceBuffer {
    std::mutex mu;
    std::vector<TraceEvent> events;
  };
  ThreadTraceBuffer& LocalTraceBuffer();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  // Node-based maps: element addresses are stable across inserts.
  std::vector<std::pair<std::string, Counter*>> counters_;
  std::vector<std::pair<std::string, Histogram*>> histograms_;
  std::vector<ThreadTraceBuffer*> trace_buffers_;
};

// ---- RAII helpers behind the macros -----------------------------------------

/// Times a scope and appends a TraceEvent when tracing is on. Inactive
/// construction costs one relaxed load.
class SpanTimer {
 public:
  explicit SpanTimer(const char* name)
      : name_(name), active_(TraceEnabled()) {
    if (active_) start_us_ = NowMicros();
  }
  ~SpanTimer();

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  const char* name_;
  uint64_t start_us_ = 0;
  bool active_;
};

/// Records scope duration (microseconds) into a histogram on destruction.
class LatencyTimer {
 public:
  explicit LatencyTimer(Histogram* hist)
      : hist_(Enabled() ? hist : nullptr) {
    if (hist_ != nullptr) start_us_ = NowMicros();
  }
  ~LatencyTimer() {
    if (hist_ != nullptr) hist_->Record(NowMicros() - start_us_);
  }

  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_us_ = 0;
};

// ---- exporters --------------------------------------------------------------

/// Serialize `events` as Chrome trace format JSON ("X" complete events,
/// ts/dur in microseconds) loadable by chrome://tracing and Perfetto.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

/// Snapshot the registry's spans and atomically write the Chrome trace
/// JSON to `path`. Failpoint: "obs.trace_save".
Status WriteChromeTrace(const std::string& path);

}  // namespace obs
}  // namespace gvex

// ---- macros -----------------------------------------------------------------

#define GVEX_OBS_CONCAT_INNER(a, b) a##b
#define GVEX_OBS_CONCAT(a, b) GVEX_OBS_CONCAT_INNER(a, b)

// Every macro takes a string-literal name (`name ""` rejects anything
// else): a site caches its registry entry in a function-local static, so a
// computed name would bind whichever name the site saw first. Look up
// per-call names with Registry::Global().GetCounter(name) instead.

/// Trace the enclosing scope as a span named `name` (string literal).
#define GVEX_SPAN(name) \
  ::gvex::obs::SpanTimer GVEX_OBS_CONCAT(_gvex_span_, __LINE__)(name "")

/// Add `delta` to the named counter. The registry lookup happens once per
/// call site (cached static reference).
#define GVEX_COUNTER_ADD(name, delta)                        \
  do {                                                       \
    static ::gvex::obs::Counter& _gvex_cnt =                 \
        ::gvex::obs::Registry::Global().GetCounter(name ""); \
    if (::gvex::obs::Enabled())                              \
      _gvex_cnt.Add(static_cast<uint64_t>(delta));           \
  } while (0)

#define GVEX_COUNTER_INC(name) GVEX_COUNTER_ADD(name, 1)

/// Record `value` into the named histogram.
#define GVEX_HISTOGRAM_RECORD(name, value)                     \
  do {                                                         \
    static ::gvex::obs::Histogram& _gvex_hist =                \
        ::gvex::obs::Registry::Global().GetHistogram(name ""); \
    if (::gvex::obs::Enabled())                                \
      _gvex_hist.Record(static_cast<uint64_t>(value));         \
  } while (0)

/// Record the enclosing scope's duration (us) into the named histogram.
/// Expands to two declarations: use inside a braced block.
#define GVEX_LATENCY_US(name)                                      \
  static ::gvex::obs::Histogram& GVEX_OBS_CONCAT(_gvex_lat_hist_,  \
                                                 __LINE__) =       \
      ::gvex::obs::Registry::Global().GetHistogram(name "");       \
  ::gvex::obs::LatencyTimer GVEX_OBS_CONCAT(_gvex_lat_, __LINE__)( \
      &GVEX_OBS_CONCAT(_gvex_lat_hist_, __LINE__))
