// Arithmetic of the end-to-end benchmark, kept free of any gvex type so
// that stats_test.cc can pin it down on hand-made inputs:
//
//   * percentiles from raw samples (never from histogram buckets), and the
//     rule that only a percentile with at least kMinBeyond samples above
//     it is reported;
//   * failure fractions counted against attempts;
//   * per-name self time over nested spans (span duration minus the part
//     of it that its direct children on the same thread cover).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it.
inline constexpr size_t kMinBeyond = 10;

/// Latency recorded for a request that failed or was shed: slower than any
/// answered one, so it misses every latency limit.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// The read latency limit, in ms. A percentile that lands on a failed read
/// reports the larger of this limit and the slowest answered read: finite,
/// so the run still prints its result, and still a miss. The failures
/// themselves are carried by the failure counts.
inline constexpr double kLatencyLimitMs = 100.0;

/// Nearest-rank percentile of `sorted` (ascending), q in (0, 1]: the value
/// at rank ceil(q * n). Returns NaN for an empty sample.
inline double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::nan("");
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - rank;
}

/// The highest of p50/p90/p99/p99.9 that has at least kMinBeyond samples
/// beyond it among n samples; 0 when not even the median qualifies.
inline double TailQuantile(size_t n) {
  double best = 0.0;
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    if (SamplesBeyond(n, q) >= kMinBeyond) best = q;
  }
  return best;
}

/// A percentile together with the evidence behind it.
struct Quantile {
  double q = 0.0;        ///< 0 when the sample is too small to report one
  double value = std::nan("");
  size_t samples = 0;
  size_t beyond = 0;
  bool missed = false;  ///< landed on a failed request (see kLatencyLimitMs)

  bool reported() const { return q > 0.0; }
};

/// The q-percentile of `values` when it has kMinBeyond samples beyond it,
/// else an unreported Quantile carrying the sample count. A percentile
/// that lands on a kMissed sample is clamped as kLatencyLimitMs says.
inline Quantile QuantileOf(std::vector<double> values, double q) {
  Quantile out;
  out.samples = values.size();
  out.beyond = SamplesBeyond(values.size(), q);
  if (values.empty() || out.beyond < kMinBeyond) return out;
  std::sort(values.begin(), values.end());
  out.q = q;
  out.value = PercentileSorted(values, q);
  if (out.value == kMissed) {
    out.missed = true;
    auto answered = std::lower_bound(values.begin(), values.end(), kMissed);
    out.value = answered == values.begin()
                    ? kLatencyLimitMs
                    : std::max(kLatencyLimitMs, *std::prev(answered));
  }
  return out;
}

/// The highest reportable percentile of `values` (see TailQuantile).
inline Quantile TailOf(const std::vector<double>& values) {
  const double q = TailQuantile(values.size());
  if (q == 0.0) {
    Quantile out;
    out.samples = values.size();
    return out;
  }
  return QuantileOf(values, q);
}

/// Plain median (mean of the middle two for an even count); NaN if empty.
/// Used for repeated whole-run measurements such as job times, where the
/// percentile rule does not apply.
inline double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// failed / attempted, 0 when nothing was attempted.
inline double FailFraction(uint64_t failed, uint64_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

// ---- self time over nested spans -------------------------------------------

/// One completed span: the thread it ran on and its [start, start+dur)
/// interval in microseconds.
struct Span {
  std::string name;
  uint32_t tid = 0;
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
};

struct SelfTime {
  uint64_t count = 0;
  uint64_t total_us = 0;  ///< summed span durations
  uint64_t self_us = 0;   ///< summed durations minus direct-child coverage
};

/// Per-name totals. A span's parent is the innermost span on the same
/// thread whose interval contains its start; the part of the child's
/// interval inside the parent is subtracted from the parent's self time.
/// Spans of one thread never partially overlap in a call tree, so
/// subtracting direct children suffices (grandchildren lie inside them).
inline std::map<std::string, SelfTime> SelfTimes(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.dur_us > b.dur_us;  // an enclosing span sorts first
  });
  std::vector<uint64_t> covered(spans.size(), 0);
  std::vector<size_t> stack;  // indices of open spans on the current thread
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0 && spans[i - 1].tid != s.tid) stack.clear();
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (s.start_us < top.start_us + top.dur_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      const Span& parent = spans[stack.back()];
      const uint64_t parent_end = parent.start_us + parent.dur_us;
      const uint64_t end = std::min(s.start_us + s.dur_us, parent_end);
      covered[stack.back()] += end - s.start_us;
    }
    stack.push_back(i);
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SelfTime& t = out[spans[i].name];
    ++t.count;
    t.total_us += spans[i].dur_us;
    t.self_us += spans[i].dur_us - std::min(covered[i], spans[i].dur_us);
  }
  return out;
}

}  // namespace perfbench
