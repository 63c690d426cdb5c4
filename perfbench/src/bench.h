// Shared pieces of the end-to-end benchmark: run options, the result every
// workload fills, set-up of the trained corpus, and the per-layer read-out
// of the observability registry that already exists in the library.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gvex/explain/config.h"
#include "gvex/explain/view.h"
#include "gvex/gnn/model.h"
#include "gvex/graph/graph_db.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run prints as its last line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Marks the run incorrect and says why on stderr.
  void Mismatch(const std::string& what);
};

/// A generated corpus with a model trained on it and the model's labels.
struct Corpus {
  gvex::GraphDatabase db;
  std::shared_ptr<const gvex::GcnClassifier> model;
  std::vector<gvex::ClassLabel> assigned;
};

/// Generate dataset `code` at `scale` with `seed_offset` and train the
/// fixed GCN on it. Aborts the run on a generator error (exit 1).
Corpus MakeCorpus(const std::string& code, double scale, uint64_t seed_offset);

/// The solver configuration every workload uses (coverage [0, u_l]).
gvex::Configuration ExplainConfig(size_t u_l);

/// Set-ups per run; setup_s is their median.
inline constexpr size_t kSetups = 7;

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Monotonic seconds.
double NowSeconds();

/// CPU seconds this process has used so far, over all its threads (user +
/// system). Time the hypervisor steals and time spent waiting for a core
/// do not count, so on a shared host it moves less than wall time.
double CpuSeconds();

/// Wall and CPU seconds since construction.
class Stopwatch {
 public:
  Stopwatch() : wall_(NowSeconds()), cpu_(CpuSeconds()) {}
  double WallSeconds() const { return NowSeconds() - wall_; }
  double CpuSecondsUsed() const { return CpuSeconds() - cpu_; }

 private:
  double wall_;
  double cpu_;
};

/// The machine's cumulative CPU ticks from /proc/stat: all of them, and
/// those stolen by the hypervisor for other guests.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Quality of a view set against the model's own predictions: fidelity+,
/// fidelity-, sparsity (metrics.h) and the summed pattern edge loss.
struct Quality {
  double fidelity_plus = 0.0;
  double fidelity_minus = 0.0;
  double sparsity = 0.0;
  double edge_loss = 0.0;
};
Quality MeasureQuality(const gvex::ExplanationViewSet& views,
                       const gvex::GraphDatabase& db,
                       const gvex::GcnClassifier& model,
                       const gvex::Configuration& config);

/// Checks every view with the C1-C3 verifier (explain/verifier.h); each
/// failing view is one failed operation and makes the run incorrect.
void VerifyViews(const gvex::ExplanationViewSet& views,
                 const gvex::GraphDatabase& db,
                 const gvex::GcnClassifier& model,
                 const gvex::Configuration& config, RunResult* result);

/// Extra per-layer figures a workload measures itself (read tails, wire
/// overhead, quality details); merged into the per-layer read-out.
using LayerExtras = std::map<std::string, double>;

/// The library's counters, histogram count/sum and per-name span self
/// times, read at the end of a timed section (before the correctness
/// checks add work of their own).
struct LayerSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, uint64_t>> histograms;  ///< count, sum
  std::map<std::string, SelfTime> spans;
};
LayerSnapshot SnapshotLayers();

/// Appends every per-layer metric to `result`. Figures a workload does not
/// exercise read 0.
void AddLayerMetrics(const LayerSnapshot& layers, const LayerExtras& extras,
                     RunResult* result);

/// Pauses the library's counters, histograms and spans for a scope, so the
/// benchmark's own set-up and checks stay out of the per-layer read-out.
class ObsPause {
 public:
  ObsPause();
  ~ObsPause();
  ObsPause(const ObsPause&) = delete;
  ObsPause& operator=(const ObsPause&) = delete;

 private:
  bool enabled_;
  bool trace_;
};

/// Prints a one-line human summary to stdout (not the result line).
void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Workloads. Each fills `result` with the end-to-end metrics (trace off)
// or the per-layer metrics (trace on).
void RunExplainMut(const Options& options, RunResult* result);
void RunStreamRed(const Options& options, RunResult* result);
void RunIngestMix(const Options& options, RunResult* result);

/// Times a workload's set-up kSetups times; setup_s is the median of their
/// CPU seconds. The first set-up runs before the timed section and its
/// result is kept. The others are spread evenly over the timed section,
/// with the library's observability paused, and their results are
/// discarded: setup_s is then measured under the same host load as the
/// rest of the run, not only in its first seconds.
class SetupTimer {
 public:
  /// Runs and times `setup` once and keeps it for the repeats.
  template <typename T>
  T First(std::function<T()> setup) {
    const Stopwatch watch;
    T out = setup();
    Record(watch);
    repeat_ = [this, setup] {
      const Stopwatch watch;
      [[maybe_unused]] T discarded = setup();
      Record(watch);  // tearing `discarded` down is not timed
    };
    return out;
  }

  /// Repeats the set-up if the next slot has come: the k-th repeat is due
  /// after k / kSetups of the timed section's `seconds`.
  void Between(double elapsed, double seconds);

  /// Runs the repeats still owed and adds setup_s to `result`.
  void Finish(RunResult* result);

 private:
  void Repeat();
  void Record(const Stopwatch& watch) {
    cpu_s_.push_back(watch.CpuSecondsUsed());
    wall_s_.push_back(watch.WallSeconds());
  }

  std::function<void()> repeat_;
  std::vector<double> cpu_s_;
  std::vector<double> wall_s_;
};

}  // namespace perfbench
