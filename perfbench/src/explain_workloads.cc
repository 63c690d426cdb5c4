// explain_mut and stream_red: an explain job over a fixed corpus, repeated
// until the run time is spent. Throughput is graphs per job over the
// median CPU seconds of a job; the C1-C3 check and the quality read-out
// run after the timed section.
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/explain/view_io.h"
#include "gvex/obs/obs.h"

namespace perfbench {

using namespace gvex;

namespace {

constexpr size_t kUl = 12;

/// One explain job: returns the views and fills `attempted`/`failed`
/// graph counts and `infeasible`.
struct JobOutcome {
  ExplanationViewSet views;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t infeasible = 0;
};

/// Both view sets serialize (explain/view_io.h) to the same bytes.
bool SameBytes(const ExplanationViewSet& a, const ExplanationViewSet& b) {
  std::ostringstream x, y;
  return WriteViewSet(a, &x).ok() && WriteViewSet(b, &y).ok() &&
         x.str() == y.str();
}

/// Repeats job(n) for n = 0, 1, ... until `seconds` have passed (at least
/// three times). With tracing, the first half of the time runs untraced
/// and the second half traced, so the per-layer read-out covers only
/// traced jobs and the two median CPU times give the tracing overhead. After the
/// timed section job 0 runs once more and must reproduce its views byte
/// for byte (both solvers are deterministic), and the views of the first
/// `quality_jobs` jobs are verified (C1-C3) and their quality averaged.
void RepeatJob(const Options& options, const Corpus& corpus,
               const Configuration& config, size_t quality_jobs,
               const std::function<JobOutcome(size_t)>& job,
               SetupTimer* setup, RunResult* result) {
  std::vector<double> untraced_cpu_s;
  std::vector<double> untraced_wall_s;
  std::vector<double> traced_cpu_s;
  std::vector<ExplanationViewSet> kept;
  uint64_t infeasible = 0;
  uint64_t graphs = 0;
  const double start = NowSeconds();
  for (size_t n = 0;; ++n) {
    const double elapsed = NowSeconds() - start;
    const bool traced = options.trace && elapsed >= options.seconds / 2;
    if (elapsed >= options.seconds && n >= 3 &&
        (!options.trace || traced_cpu_s.size() >= 2)) {
      break;
    }
    setup->Between(elapsed, options.seconds);
    if (traced && !obs::TraceEnabled()) {
      obs::Registry::Global().Reset();
      obs::SetTraceEnabled(true);
    }
    const Stopwatch watch;
    JobOutcome out = [&] {
      GVEX_SPAN("bench.explain_job");
      return job(n);
    }();
    if (traced) {
      traced_cpu_s.push_back(watch.CpuSecondsUsed());
    } else {
      untraced_cpu_s.push_back(watch.CpuSecondsUsed());
      untraced_wall_s.push_back(watch.WallSeconds());
    }
    result->attempted += out.attempted;
    result->failed += out.failed;
    infeasible += out.infeasible;
    graphs += out.attempted;
    if (kept.size() < quality_jobs) kept.push_back(std::move(out.views));
  }
  obs::SetTraceEnabled(false);
  const LayerSnapshot layers = SnapshotLayers();
  setup->Finish(result);

  const double graphs_per_job = static_cast<double>(corpus.db.size());
  const double job_cpu_s = Median(untraced_cpu_s);
  const double job_wall_s = Median(untraced_wall_s);
  result->Add("graphs_per_cpu_s", graphs_per_job / job_cpu_s, "1/s");

  LayerExtras extras;
  extras["wall.graphs_per_s"] = graphs_per_job / job_wall_s;
  extras["explain.infeasible_frac"] = FailFraction(infeasible, graphs);
  if (options.trace) {
    extras["trace.overhead_pct"] =
        (Median(traced_cpu_s) / job_cpu_s - 1.0) * 100.0;
  }

  ++result->attempted;
  if (!SameBytes(kept[0], job(0).views)) {
    ++result->failed;
    result->Mismatch("job 0 run again produced different views");
  }
  Quality mean;
  for (const ExplanationViewSet& views : kept) {
    VerifyViews(views, corpus.db, *corpus.model, config, result);
    const Quality q = MeasureQuality(views, corpus.db, *corpus.model, config);
    const double w = 1.0 / static_cast<double>(kept.size());
    mean.fidelity_plus += w * q.fidelity_plus;
    mean.fidelity_minus += w * q.fidelity_minus;
    mean.sparsity += w * q.sparsity;
    mean.edge_loss += w * q.edge_loss;
  }
  result->Add("fidelity_plus", mean.fidelity_plus, "ratio");
  result->Add("sparsity", mean.sparsity, "ratio");
  extras["quality.fidelity_minus"] = mean.fidelity_minus;
  extras["quality.edge_loss"] = mean.edge_loss;
  Note("jobs: %zu untraced, %zu traced; median job %.1f CPU ms, %.1f wall "
       "ms over %.0f graphs; "
       "%.1f%% infeasible; over %zu jobs' views: fid+ %.4f fid- %.4f "
       "sparsity %.4f edge loss %.4f",
       untraced_cpu_s.size(), traced_cpu_s.size(), job_cpu_s * 1e3,
       job_wall_s * 1e3, graphs_per_job,
       100.0 * extras["explain.infeasible_frac"], kept.size(),
       mean.fidelity_plus, mean.fidelity_minus, mean.sparsity,
       mean.edge_loss);
  if (options.trace) AddLayerMetrics(layers, extras, result);
}

}  // namespace

void RunExplainMut(const Options& options, RunResult* result) {
  const Configuration config = ExplainConfig(kUl);
  SetupTimer setup;
  const Corpus corpus = setup.First<Corpus>([&] {
    return MakeCorpus("MUT", 1.0, options.seed);
  });
  const std::vector<ClassLabel> labels = {0, 1};
  // The job is the same every time: one set of views to check.
  RepeatJob(options, corpus, config, 1, [&](size_t) {
    JobOutcome out;
    ParallelExplainReport report;
    ParallelExplainOptions po;
    po.num_threads = 2;
    po.report = &report;
    Result<ExplanationViewSet> views = ParallelApproxExplain(
        *corpus.model, corpus.db, corpus.assigned, labels, config, po);
    for (const auto& [label, stats] : report.per_view) {
      out.attempted += stats.attempted;
      out.failed += stats.invalid;
      out.infeasible += stats.infeasible;
    }
    if (!views.ok()) {
      out.failed = std::max<uint64_t>(out.failed, 1);
      std::fprintf(stderr, "explain job: %s\n",
                   views.status().ToString().c_str());
      return out;
    }
    out.views = std::move(*views);
    return out;
  }, &setup, result);
}

void RunStreamRed(const Options& options, RunResult* result) {
  const Configuration config = ExplainConfig(kUl);
  // The corpus is fixed and the seed picks the node orders, a new one per
  // job: the RED generator's corpora differ so much between seeds (1 to 56
  // of 60 graphs infeasible for seeds 0-4) that a per-seed corpus would
  // change the job's work by up to 60%, and one order per run still moved
  // throughput by up to 1.7x between seeds. Quality is averaged over the
  // first 8 orders.
  SetupTimer setup;
  const Corpus corpus = setup.First<Corpus>([&] {
    return MakeCorpus("RED", 0.5, 0);
  });
  std::vector<ClassLabel> labels;
  for (size_t l = 0; l < corpus.db.num_classes(); ++l) {
    labels.push_back(static_cast<ClassLabel>(l));
  }
  RepeatJob(options, corpus, config, 8, [&](size_t n) {
    JobOutcome out;
    StreamGvex solver(corpus.model.get(), config);
    Result<ExplanationViewSet> views = solver.Explain(
        corpus.db, corpus.assigned, labels, nullptr,
        options.seed * 1000 + n + 1);
    out.attempted = corpus.db.size();
    out.infeasible = solver.stats().graphs_infeasible;
    if (!views.ok()) {
      out.failed = out.attempted;
      std::fprintf(stderr, "stream job: %s\n",
                   views.status().ToString().c_str());
      return out;
    }
    out.views = std::move(*views);
    return out;
  }, &setup, result);
}

}  // namespace perfbench
