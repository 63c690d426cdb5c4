#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>

#include "bench.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/verifier.h"
#include "gvex/gnn/trainer.h"
#include "gvex/metrics/metrics.h"
#include "gvex/obs/obs.h"

namespace perfbench {

using namespace gvex;

void RunResult::Mismatch(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "mismatch: %s\n", what.c_str());
}

void Note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

ObsPause::ObsPause() : enabled_(obs::Enabled()), trace_(obs::TraceEnabled()) {
  obs::SetEnabled(false);
  obs::SetTraceEnabled(false);
}

ObsPause::~ObsPause() {
  obs::SetEnabled(enabled_);
  obs::SetTraceEnabled(trace_);
}

void SetupTimer::Between(double elapsed, double seconds) {
  const size_t done = cpu_s_.size();
  if (done < kSetups && elapsed >= seconds * done / kSetups) Repeat();
}

void SetupTimer::Finish(RunResult* result) {
  while (cpu_s_.size() < kSetups) Repeat();
  result->Add("setup_s", Median(cpu_s_), "s");
  std::string each;
  for (size_t i = 0; i < cpu_s_.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %.3f/%.3f", cpu_s_[i], wall_s_[i]);
    each += buf;
  }
  Note("set-ups (CPU/wall s):%s", each.c_str());
}

void SetupTimer::Repeat() {
  ObsPause pause;
  repeat_();
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line
  CpuTicks ticks;
  uint64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

Corpus MakeCorpus(const std::string& code, double scale,
                  uint64_t seed_offset) {
  Result<GraphDatabase> db = datasets::MakeByName(code, scale, seed_offset);
  if (!db.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", code.c_str(),
                 db.status().ToString().c_str());
    std::exit(1);
  }
  Corpus corpus;
  corpus.db = std::move(*db);
  GcnConfig mc;
  mc.input_dim = corpus.db.feature_dim();
  mc.hidden_dim = 32;
  mc.num_layers = 3;
  mc.num_classes = corpus.db.num_classes();
  Result<GcnClassifier> model = GcnClassifier::Create(mc);
  if (!model.ok()) {
    std::fprintf(stderr, "model: %s\n", model.status().ToString().c_str());
    std::exit(1);
  }
  TrainerConfig tc;
  tc.epochs = 40;
  tc.patience = 0;  // fixed epochs: set-up work must not depend on the seed
  tc.adam.learning_rate = 5e-3f;
  Trainer(tc).Fit(&*model, corpus.db, SplitDatabase(corpus.db, 0.8, 0.1, 42));
  corpus.assigned = AssignLabels(*model, corpus.db);
  corpus.model = std::make_shared<const GcnClassifier>(std::move(*model));
  return corpus;
}

Configuration ExplainConfig(size_t u_l) {
  Configuration config;
  config.theta = 0.08f;
  config.radius = 0.25f;
  config.gamma = 0.5f;
  config.default_coverage = {0, u_l};
  return config;
}

Quality MeasureQuality(const ExplanationViewSet& views,
                       const GraphDatabase& db, const GcnClassifier& model,
                       const Configuration& config) {
  Quality q;
  std::vector<GraphExplanation> all;
  for (const ExplanationView& view : views.views) {
    std::vector<GraphExplanation> part = ToGraphExplanations(view);
    all.insert(all.end(), part.begin(), part.end());
    q.edge_loss += ViewEdgeLoss(view, config.match);
  }
  FidelityReport report = EvaluateFidelity(model, db, all);
  q.fidelity_plus = report.fidelity_plus;
  q.fidelity_minus = report.fidelity_minus;
  q.sparsity = report.sparsity;
  return q;
}

void VerifyViews(const ExplanationViewSet& views, const GraphDatabase& db,
                 const GcnClassifier& model, const Configuration& config,
                 RunResult* result) {
  for (const ExplanationView& view : views.views) {
    ++result->attempted;
    ViewVerification check = VerifyExplanationView(view, db, model, config);
    if (!check.ok()) {
      ++result->failed;
      result->Mismatch("view for label " + std::to_string(view.label) +
                       " fails C1-C3: " + check.detail);
    }
  }
}

// ---- per-layer read-out ------------------------------------------------------

namespace {

// Only count and sum are read from histograms: their log2 buckets make
// Quantile() an upper bound, not a percentile.
double Count(const LayerSnapshot& r, const std::string& name) {
  auto it = r.counters.find(name);
  return it == r.counters.end() ? 0.0 : static_cast<double>(it->second);
}
double SumMs(const LayerSnapshot& r, const std::string& name) {
  auto it = r.histograms.find(name);
  return it == r.histograms.end()
             ? 0.0
             : static_cast<double>(it->second.second) / 1e3;
}
double Mean(const LayerSnapshot& r, const std::string& name) {
  auto it = r.histograms.find(name);
  return it == r.histograms.end() || it->second.first == 0
             ? 0.0
             : static_cast<double>(it->second.second) /
                   static_cast<double>(it->second.first);
}
double SpanSelfMs(const LayerSnapshot& r, const std::string& name) {
  auto it = r.spans.find(name);
  return it == r.spans.end() ? 0.0
                             : static_cast<double>(it->second.self_us) / 1e3;
}

// The five read types of the serving mix, as named by the server's
// serve.exec_<type>_us histograms.
const char* const kReadTypes[] = {"support", "contains", "hits",
                                  "discriminative", "classify"};

}  // namespace

LayerSnapshot SnapshotLayers() {
  LayerSnapshot r;
  obs::Registry& global = obs::Registry::Global();
  for (const obs::CounterSnapshot& c : global.Counters()) {
    r.counters[c.name] = c.value;
  }
  for (const obs::HistogramSnapshot& h : global.Histograms()) {
    r.histograms[h.name] = {h.count, h.sum};
  }
  std::vector<Span> spans;
  for (const obs::TraceEvent& e : global.TraceEvents()) {
    spans.push_back({e.name, e.tid, e.start_us, e.dur_us});
  }
  r.spans = SelfTimes(std::move(spans));
  return r;
}

void AddLayerMetrics(const LayerSnapshot& r, const LayerExtras& extras,
                     RunResult* result) {

  // gnn and everify carry histograms, not spans. EVerify runs one forward
  // on G[S] and one on G\S, so the forwards inside it are estimated as
  // 2 x everify.calls at the mean forward time; the rest of its time is
  // building those two graphs.
  const double forward_calls = Count(r, "gnn.forward_calls");
  const double forward_ms = SumMs(r, "gnn.forward_us");
  const double verify_calls = Count(r, "everify.calls");
  const double verify_ms = SumMs(r, "everify.verify_us");
  const double mean_forward_ms =
      forward_calls > 0 ? forward_ms / forward_calls : 0.0;
  const double forwards_in_verify = std::min(forward_calls, 2 * verify_calls);
  const double everify_self_ms =
      std::max(0.0, verify_ms - mean_forward_ms * forwards_in_verify);
  const double forward_outside_verify_ms =
      mean_forward_ms * (forward_calls - forwards_in_verify);

  // Solver spans enclose every EVerify and every solver-side forward; take
  // that histogram time out of them, split by their raw self time.
  const double approx_raw = SpanSelfMs(r, "approx.explain_graph");
  const double stream_raw = SpanSelfMs(r, "stream.explain_graph");
  const double solver_raw = approx_raw + stream_raw;
  const double inside_ms = verify_ms + forward_outside_verify_ms;
  auto solver_self = [&](double raw) {
    return solver_raw > 0 ? std::max(0.0, raw - inside_ms * raw / solver_raw)
                          : 0.0;
  };

  const double hits = Count(r, "match_cache.hits");
  const double misses = Count(r, "match_cache.misses");

  auto add = [&](const std::string& name, double value,
                 const std::string& unit) { result->Add(name, value, unit); };
  add("gnn.forward_calls", forward_calls, "count");
  add("gnn.forward_busy_ms", forward_ms, "ms");
  add("everify.calls", verify_calls, "count");
  add("everify.self_ms", everify_self_ms, "ms");
  add("approx.explain_graph.self_ms", solver_self(approx_raw), "ms");
  add("stream.explain_graph.self_ms", solver_self(stream_raw), "ms");
  add("stream.nodes", Count(r, "stream.nodes"), "count");
  add("stream.skips", Count(r, "stream.skips"), "count");
  add("pgen.calls", Count(r, "pgen.calls"), "count");
  add("pgen.enumerated", Count(r, "pgen.enumerated"), "count");
  add("pgen.busy_ms", SpanSelfMs(r, "pgen.generate"), "ms");
  add("psum.busy_ms", SpanSelfMs(r, "psum.summarize"), "ms");
  add("influence.builds", Count(r, "influence.builds"), "count");
  add("influence.build_busy_ms", SumMs(r, "influence.build_us"), "ms");
  add("vf2.calls", Count(r, "vf2.calls"), "count");
  add("vf2.busy_ms", SpanSelfMs(r, "vf2.match"), "ms");
  add("match_cache.hit_ratio",
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  add("serve.queue_wait_us_mean", Mean(r, "serve.queue_wait_us"), "us");
  add("serve.batch_size_mean", Mean(r, "serve.batch_size"), "count");
  for (const char* type : kReadTypes) {
    add(std::string("serve.exec_") + type + "_us_mean",
        Mean(r, std::string("serve.exec_") + type + "_us"), "us");
  }
  add("serve.shed", Count(r, "serve.shed"), "count");
  add("serve.deadline_miss", Count(r, "serve.deadline_miss"), "count");
  add("pool.tasks", Count(r, "pool.tasks"), "count");
  add("pool.queue_depth_mean", Mean(r, "pool.queue_depth"), "count");
  add("ingest.feed_busy_ms", SumMs(r, "ingest.feed_us"), "ms");
  add("ingest.checkpoint_busy_ms", SumMs(r, "ingest.checkpoint_us"), "ms");
  add("ingest.journal_append_busy_ms", SumMs(r, "ingest.journal_append_us"),
      "ms");
  add("ingest.publishes", Count(r, "ingest.publishes"), "count");

  // The benchmark's own spans (prefix "bench.") time each public call it
  // makes; their self time is what the client side itself spends.
  double bench_self_ms = 0.0;
  double bench_calls = 0.0;
  for (const auto& [name, t] : r.spans) {
    if (name.rfind("bench.", 0) != 0) continue;
    bench_self_ms += static_cast<double>(t.self_us) / 1e3;
    bench_calls += static_cast<double>(t.count);
  }
  add("bench.calls", bench_calls, "count");
  add("bench.self_ms", bench_self_ms, "ms");

  // Figures the workload measured itself; absent ones read 0.
  for (const auto& [name, unit] : std::vector<std::pair<std::string, std::string>>{
           {"wire.overhead_us.support", "us"},
           {"wire.overhead_us.contains", "us"},
           {"wire.overhead_us.hits", "us"},
           {"wire.overhead_us.discriminative", "us"},
           {"wire.overhead_us.classify", "us"},
           {"wire.encode_us", "us"},
           {"wire.decode_us", "us"},
           {"wall.graphs_per_s", "1/s"},
           {"read.p50_ms", "ms"},
           {"read.p99_ms", "ms"},
           {"read.p99_samples", "count"},
           {"read.fail_frac", "ratio"},
           {"read.generator_late_p99_ms", "ms"},
           {"read.closed_loop_per_s", "1/s"},
           {"ingest.fail_frac", "ratio"},
           {"explain.infeasible_frac", "ratio"},
           {"quality.fidelity_minus", "ratio"},
           {"quality.edge_loss", "ratio"},
           {"trace.overhead_pct", "pct"},
       }) {
    auto it = extras.find(name);
    add(name, it == extras.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench
