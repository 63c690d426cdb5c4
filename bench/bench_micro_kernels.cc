// Micro-benchmarks (google-benchmark) for the kernels every experiment
// leans on: GCN forward inference, influence analysis, VF2 matching,
// connected-subgraph enumeration, and Psum summarization. The custom
// main() additionally measures the observability overhead (enabled vs
// runtime-disabled macros on the instrumented forward/VF2 kernels) and
// writes BENCH_micro_kernels.json with every kernel timing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "gvex/common/arena.h"
#include "gvex/common/rng.h"
#include "gvex/common/stopwatch.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/psum.h"
#include "gvex/gnn/model.h"
#include "gvex/gnn/quantize.h"
#include "gvex/gnn/serialize.h"
#include "gvex/graph/csr_view.h"
#include "gvex/influence/influence.h"
#include "gvex/matching/match_cache.h"
#include "gvex/matching/vf2.h"
#include "gvex/mining/pgen.h"
#include "gvex/obs/obs.h"
#include "gvex/obs/report.h"
#include "gvex/tensor/ops.h"

namespace gvex {
namespace {

Graph MakeBenchGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(static_cast<NodeType>(rng.NextBounded(4)));
  }
  for (size_t i = 1; i < n; ++i) {
    Status st = g.AddEdge(static_cast<NodeId>(rng.NextBounded(i)),
                          static_cast<NodeId>(i));
    (void)st;
  }
  for (size_t e = 0; e < n; ++e) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u != v && !g.HasEdge(u, v)) {
      Status st = g.AddEdge(u, v);
      (void)st;
    }
  }
  g.SetDefaultFeatures(8, 1.0f);
  return g;
}

GcnClassifier MakeBenchModel() {
  GcnConfig cfg;
  cfg.input_dim = 8;
  cfg.hidden_dim = 64;
  cfg.num_layers = 3;
  cfg.num_classes = 2;
  auto m = GcnClassifier::Create(cfg);
  return std::move(*m);
}

void BM_GcnForward(benchmark::State& state) {
  Graph g = MakeBenchGraph(static_cast<size_t>(state.range(0)), 1);
  GcnClassifier model = MakeBenchModel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_nodes()));
}
BENCHMARK(BM_GcnForward)->Arg(32)->Arg(128)->Arg(512);

void BM_InfluenceBuildRandomWalk(benchmark::State& state) {
  Graph g = MakeBenchGraph(static_cast<size_t>(state.range(0)), 2);
  GcnClassifier model = MakeBenchModel();
  InfluenceOptions opts;
  for (auto _ : state) {
    auto a = InfluenceAnalyzer::Build(model, g, opts);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_InfluenceBuildRandomWalk)->Arg(32)->Arg(128)->Arg(512);

void BM_Vf2InducedMatch(benchmark::State& state) {
  Graph target = MakeBenchGraph(static_cast<size_t>(state.range(0)), 3);
  // 4-node connected pattern sampled from the target itself.
  Graph pattern = target.InducedSubgraph({0, 1, 2, 3});
  if (!pattern.IsConnected()) {
    state.SkipWithError("pattern not connected");
    return;
  }
  MatchOptions opts;
  opts.max_matches = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Vf2Matcher::FindMatches(pattern, target, opts));
  }
}
BENCHMARK(BM_Vf2InducedMatch)->Arg(64)->Arg(256);

void BM_EnumerateConnectedSubgraphs(benchmark::State& state) {
  Graph g = MakeBenchGraph(24, 4);
  for (auto _ : state) {
    size_t count = 0;
    EnumerateConnectedSubgraphs(g, 1, static_cast<size_t>(state.range(0)),
                                50000, [&](const std::vector<NodeId>&) {
                                  ++count;
                                  return true;
                                });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_EnumerateConnectedSubgraphs)->Arg(3)->Arg(4)->Arg(5);

void BM_PsumSummarize(benchmark::State& state) {
  datasets::MutagenicityOptions o;
  o.num_graphs = 8;
  GraphDatabase db = datasets::MakeMutagenicity(o);
  std::vector<Graph> subgraphs;
  for (size_t i = 0; i < db.size(); ++i) {
    std::vector<NodeId> nodes;
    for (NodeId v = 0; v < std::min<size_t>(10, db.graph(i).num_nodes());
         ++v) {
      nodes.push_back(v);
    }
    subgraphs.push_back(db.graph(i).InducedSubgraph(nodes));
  }
  Configuration config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Psum(subgraphs, config));
  }
}
BENCHMARK(BM_PsumSummarize);

void BM_GcnTrainingStep(benchmark::State& state) {
  Graph g = MakeBenchGraph(64, 5);
  GcnClassifier model = MakeBenchModel();
  for (auto _ : state) {
    GcnGradients grads = model.ZeroGradients();
    GcnTrace trace = model.Forward(g);
    float loss = model.BackwardFromLabel(trace, 1, &grads);
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_GcnTrainingStep);

// ---- observability overhead probe ---------------------------------------------
//
// The <2% budget (docs/OBSERVABILITY.md) is verified on the most heavily
// instrumented kernels: GCN forward (counter + latency histogram per
// call) and VF2 matching (span + three counter flushes per run). The
// runtime kill-switch flips obs::SetEnabled inside one binary, so both
// arms execute the exact same code; interleaved A/B rounds cancel drift
// on a busy host.
double MeasureObsOverheadPct(gvex::obs::PerfReport* report) {
  Graph g = MakeBenchGraph(96, 7);
  GcnClassifier model = MakeBenchModel();
  Graph target = MakeBenchGraph(256, 3);
  Graph pattern = target.InducedSubgraph({0, 1, 2, 3});
  MatchOptions opts;
  opts.max_matches = 100;

  auto workload = [&]() {
    benchmark::DoNotOptimize(model.Forward(g));
    benchmark::DoNotOptimize(Vf2Matcher::FindMatches(pattern, target, opts));
  };
  // Warm up caches and the registry's per-site statics.
  for (int i = 0; i < 8; ++i) workload();

  constexpr int kRounds = 10;
  constexpr int kItersPerRound = 30;
  double on_seconds = 0.0;
  double off_seconds = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    for (bool enabled : {true, false}) {
      gvex::obs::SetEnabled(enabled);
      Stopwatch w;
      for (int i = 0; i < kItersPerRound; ++i) workload();
      (enabled ? on_seconds : off_seconds) += w.ElapsedSeconds();
    }
  }
  gvex::obs::SetEnabled(true);

  const double pct =
      off_seconds > 0.0 ? 100.0 * (on_seconds - off_seconds) / off_seconds
                        : 0.0;
  std::printf("\nobservability overhead: enabled %.4fs vs disabled %.4fs "
              "over %d iters -> %+.2f%% (budget: <2%%)\n",
              on_seconds, off_seconds, kRounds * kItersPerRound, pct);
  report->SetParam("obs_overhead_pct", pct);
  report->AddTiming("obs_enabled", on_seconds);
  report->AddTiming("obs_disabled", off_seconds);
  return pct;
}

// ---- optimized-vs-reference speedup probes ----------------------------------
//
// Each probe interleaves A/B rounds of the optimized and the reference
// implementation of one hot kernel and records
// `<kernel>_speedup_vs_reference` (reference seconds / optimized seconds)
// in the PerfReport params. Interleaving cancels host drift, mirroring
// the obs-overhead probe above. The cached-Psum probe runs against
// MatchCache::Global() and the VF2 probe against the instrumented
// matcher, so the registry snapshot embedded in the JSON report carries
// the match_cache.* and vf2.* counters alongside the speedup numbers.

std::pair<double, double> AbRounds(int rounds,
                                   const std::function<void()>& optimized,
                                   const std::function<void()>& reference) {
  optimized();  // warm both arms (caches, lazy statics)
  reference();
  double opt_seconds = 0.0;
  double ref_seconds = 0.0;
  for (int r = 0; r < rounds; ++r) {
    {
      Stopwatch w;
      optimized();
      opt_seconds += w.ElapsedSeconds();
    }
    {
      Stopwatch w;
      reference();
      ref_seconds += w.ElapsedSeconds();
    }
  }
  return {opt_seconds, ref_seconds};
}

double RecordSpeedup(gvex::obs::PerfReport* report, const char* kernel,
                     double opt_seconds, double ref_seconds) {
  const double speedup = opt_seconds > 0.0 ? ref_seconds / opt_seconds : 0.0;
  std::printf("%s: reference %.4fs vs optimized %.4fs -> %.2fx\n", kernel,
              ref_seconds, opt_seconds, speedup);
  report->SetParam(std::string(kernel) + "_speedup_vs_reference", speedup);
  return speedup;
}

// A labeled graph with enough distinct node types that label-bucket root
// selection and the label/degree prefilter have something to prune.
Graph MakeLabeledGraph(size_t n, int num_types, uint64_t seed) {
  Rng rng(seed);
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(static_cast<NodeType>(rng.NextBounded(num_types)));
  }
  for (size_t i = 1; i < n; ++i) {
    Status st = g.AddEdge(static_cast<NodeId>(rng.NextBounded(i)),
                          static_cast<NodeId>(i));
    (void)st;
  }
  for (size_t e = 0; e < 2 * n; ++e) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u != v && !g.HasEdge(u, v)) {
      Status st = g.AddEdge(u, v);
      (void)st;
    }
  }
  return g;
}

double MeasureKernelSpeedups(gvex::obs::PerfReport* report) {
  double best = 0.0;

  // --- indexed VF2 vs the reference matcher -------------------------------
  //
  // The index pays off when the search itself is the cost — exhaustive
  // enumeration of a mid-size pattern in a dense labeled target — not on
  // one-shot capped probes, where the O(target) index build dominates.
  {
    Graph target = MakeLabeledGraph(512, 6, 21);
    Graph pattern;
    for (NodeId v = 0; v + 5 <= target.num_nodes(); ++v) {
      Graph cand = target.InducedSubgraph({v, v + 1, v + 2, v + 3, v + 4});
      if (cand.IsConnected()) {
        pattern = cand;
        break;
      }
    }
    MatchOptions opts;
    opts.semantics = MatchSemantics::kSubgraph;
    auto [opt_s, ref_s] = AbRounds(
        12,
        [&] {
          benchmark::DoNotOptimize(
              Vf2Matcher::FindMatches(pattern, target, opts));
        },
        [&] {
          benchmark::DoNotOptimize(
              Vf2ReferenceMatcher::FindMatches(pattern, target, opts));
        });
    best = std::max(best, RecordSpeedup(report, "vf2_indexed", opt_s, ref_s));
  }

  // --- warm MatchCache coverage vs recomputing (the Psum inner loop) ------
  {
    datasets::MutagenicityOptions o;
    o.num_graphs = 8;
    GraphDatabase db = datasets::MakeMutagenicity(o);
    std::vector<Graph> subgraphs;
    for (size_t i = 0; i < db.size(); ++i) {
      std::vector<NodeId> nodes;
      for (NodeId v = 0; v < std::min<size_t>(18, db.graph(i).num_nodes());
           ++v) {
        nodes.push_back(v);
      }
      subgraphs.push_back(db.graph(i).InducedSubgraph(nodes));
    }
    PgenOptions pgen;
    pgen.min_pattern_nodes = 2;
    pgen.max_pattern_nodes = 5;
    std::vector<PatternCandidate> candidates =
        GeneratePatternCandidates(subgraphs, pgen);
    if (candidates.size() > 16) candidates.resize(16);
    MatchOptions opts;  // defaults: kInduced, exhaustive — cacheable
    auto [opt_s, ref_s] = AbRounds(
        12,
        [&] {
          for (const auto& cand : candidates) {
            for (const Graph& sub : subgraphs) {
              benchmark::DoNotOptimize(
                  MatchCache::Global().Coverage(cand.pattern, sub, opts));
            }
          }
        },
        [&] {
          for (const auto& cand : candidates) {
            for (const Graph& sub : subgraphs) {
              benchmark::DoNotOptimize(
                  ComputeCoverage({cand.pattern}, sub, opts));
            }
          }
        });
    best = std::max(best, RecordSpeedup(report, "psum_cached", opt_s, ref_s));
  }

  // --- blocked/unrolled GEMM vs the naive reference kernel ----------------
  {
    Rng rng(33);
    Matrix a(96, 512);
    Matrix b(512, 256);
    for (size_t i = 0; i < a.size(); ++i) {
      a.data()[i] = static_cast<float>(rng.NextGaussian());
    }
    for (size_t i = 0; i < b.size(); ++i) {
      b.data()[i] = static_cast<float>(rng.NextGaussian());
    }
    auto [opt_s, ref_s] = AbRounds(
        12, [&] { benchmark::DoNotOptimize(MatMul(a, b)); },
        [&] { benchmark::DoNotOptimize(MatMulReference(a, b)); });
    best = std::max(best, RecordSpeedup(report, "gemm_blocked", opt_s, ref_s));
  }

  return best;
}

// ---- compact data plane (arena + CSR + quantization) ------------------------
//
// Three families of params for the memory-regression gate
// (`bench_diff --mem`) and the arena acceptance floors:
//
//  * bytes_per_view_{nested,csr} + the reduction percentage — resident
//    adjacency bytes of the vector-of-vectors Graph layout vs the flat
//    CSR view, on the same 512-node bench graph (capacity-honest on the
//    nested side: headers + allocated slack, what the heap really holds);
//  * model_bytes_{fp32,fp16,int8} — serialized classifier payload sizes;
//  * vf2_arena_vs_heap_speedup — interleaved A/B rounds of the same
//    match workload with the global arena switch on vs off. The off arm
//    routes every CSR view and matcher scratch through operator new, the
//    exact pre-arena behaviour through the same code path, so the ratio
//    is an honest allocation-strategy speedup, not an algorithm change.
//
// peak_rss_kb (VmHWM) rides along so --mem catches gross footprint
// regressions that no per-structure param would attribute.

size_t ReadPeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      size_t kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;  // non-Linux: param reports 0, the gate treats it as absent
}

void MeasureCompactDataPlane(gvex::obs::PerfReport* report) {
  // --- bytes per view: nested adjacency vs flat CSR -----------------------
  {
    Graph g = MakeBenchGraph(512, 11);
    CsrGraphView view(g);
    const size_t nested = NestedAdjacencyBytes(g);
    const size_t csr = view.AdjacencyBytes();
    const double reduction_pct =
        nested > 0 ? 100.0 * (1.0 - static_cast<double>(csr) / nested) : 0.0;
    std::printf("bytes_per_view: nested %zu vs csr %zu -> %.1f%% smaller "
                "(acceptance floor: 30%%)\n",
                nested, csr, reduction_pct);
    report->SetParam("bytes_per_view_nested", static_cast<uint64_t>(nested));
    report->SetParam("bytes_per_view_csr", static_cast<uint64_t>(csr));
    report->SetParam("bytes_per_view_reduction_pct", reduction_pct);
  }

  // --- quantized model payload sizes --------------------------------------
  {
    // Param names end in _bytes so bench_diff --mem gates them.
    GcnClassifier model = MakeBenchModel();
    std::ostringstream fp32;
    if (GcnSerializer::Write(model, &fp32).ok()) {
      report->SetParam("model_fp32_bytes",
                       static_cast<uint64_t>(fp32.str().size()));
    }
    for (WeightPrecision p : {WeightPrecision::kFp16, WeightPrecision::kInt8}) {
      auto qm = QuantizeModel(model, p);
      if (!qm.ok()) continue;
      std::ostringstream out;
      if (WriteQuantizedModel(*qm, &out).ok()) {
        report->SetParam(
            std::string("model_") + WeightPrecisionName(p) + "_bytes",
            static_cast<uint64_t>(out.str().size()));
        std::printf("model_%s_bytes: %zu (fp32: %zu)\n",
                    WeightPrecisionName(p), out.str().size(),
                    fp32.str().size());
      }
    }
  }

  // --- arena vs heap on the small-match workload --------------------------
  //
  // Many small matches over small targets: per-call setup (CSR build,
  // matcher scratch) dominates the search itself, which is exactly the
  // serving profile the request arena exists for.
  {
    std::vector<Graph> targets;
    std::vector<Graph> patterns;
    for (uint64_t seed = 0; seed < 24; ++seed) {
      Graph target = MakeLabeledGraph(12, 4, 100 + seed);
      Graph pattern;
      for (NodeId v = 0; v + 3 <= target.num_nodes(); ++v) {
        Graph cand = target.InducedSubgraph({v, v + 1, v + 2});
        if (cand.IsConnected()) {
          pattern = cand;
          break;
        }
      }
      if (pattern.num_nodes() == 0) continue;
      targets.push_back(std::move(target));
      patterns.push_back(std::move(pattern));
    }
    MatchOptions opts;
    opts.semantics = MatchSemantics::kSubgraph;
    opts.max_matches = 8;  // serving probes are capped, not exhaustive
    auto workload = [&] {
      for (int repeat = 0; repeat < 8; ++repeat) {
        for (size_t i = 0; i < targets.size(); ++i) {
          benchmark::DoNotOptimize(
              Vf2Matcher::FindMatches(patterns[i], targets[i], opts));
        }
      }
    };
    auto [arena_s, heap_s] = AbRounds(
        16,
        [&] {
          gvex::arena::SetEnabled(true);
          workload();
        },
        [&] {
          gvex::arena::SetEnabled(false);
          workload();
        });
    gvex::arena::SetEnabled(true);
    const double speedup = arena_s > 0.0 ? heap_s / arena_s : 0.0;
    std::printf("vf2 small-match arena vs heap: heap %.4fs vs arena %.4fs "
                "-> %.2fx (acceptance floor: 1.3x)\n",
                heap_s, arena_s, speedup);
    report->SetParam("vf2_arena_vs_heap_speedup", speedup);
  }

  report->SetParam("peak_rss_kb", static_cast<uint64_t>(ReadPeakRssKb()));
}

// Console reporter that also captures per-kernel real times for the
// BENCH_micro_kernels.json report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type == Run::RT_Iteration && run.iterations > 0) {
        captured.emplace_back(run.benchmark_name(),
                              run.real_accumulated_time /
                                  static_cast<double>(run.iterations));
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<std::pair<std::string, double>> captured;
};

}  // namespace
}  // namespace gvex

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  gvex::obs::PerfReport report("micro_kernels");
  gvex::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  for (const auto& [name, seconds] : reporter.captured) {
    report.AddTiming(name, seconds);
  }

  double overhead_pct = gvex::MeasureObsOverheadPct(&report);
  double best_speedup = gvex::MeasureKernelSpeedups(&report);
  gvex::MeasureCompactDataPlane(&report);
  std::printf("best optimized-kernel speedup vs reference: %.2fx "
              "(acceptance floor: 2x on at least one probe)\n",
              best_speedup);

  gvex::Status saved =
      report.WriteJson(gvex::obs::BenchReportPath("micro_kernels"));
  if (!saved.ok()) {
    std::fprintf(stderr, "warning: bench report skipped: %s\n",
                 saved.ToString().c_str());
  } else {
    std::fprintf(stderr, "bench report -> %s\n",
                 gvex::obs::BenchReportPath("micro_kernels").c_str());
  }
  benchmark::Shutdown();
  // Single-core CI hosts jitter; flag only an order-of-magnitude breach
  // of the 2% budget as a hard failure.
  return overhead_pct < 20.0 ? 0 : 1;
}
