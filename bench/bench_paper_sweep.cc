// Figs. 5, 6, 8 and 9(a-c) from one explainer grid. Every model is trained
// once, concurrently, before any explainer run is timed (training is
// deterministic per model). Then the six explainers run one at a time,
// once per (dataset, u_l) cell; SYN enters only Fig. 9(c), so it runs at
// u_l = 15 alone. Each figure prints as a section computed from those
// runs, and runs over the budget print as "absent" (">budget" for timings).
//
// BENCH_paper_sweep.json: one `<dataset>.ul<u_l>.<method>` timing per run
// plus `total`; params of those names with a `.fidelity_plus`,
// `.fidelity_minus`, `.sparsity`, `.compression` or `.edge_loss_pct` suffix
// hold the reproduced figures ("absent" where the tables say so).
//
//   bench_paper_sweep [scale]   (default 0.5)
#include <cstdio>
#include <future>
#include <map>
#include <optional>

#include "bench/bench_util.h"

using namespace gvex;
using namespace gvex::bench;

namespace {

constexpr double kBudgetSeconds = 120.0;
const size_t kUls[] = {5, 10, 15, 20};

/// One explainer run and its scores (empty when the run is absent).
struct Scored {
  ExplainerRun run;
  std::optional<FidelityReport> score;
};
using Cell = std::vector<Scored>;  // AG, SG, GE, SX, GX, GCF

struct Dataset {
  Workbench wb;
  std::map<size_t, Cell> cells;  // by u_l
};

std::string RowName(const std::string& code, size_t u_l,
                    const std::string& method) {
  return code + ".ul" + std::to_string(u_l) + "." + method;
}

std::optional<double> Metric(const Scored& s, double FidelityReport::*m) {
  return s.score ? std::optional((*s.score).*m) : std::nullopt;
}

std::optional<double> Seconds(const Scored& s) {
  return s.run.timed_out ? std::nullopt : std::optional(s.run.seconds);
}

/// Prints `format` of `value`, or `absent` right-aligned in `width`.
void PrintCell(std::optional<double> value, const char* format, int width,
               const char* absent = "absent") {
  if (value) {
    std::printf(format, *value);
  } else {
    std::printf("%*s", width, absent);
  }
}

/// Prints one table row: `value` of each of the cell's six runs.
template <typename F>
void PrintRow(const Cell& cell, F value, const char* format,
              const char* absent = "absent") {
  for (const Scored& s : cell) PrintCell(value(s), format, 9, absent);
  std::printf("\n");
}

void PrintScores(const Cell& cell, double FidelityReport::*metric) {
  PrintRow(cell, [metric](const Scored& s) { return Metric(s, metric); },
           "%9.3f");
}

void PrintColumns(const char* key_format, const char* key) {
  std::printf(key_format, key);
  for (const char* method : {"AG", "SG", "GE", "SX", "GX", "GCF"}) {
    std::printf("%9s", method);
  }
  std::printf("\n");
}

void SetMetric(BenchReport* report, const std::string& name,
               std::optional<double> value) {
  if (value) {
    report->SetParam(name, *value);
  } else {
    report->SetParam(name, "absent");
  }
}

/// Prints `f` of the AG and SG views of `cell` (or "absent" where a run
/// produced none) and records each as the run's `suffix` param.
template <typename F>
void EmitViewMetric(BenchReport* report, const std::string& code, size_t u_l,
                    const Cell& cell, const char* suffix, F f,
                    const char* format, int width) {
  for (size_t which : {0u, 1u}) {  // AG, SG
    const Scored& s = cell[which];
    std::optional<double> value;
    if (s.run.has_view && !s.run.view.subgraphs.empty()) value = f(s.run.view);
    PrintCell(value, format, width);
    SetMetric(report, RowName(code, u_l, s.run.name) + suffix, value);
  }
  std::printf("\n");
}

Cell RunCell(const Workbench& wb, size_t u_l, BenchReport* report) {
  Cell cell;
  for (ExplainerRun& run : RunAllExplainers(wb, 1, u_l, kBudgetSeconds)) {
    const std::string row = RowName(wb.code, u_l, run.name);
    report->AddTiming(row, run.seconds);
    Scored s{std::move(run), std::nullopt};
    if (!s.run.timed_out && !s.run.explanations.empty()) {
      s.score = EvaluateFidelity(wb.model, wb.db, s.run.explanations);
    }
    SetMetric(report, row + ".fidelity_plus",
              Metric(s, &FidelityReport::fidelity_plus));
    SetMetric(report, row + ".fidelity_minus",
              Metric(s, &FidelityReport::fidelity_minus));
    SetMetric(report, row + ".sparsity", Metric(s, &FidelityReport::sparsity));
    cell.push_back(std::move(s));
  }
  return cell;
}

/// The Fig. 9(c') workbench: 20 MAL-style call graphs of `n` nodes each.
Workbench PrepareProbeWorkbench(size_t n) {
  datasets::MalnetOptions mo;
  mo.num_graphs = 20;
  mo.min_functions = n;
  mo.max_functions = n;
  Workbench wb;
  wb.code = "MAL" + std::to_string(n);
  wb.db = datasets::MakeMalnet(mo);
  GcnConfig mc;
  mc.input_dim = wb.db.feature_dim();
  mc.hidden_dim = 32;
  mc.num_layers = 3;
  mc.num_classes = wb.db.num_classes();
  wb.model = std::move(*GcnClassifier::Create(mc));
  TrainerConfig tc;
  tc.epochs = 40;  // latency probe; accuracy is irrelevant here
  Trainer(tc).Fit(&wb.model, wb.db, SplitDatabase(wb.db, 0.8, 0.1, 42));
  wb.assigned = AssignLabels(wb.model, wb.db);
  return wb;
}

/// Prints the wall time of `f` in milliseconds.
template <typename F>
void PrintMs(F f) {
  Stopwatch w;
  f();
  std::printf("%9.1f", 1e3 * w.ElapsedSeconds());
}

/// Fig. 9(c'): per-graph latency vs graph size — the regime argument
/// behind the paper's ">24h, absent" cells. Per-graph cost of the
/// sampling-based baselines grows much faster with |V| than GVEX's.
void PrintLatencyProbe(const std::map<size_t, Workbench>& probes) {
  std::printf("\nFig. 9(c') — per-graph explanation latency (ms) vs graph "
              "size (MAL-style call graphs), u_l = 15\n");
  PrintColumns("%-8s", "|V|");
  for (const auto& [n, wb] : probes) {
    std::printf("%-8zu", n);
    // One representative graph per size, each explainer timed on it.
    const size_t gi = 0;
    const Graph& g = wb.db.graph(gi);
    const ClassLabel l = wb.assigned[gi];
    ApproxGvex ag(&wb.model, DefaultConfig(15));
    PrintMs([&] { (void)ag.ExplainGraph(g, gi, l); });
    StreamGvex sg(&wb.model, DefaultConfig(15));
    std::vector<Graph> patterns;
    std::unordered_set<std::string> codes;
    PrintMs([&] { (void)sg.ExplainGraphStream(g, gi, l, &patterns, &codes); });
    for (auto& b : MakeBaselines(&wb.model)) {
      PrintMs([&] { (void)b->ExplainGraph(g, l, 15); });
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.5;

  BenchReport report("paper_sweep");
  report.SetParam("scale", scale);
  report.SetParam("budget_seconds", kBudgetSeconds);
  Stopwatch total;

  const char* const codes[] = {"MUT", "RED", "ENZ", "MAL", "SYN"};
  std::map<std::string, std::future<Workbench>> training;
  for (const char* code : codes) {
    training[code] = std::async(std::launch::async, [code, scale] {
      return PrepareWorkbench(code, scale);
    });
  }
  std::map<size_t, std::future<Workbench>> probe_training;
  for (size_t n : {100, 300, 600, 1000}) {
    probe_training[n] =
        std::async(std::launch::async, PrepareProbeWorkbench, n);
  }
  std::map<std::string, Dataset> grid;
  for (auto& [code, wb] : training) grid[code].wb = wb.get();
  std::map<size_t, Workbench> probes;
  for (auto& [n, wb] : probe_training) probes[n] = wb.get();

  // The grid: every explainer run happens here, once, one at a time.
  for (const char* code : codes) {
    Dataset& d = grid[code];
    for (size_t u_l : kUls) {
      if (d.wb.code != "SYN" || u_l == 15) {
        d.cells[u_l] = RunCell(d.wb, u_l, &report);
      }
    }
  }
  const std::vector<const Dataset*> paper = {&grid["MUT"], &grid["RED"],
                                             &grid["ENZ"], &grid["MAL"]};
  const std::vector<const Dataset*> sweeps = {&grid["MUT"], &grid["ENZ"]};

  const std::pair<const char*, double FidelityReport::*> fidelity_figures[] = {
      {"Fig. 5 — Fidelity+ vs u_l (higher = stronger counterfactual)",
       &FidelityReport::fidelity_plus},
      {"\nFig. 6 — Fidelity- vs u_l (lower = more consistent)",
       &FidelityReport::fidelity_minus}};
  for (const auto& [title, metric] : fidelity_figures) {
    std::printf("%s\n", title);
    for (const Dataset* d : paper) {
      std::printf("\ndataset=%s (test acc %.2f, %zu graphs)\n",
                  d->wb.code.c_str(), d->wb.test_accuracy, d->wb.db.size());
      PrintColumns("%-6s", "u_l");
      for (size_t u_l : kUls) {
        std::printf("%-6zu", u_l);
        PrintScores(d->cells.at(u_l), metric);
      }
    }
  }

  std::printf("\nFig. 8(a) — Sparsity (higher = more concise), u_l = 15\n");
  PrintColumns("%-8s", "dataset");
  for (const Dataset* d : paper) {
    std::printf("%-8s", d->wb.code.c_str());
    PrintScores(d->cells.at(15), &FidelityReport::sparsity);
  }

  std::printf("\nFig. 8(b) — Compression by higher-tier patterns "
              "(1 - |P| / |Gs|), u_l = 15\n");
  std::printf("%-8s%9s%9s\n", "dataset", "AG", "SG");
  for (const Dataset* d : paper) {
    std::printf("%-8s", d->wb.code.c_str());
    EmitViewMetric(
        &report, d->wb.code, 15, d->cells.at(15), ".compression",
        [](const ExplanationView& v) { return v.Compression(); }, "%9.3f", 9);
  }

  std::printf("\nFig. 8(c,d) — edge loss of the pattern tier vs u_l\n");
  std::printf("%-8s%-6s%12s%12s\n", "dataset", "u_l", "AG", "SG");
  for (const Dataset* d : sweeps) {
    for (size_t u_l : kUls) {
      std::printf("%-8s%-6zu", d->wb.code.c_str(), u_l);
      EmitViewMetric(
          &report, d->wb.code, u_l, d->cells.at(u_l), ".edge_loss_pct",
          [](const ExplanationView& v) {
            return 100.0 * ViewEdgeLoss(v, MatchOptions());
          },
          "%11.2f%%", 12);
    }
  }

  std::printf("\nFig. 9(a,b) — running time (seconds) vs u_l\n");
  for (const Dataset* d : sweeps) {
    std::printf("\ndataset=%s (%zu graphs)\n", d->wb.code.c_str(),
                d->wb.db.size());
    PrintColumns("%-6s", "u_l");
    for (size_t u_l : kUls) {
      std::printf("%-6zu", u_l);
      PrintRow(d->cells.at(u_l), Seconds, "%9.2f", ">budget");
    }
  }

  std::printf("\nFig. 9(c) — running time (seconds) across datasets, "
              "u_l = 15\n");
  PrintColumns("%-8s", "dataset");
  for (const char* code : codes) {
    std::printf("%-8s", code);
    PrintRow(grid[code].cells.at(15), Seconds, "%9.2f", ">budget");
  }

  PrintLatencyProbe(probes);
  report.AddTiming("total", total.ElapsedSeconds());
  return 0;
}
