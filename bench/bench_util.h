// Shared machinery for the paper-reproduction benches: model training per
// dataset, explainer adapters (GVEX's two algorithms + the four baselines
// behind one interface), time-budgeted sweeps, and table printing.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gvex/baselines/explainer.h"
#include "gvex/baselines/gcf_explainer.h"
#include "gvex/baselines/gnn_explainer.h"
#include "gvex/baselines/gstarx.h"
#include "gvex/baselines/subgraphx.h"
#include "gvex/common/stopwatch.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/approx_gvex.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/gnn/trainer.h"
#include "gvex/metrics/metrics.h"
#include "gvex/obs/report.h"

namespace gvex {
namespace bench {

/// Per-binary perf report: each bench creates one of these at the top of
/// main() and records params/timings as it goes; the destructor writes
/// BENCH_<name>.json into $GVEX_BENCH_DIR (default: cwd). Registry-wide
/// counters and histograms are captured automatically at write time.
/// Emission is best-effort — a failed write warns without changing the
/// bench's exit code (the numbers were already printed to stdout).
class BenchReport {
 public:
  explicit BenchReport(const std::string& name) : name_(name), report_(name) {}

  ~BenchReport() {
    const std::string path = obs::BenchReportPath(name_);
    Status saved = report_.WriteJson(path);
    if (!saved.ok()) {
      std::fprintf(stderr, "warning: bench report %s skipped: %s\n",
                   path.c_str(), saved.ToString().c_str());
    } else {
      std::fprintf(stderr, "bench report -> %s\n", path.c_str());
    }
  }

  template <typename T>
  void SetParam(const std::string& key, T value) {
    report_.SetParam(key, value);
  }

  void AddTiming(const std::string& name, double seconds) {
    report_.AddTiming(name, seconds);
  }

 private:
  std::string name_;
  obs::PerfReport report_;
};

/// A dataset with a trained model and its assigned labels.
struct Workbench {
  std::string code;
  GraphDatabase db;
  GcnClassifier model;
  std::vector<ClassLabel> assigned;
  float test_accuracy = 0.0f;
};

/// Build dataset `code` at `scale` and train a GCN on it.
inline Workbench PrepareWorkbench(const std::string& code, double scale,
                                  size_t hidden = 32, size_t layers = 3,
                                  size_t epochs = 0) {
  if (epochs == 0) {
    // Structure-only datasets converge slower than one-hot molecule data.
    epochs = (code == "MAL" || code == "ENZ" || code == "SYN") ? 300 : 150;
  }
  Workbench wb;
  wb.code = code;
  auto db = datasets::MakeByName(code, scale);
  if (!db.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", code.c_str(),
                 db.status().ToString().c_str());
    std::abort();
  }
  wb.db = std::move(*db);
  GcnConfig mc;
  mc.input_dim = wb.db.feature_dim();
  mc.hidden_dim = hidden;
  mc.num_layers = layers;
  mc.num_classes = wb.db.num_classes();
  auto model = GcnClassifier::Create(mc);
  if (!model.ok()) std::abort();
  wb.model = std::move(*model);
  DataSplit split = SplitDatabase(wb.db, 0.8, 0.1, 42);
  TrainerConfig tc;
  tc.epochs = epochs;
  tc.patience = epochs / 2;
  tc.adam.learning_rate = 5e-3f;
  TrainReport report = Trainer(tc).Fit(&wb.model, wb.db, split);
  wb.test_accuracy = report.test_accuracy;
  wb.assigned = AssignLabels(wb.model, wb.db);
  return wb;
}

/// Uniform result of running one explainer over one label group.
struct ExplainerRun {
  std::string name;
  std::vector<GraphExplanation> explanations;
  ExplanationView view;  // populated for AG/SG only (two-tier output)
  bool has_view = false;
  double seconds = 0.0;
  bool timed_out = false;
};

inline Configuration DefaultConfig(size_t u_l) {
  Configuration config;
  config.theta = 0.08f;
  config.radius = 0.25f;
  config.gamma = 0.5f;
  config.default_coverage = {0, u_l};
  return config;
}

/// Run ApproxGVEX ("AG") over one label group.
inline ExplainerRun RunApprox(const Workbench& wb, ClassLabel label,
                              size_t u_l, double budget_seconds = 0.0) {
  ExplainerRun run;
  run.name = "AG";
  Configuration config = DefaultConfig(u_l);
  ApproxGvex solver(&wb.model, config);
  Deadline deadline(budget_seconds);
  Stopwatch watch;
  auto view = solver.ExplainLabel(wb.db, wb.assigned, label, &deadline);
  run.seconds = watch.ElapsedSeconds();
  if (!view.ok()) {
    run.timed_out = view.status().IsTimeout();
    return run;
  }
  run.view = std::move(*view);
  run.has_view = true;
  run.explanations = ToGraphExplanations(run.view);
  return run;
}

/// Run StreamGVEX ("SG") over one label group.
inline ExplainerRun RunStream(const Workbench& wb, ClassLabel label,
                              size_t u_l, double budget_seconds = 0.0,
                              uint64_t order_seed = 0) {
  ExplainerRun run;
  run.name = "SG";
  Configuration config = DefaultConfig(u_l);
  StreamGvex solver(&wb.model, config);
  Deadline deadline(budget_seconds);
  Stopwatch watch;
  auto view =
      solver.ExplainLabel(wb.db, wb.assigned, label, &deadline, order_seed);
  run.seconds = watch.ElapsedSeconds();
  if (!view.ok()) {
    run.timed_out = view.status().IsTimeout();
    return run;
  }
  run.view = std::move(*view);
  run.has_view = true;
  run.explanations = ToGraphExplanations(run.view);
  return run;
}

/// Run an instance-level baseline over one label group.
inline ExplainerRun RunBaseline(Explainer* explainer, const Workbench& wb,
                                ClassLabel label, size_t u_l,
                                double budget_seconds = 0.0) {
  ExplainerRun run;
  run.name = explainer->name();
  Deadline deadline(budget_seconds);
  Stopwatch watch;
  for (size_t gi : GraphDatabase::LabelGroup(wb.assigned, label)) {
    if (deadline.Expired()) {
      run.timed_out = true;
      break;
    }
    auto nodes = explainer->ExplainGraph(wb.db.graph(gi), label, u_l);
    if (nodes.ok() && !nodes->empty()) {
      run.explanations.push_back({gi, std::move(*nodes)});
    }
  }
  run.seconds = watch.ElapsedSeconds();
  return run;
}

/// Construct the four baselines over a model.
inline std::vector<std::unique_ptr<Explainer>> MakeBaselines(
    const GcnClassifier* model) {
  std::vector<std::unique_ptr<Explainer>> out;
  out.push_back(std::make_unique<GnnExplainer>(model));
  out.push_back(std::make_unique<SubgraphX>(model));
  out.push_back(std::make_unique<GStarX>(model));
  out.push_back(std::make_unique<GcfExplainer>(model));
  return out;
}

/// Run every explainer (AG, SG, GE, SX, GX, GCF) on one label group.
inline std::vector<ExplainerRun> RunAllExplainers(const Workbench& wb,
                                                  ClassLabel label,
                                                  size_t u_l,
                                                  double budget_seconds) {
  std::vector<ExplainerRun> runs;
  runs.push_back(RunApprox(wb, label, u_l, budget_seconds));
  runs.push_back(RunStream(wb, label, u_l, budget_seconds));
  for (auto& b : MakeBaselines(&wb.model)) {
    runs.push_back(RunBaseline(b.get(), wb, label, u_l, budget_seconds));
  }
  return runs;
}

// ---- printing helpers --------------------------------------------------------

inline void PrintHeader(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

}  // namespace bench
}  // namespace gvex
