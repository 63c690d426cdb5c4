// Ablations over the design choices DESIGN.md calls out:
//   1. EVerify screening width (everify_top_k) — paper's written VpExtend
//      verifies every candidate; we screen the top-K by f-gain.
//   2. counterfactual_bonus — the EVerify-guided ranking vs pure f-greedy.
//   3. influence backend — exact realized-gate Jacobian vs the
//      random-walk surrogate the paper's implementation note uses.
//   4. Psum structural-candidate floor (min_pattern_nodes).
#include <cstdio>

#include "bench/bench_util.h"
#include "gvex/metrics/metrics.h"
#include "gvex/obs/obs.h"

using namespace gvex;
using namespace gvex::bench;

namespace {

void Report(const char* tag, const Workbench& wb, const Configuration& config) {
  const obs::Counter& everify =
      obs::Registry::Global().GetCounter("everify.calls");
  const uint64_t everify_before = everify.Value();
  Stopwatch w;
  auto view = ApproxView(wb, 1, config);
  double secs = w.ElapsedSeconds();
  if (!view.ok() || view->subgraphs.empty()) {
    std::printf("%-36s -> no view\n", tag);
    return;
  }
  FidelityReport fid =
      EvaluateFidelity(wb.model, wb.db, ToGraphExplanations(*view));
  MatchOptions match;
  std::printf(
      "%-36s fid+ %6.3f  fid- %6.3f  f %7.2f  #sub %3zu  #pat %2zu  "
      "edge-loss %5.1f%%  %6.2fs  (EVerify %zu)\n",
      tag, fid.fidelity_plus, fid.fidelity_minus, view->explainability,
      view->subgraphs.size(), view->patterns.size(),
      100.0 * ViewEdgeLoss(*view, match), secs,
      static_cast<size_t>(everify.Value() - everify_before));
}

}  // namespace

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.4;
  BenchReport report("ablation");
  report.SetParam("scale", scale);
  Stopwatch total;
  Workbench wb = PrepareWorkbench("MUT", scale);
  std::printf("Ablations on MUT (test acc %.2f, %zu graphs), label 1, "
              "u_l = 12\n\n",
              wb.test_accuracy, wb.db.size());

  std::printf("1. EVerify screening width (top-K candidates verified per "
              "greedy round):\n");
  for (size_t k : {1, 4, 8, 16}) {
    Configuration config = DefaultConfig(12);
    config.everify_top_k = k;
    char tag[64];
    std::snprintf(tag, sizeof(tag), "  top_k = %zu", k);
    Report(tag, wb, config);
  }

  std::printf("\n2. counterfactual bonus (0 = pure submodular f-greedy):\n");
  for (float bonus : {0.0f, 0.25f, 0.5f, 1.0f}) {
    Configuration config = DefaultConfig(12);
    config.counterfactual_bonus = bonus;
    char tag[64];
    std::snprintf(tag, sizeof(tag), "  bonus = %.2f", bonus);
    Report(tag, wb, config);
  }

  std::printf("\n2b. saliency weight (0 disables the gradient-saliency "
              "screen/ranking; MAL shows its necessity):\n");
  {
    Workbench mal = PrepareWorkbench("MAL", scale);
    for (float w : {0.0f, 0.25f, 0.5f, 1.0f}) {
      Configuration config = DefaultConfig(15);
      config.saliency_weight = w;
      Stopwatch watch;
      auto view = ApproxView(mal, 1, config);
      double secs = watch.ElapsedSeconds();
      if (!view.ok() || view->subgraphs.empty()) {
        std::printf("  saliency_weight = %.2f (MAL)      -> no view\n", w);
        continue;
      }
      FidelityReport fid =
          EvaluateFidelity(mal.model, mal.db, ToGraphExplanations(*view));
      std::printf("  saliency_weight = %.2f (MAL)       fid+ %6.3f  #sub %3zu"
                  "  %6.2fs\n",
                  w, fid.fidelity_plus, view->subgraphs.size(), secs);
    }
  }

  std::printf("\n3. influence backend:\n");
  {
    Configuration config = DefaultConfig(12);
    config.influence_backend = InfluenceBackend::kRandomWalk;
    Report("  random-walk surrogate (paper)", wb, config);
    config.influence_backend = InfluenceBackend::kExactJacobian;
    Report("  exact realized-gate Jacobian", wb, config);
  }

  std::printf("\n4. Psum structural-candidate floor:\n");
  for (size_t min_nodes : {1, 2, 3}) {
    Configuration config = DefaultConfig(12);
    config.pgen.min_pattern_nodes = min_nodes;
    char tag[64];
    std::snprintf(tag, sizeof(tag), "  min_pattern_nodes = %zu", min_nodes);
    Report(tag, wb, config);
  }

  std::printf("\n5. edge-type-aware propagation (paper future work; bond "
              "weights single/double/triple):\n");
  {
    // Retrain with weighted propagation, then compare explanations.
    for (bool weighted : {false, true}) {
      GcnConfig mc;
      mc.input_dim = wb.db.feature_dim();
      mc.hidden_dim = 32;
      mc.num_layers = 3;
      mc.num_classes = wb.db.num_classes();
      if (weighted) mc.edge_type_weights = {1.0f, 1.5f, 2.0f};
      auto model = GcnClassifier::Create(mc);
      DataSplit split = SplitDatabase(wb.db, 0.8, 0.1, 42);
      TrainerConfig tc;
      tc.epochs = 150;
      tc.adam.learning_rate = 5e-3f;
      TrainReport rep = Trainer(tc).Fit(&*model, wb.db, split);
      Workbench wb2;
      wb2.code = wb.code;
      wb2.db = wb.db;
      wb2.model = std::move(*model);
      wb2.assigned = AssignLabels(wb2.model, wb2.db);
      char tag[64];
      std::snprintf(tag, sizeof(tag), "  %s (test acc %.2f)",
                    weighted ? "bond-weighted GCN" : "plain GCN",
                    rep.test_accuracy);
      Report(tag, wb2, DefaultConfig(12));
    }
  }
  report.AddTiming("total", total.ElapsedSeconds());
  return 0;
}
