// Quickstart: train a GCN on the synthetic Mutagenicity dataset, generate
// explanation views for the "mutagen" label with both GVEX algorithms, and
// print the two-tier result (patterns + explanation subgraphs).
//
//   ./build/examples/quickstart
#include <cstdio>

#include "gvex/datasets/datasets.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/explain/verifier.h"
#include "gvex/gnn/trainer.h"
#include "gvex/metrics/metrics.h"

using namespace gvex;

namespace {

const char* AtomName(NodeType t) {
  switch (t) {
    case datasets::kCarbon:
      return "C";
    case datasets::kNitrogen:
      return "N";
    case datasets::kOxygen:
      return "O";
    case datasets::kHydrogen:
      return "H";
    case datasets::kChlorine:
      return "Cl";
    case datasets::kSulfur:
      return "S";
    default:
      return "?";
  }
}

void PrintPattern(const Graph& p, size_t index) {
  std::printf("  pattern P%zu: %zu nodes, %zu edges  [", index,
              p.num_nodes(), p.num_edges());
  for (NodeId v = 0; v < p.num_nodes(); ++v) {
    std::printf("%s%s", v > 0 ? " " : "", AtomName(p.node_type(v)));
  }
  std::printf("]  edges:");
  for (NodeId u = 0; u < p.num_nodes(); ++u) {
    for (const auto& nb : p.neighbors(u)) {
      if (nb.node < u) continue;
      std::printf(" %s%u-%u", nb.edge_type == datasets::kDoubleBond ? "=" : "",
                  u, nb.node);
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // 1. Build the graph database (synthetic molecules with planted
  //    toxicophores; see DESIGN.md for the substitution rationale).
  datasets::MutagenicityOptions data_opts;
  data_opts.num_graphs = 80;
  GraphDatabase db = datasets::MakeMutagenicity(data_opts);
  auto stats = db.ComputeStats();
  std::printf("dataset: %zu graphs, avg %.1f nodes / %.1f edges, %zu classes\n",
              stats.num_graphs, stats.avg_nodes, stats.avg_edges,
              stats.num_classes);

  // 2. Train the GNN classifier M (3-layer GCN + max-pool + FC).
  GcnConfig model_cfg;
  model_cfg.input_dim = db.feature_dim();
  model_cfg.hidden_dim = 32;
  model_cfg.num_layers = 3;
  model_cfg.num_classes = db.num_classes();
  auto model = GcnClassifier::Create(model_cfg);
  if (!model.ok()) {
    std::fprintf(stderr, "model: %s\n", model.status().ToString().c_str());
    return 1;
  }
  DataSplit split = SplitDatabase(db, 0.8, 0.1, 42);
  TrainerConfig train_cfg;
  train_cfg.epochs = 120;
  train_cfg.adam.learning_rate = 5e-3f;
  TrainReport report = Trainer(train_cfg).Fit(&*model, db, split);
  std::printf("trained %zu epochs, test accuracy %.2f\n", report.epochs_run,
              report.test_accuracy);

  // 3. Labels assigned by M define the label groups to explain.
  std::vector<ClassLabel> assigned = AssignLabels(*model, db);

  // 4. Configure GVEX: explain the "mutagen" label (1) with at most 12
  //    selected nodes per graph.
  Configuration config;
  config.theta = 0.08f;
  config.radius = 0.25f;
  config.gamma = 0.5f;
  config.default_coverage = {0, 12};

  ParallelExplainOptions options;  // one thread; raise num_threads to fan out
  ParallelExplainReport explain_report;
  options.report = &explain_report;
  auto views = ParallelApproxExplain(*model, db, assigned, /*labels=*/{1},
                                     config, options);
  if (!views.ok()) {
    std::fprintf(stderr, "ApproxGVEX: %s\n",
                 views.status().ToString().c_str());
    return 1;
  }
  const ExplanationView* view = &views->views[0];
  std::printf("\nApproxGVEX %s\n", view->Summary().c_str());
  for (size_t i = 0; i < view->patterns.size(); ++i) {
    PrintPattern(view->patterns[i], i);
  }
  const PerViewBuildStats& counts = explain_report.per_view[1];
  std::printf("  (%zu/%zu graphs explained, %zu infeasible)\n",
              counts.explained, counts.attempted, counts.infeasible);

  // 5. Verify the three view constraints C1-C3 (Lemma 3.1).
  ViewVerification check = VerifyExplanationView(*view, db, *model, config);
  std::printf("  verification: C1=%d C2=%d C3=%d %s\n", check.c1_graph_view,
              check.c2_explanation, check.c3_coverage, check.detail.c_str());

  // 6. Fidelity metrics of the lower tier.
  FidelityReport fid =
      EvaluateFidelity(*model, db, ToGraphExplanations(*view));
  std::printf("  fidelity+ %.3f, fidelity- %.3f, sparsity %.3f (%zu graphs)\n",
              fid.fidelity_plus, fid.fidelity_minus, fid.sparsity,
              fid.num_graphs);

  // 7. The streaming algorithm maintains the same structure one node at a
  //    time (anytime views, 1/4-approximation).
  StreamGvex stream(&*model, config);
  auto stream_view = stream.ExplainLabel(db, assigned, /*l=*/1);
  if (!stream_view.ok()) {
    std::fprintf(stderr, "StreamGVEX: %s\n",
                 stream_view.status().ToString().c_str());
    return 1;
  }
  std::printf("\nStreamGVEX %s\n", stream_view->Summary().c_str());
  std::printf("  (accepts %zu, swaps %zu, skips %zu)\n",
              stream.stats().accepts, stream.stats().swaps,
              stream.stats().skips);
  FidelityReport sfid =
      EvaluateFidelity(*model, db, ToGraphExplanations(*stream_view));
  std::printf("  fidelity+ %.3f, fidelity- %.3f, sparsity %.3f\n",
              sfid.fidelity_plus, sfid.fidelity_minus, sfid.sparsity);
  return 0;
}
