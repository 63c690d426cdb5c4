// Social-network analysis (case study 2 of the paper): explain why a GNN
// separates Reddit-style threads into "online discussion" vs
// "question-answer", using configurable per-label coverage constraints —
// the scenario where an analyst asks for more detail on one class than
// the other.
//
//   ./build/examples/social_analysis [num_threads]
#include <cstdio>
#include <cstdlib>

#include "gvex/datasets/datasets.h"
#include "gvex/explain/parallel.h"
#include "gvex/gnn/trainer.h"
#include "gvex/metrics/metrics.h"

using namespace gvex;

namespace {

void DescribePattern(const Graph& p, size_t index) {
  std::printf("    P%zu: %zu users, %zu interactions, degrees [", index,
              p.num_nodes(), p.num_edges());
  for (NodeId v = 0; v < p.num_nodes(); ++v) {
    std::printf("%s%zu", v > 0 ? " " : "", p.degree(v));
  }
  std::printf("]\n");
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_threads = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 60;

  datasets::RedditOptions data_opts;
  data_opts.num_graphs = num_threads;
  GraphDatabase db = datasets::MakeRedditBinary(data_opts);

  GcnConfig mc;
  mc.input_dim = db.feature_dim();
  mc.hidden_dim = 32;
  mc.num_layers = 3;
  mc.num_classes = 2;
  auto model = GcnClassifier::Create(mc);
  if (!model.ok()) return 1;
  DataSplit split = SplitDatabase(db, 0.8, 0.1, 42);
  TrainerConfig tc;
  tc.epochs = 150;
  tc.adam.learning_rate = 5e-3f;
  TrainReport rep = Trainer(tc).Fit(&*model, db, split);
  std::printf("thread classifier: test accuracy %.2f over %zu threads\n",
              rep.test_accuracy, db.size());
  std::vector<ClassLabel> assigned = AssignLabels(*model, db);

  // Configurable coverage: the analyst wants detailed explanations of
  // Q&A threads (up to 16 users) but only a sketch of discussions (6).
  Configuration config;
  config.theta = 0.08f;
  config.radius = 0.25f;
  config.coverage[0] = {0, 6};    // online-discussion: sketch
  config.coverage[1] = {4, 16};   // question-answer: detail, >= 4 users
  config.pgen.min_pattern_nodes = 4;  // interaction motifs, not edges

  auto views = ParallelApproxExplain(*model, db, assigned, {0, 1}, config, {});
  if (!views.ok()) {
    std::fprintf(stderr, "%s\n", views.status().ToString().c_str());
    return 1;
  }

  for (const ExplanationView& view : views->views) {
    const char* name = view.label == 0 ? "online-discussion" : "question-answer";
    std::printf("\n== %s ==\n", name);
    std::printf("  %zu explanation subgraphs, %zu patterns, f = %.2f\n",
                view.subgraphs.size(), view.patterns.size(),
                view.explainability);
    for (size_t p = 0; p < view.patterns.size(); ++p) {
      DescribePattern(view.patterns[p], p);
    }
    // Per-label coverage bound respected.
    size_t max_selected = 0;
    for (const auto& s : view.subgraphs) {
      max_selected = std::max(max_selected, s.nodes.size());
    }
    std::printf("  largest selection: %zu users (bound %zu)\n", max_selected,
                config.ConstraintFor(view.label).upper);
    FidelityReport fid =
        EvaluateFidelity(*model, db, ToGraphExplanations(view));
    std::printf("  fidelity+ %.3f, fidelity- %.3f, sparsity %.3f\n",
                fid.fidelity_plus, fid.fidelity_minus, fid.sparsity);
  }

  std::printf("\ninterpretation: discussion explanations are dominated by "
              "star-shaped reply patterns (one hub, many one-off repliers); "
              "Q&A explanations by biclique cores (few experts answering "
              "many askers) — the paper's Fig. 11 finding.\n");
  return 0;
}
