// Drug-discovery walkthrough (the paper's motivating Example 1.1): train a
// mutagenicity classifier, generate explanation views for BOTH labels,
// verify that removing an explanation flips the prediction, and answer
// analyst queries against the queryable pattern tier:
//   "which toxicophores occur in mutagens?"
//   "which nonmutagens contain pattern P?"
//
//   ./build/examples/drug_discovery [num_molecules]
#include <cstdio>
#include <cstdlib>

#include "gvex/datasets/datasets.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/verifier.h"
#include "gvex/gnn/trainer.h"
#include "gvex/matching/vf2.h"

using namespace gvex;

namespace {

const char* AtomName(NodeType t) {
  static const char* kNames[] = {"C", "N", "O", "H", "Cl", "S"};
  return (t >= 0 && t < 6) ? kNames[t] : "?";
}

void PrintMolecule(const Graph& g, const char* indent) {
  std::printf("%satoms:", indent);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::printf(" %u:%s", v, AtomName(g.node_type(v)));
  }
  std::printf("\n%sbonds:", indent);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const auto& nb : g.neighbors(u)) {
      if (nb.node < u) continue;
      std::printf(" %u%s%u", u,
                  nb.edge_type == datasets::kDoubleBond ? "=" : "-", nb.node);
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_molecules = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 120;

  datasets::MutagenicityOptions data_opts;
  data_opts.num_graphs = num_molecules;
  GraphDatabase db = datasets::MakeMutagenicity(data_opts);

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
  std::printf("classifier trained: test accuracy %.2f over %zu molecules\n",
              rep.test_accuracy, db.size());
  std::vector<ClassLabel> assigned = AssignLabels(*model, db);

  Configuration config;
  config.theta = 0.08f;
  config.radius = 0.25f;
  config.default_coverage = {0, 12};

  // Views for both labels — the label-specific property in action.
  auto views = ParallelApproxExplain(*model, db, assigned, {0, 1}, config, {});
  if (!views.ok()) {
    std::fprintf(stderr, "%s\n", views.status().ToString().c_str());
    return 1;
  }
  const ExplanationView* mutagen_view = views->ForLabel(1);
  const ExplanationView* nonmutagen_view = views->ForLabel(0);

  std::printf("\n-- mutagen view: %s\n", mutagen_view->Summary().c_str());
  std::printf("-- nonmutagen view: %s\n", nonmutagen_view->Summary().c_str());

  // Counterfactual demonstration on the first explained mutagen.
  if (!mutagen_view->subgraphs.empty()) {
    const ExplanationSubgraph& s = mutagen_view->subgraphs.front();
    const Graph& g = db.graph(s.graph_index);
    std::printf("\nwhy is '%s' a mutagen? its explanation subgraph:\n",
                db.name(s.graph_index).c_str());
    PrintMolecule(s.subgraph, "  ");
    Graph rest = g.RemoveNodes(s.nodes);
    std::printf("  prediction with subgraph removed: %s (was mutagen)\n",
                model->Predict(rest) == 1 ? "still mutagen" : "NONMUTAGEN");
  }

  // Analyst query 1: which toxicophores occur in mutagens? Search the
  // pattern tier for the known NO2 toxicophore.
  Graph nitro = datasets::NitroGroupPattern();
  MatchOptions loose;
  loose.semantics = MatchSemantics::kSubgraph;
  size_t toxicophore_patterns = 0;
  for (const Graph& p : mutagen_view->patterns) {
    // Either the pattern embeds the full NO2 group or is a fragment of it
    // (fragments arise when coverage already handled part of the group).
    if (Vf2Matcher::HasMatch(nitro, p, loose) ||
        Vf2Matcher::HasMatch(p, nitro, loose)) {
      ++toxicophore_patterns;
    }
  }
  std::printf("\nquery: which mutagen patterns relate to the NO2 "
              "toxicophore? -> %zu/%zu patterns\n",
              toxicophore_patterns, mutagen_view->patterns.size());

  // Analyst query 2: which nonmutagens contain a given mutagen pattern?
  if (!mutagen_view->patterns.empty()) {
    const Graph& probe = mutagen_view->patterns.front();
    size_t hits = 0;
    for (const auto& s : nonmutagen_view->subgraphs) {
      if (Vf2Matcher::HasMatch(probe, s.subgraph, loose)) ++hits;
    }
    std::printf("query: which nonmutagen explanations contain mutagen "
                "pattern P0? -> %zu/%zu\n",
                hits, nonmutagen_view->subgraphs.size());
  }

  // Verification of both views (Lemma 3.1 constraints C1-C3).
  for (const ExplanationView* v : {nonmutagen_view, mutagen_view}) {
    ViewVerification check = VerifyExplanationView(*v, db, *model, config);
    std::printf("label %d verification: %s %s\n", v->label,
                check.ok() ? "PASS" : "FAIL", check.detail.c_str());
  }
  return 0;
}
