// Case study 1 (Fig. 10): GNN-based drug design. Compare the explanation
// subgraphs that each explainer selects for one mutagen, and check which
// recover the ground-truth NO2 toxicophore. GVEX additionally answers the
// downstream query "which toxicophore occurs in mutagens?" through its
// queryable pattern tier.
#include <cstdio>

#include "bench/bench_util.h"
#include "gvex/matching/vf2.h"

using namespace gvex;
using namespace gvex::bench;

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
    default:
      return "?";
  }
}

void DescribeSelection(const Graph& g, const std::vector<NodeId>& nodes) {
  std::printf("%zu atoms {", nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::printf("%s%s", i > 0 ? " " : "", AtomName(g.node_type(nodes[i])));
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.5;
  BenchReport bench_report("case_drug");
  bench_report.SetParam("scale", scale);
  Stopwatch total;
  Workbench wb = PrepareWorkbench("MUT", scale);
  Graph nitro = datasets::NitroGroupPattern();
  MatchOptions loose;
  loose.semantics = MatchSemantics::kSubgraph;

  // Pick one mutagen the model classifies as label 1.
  size_t target = static_cast<size_t>(-1);
  for (size_t gi = 0; gi < wb.db.size(); ++gi) {
    if (wb.assigned[gi] == 1) {
      target = gi;
      break;
    }
  }
  if (target == static_cast<size_t>(-1)) {
    std::fprintf(stderr, "no mutagen found\n");
    return 1;
  }
  const Graph& g = wb.db.graph(target);
  std::printf("Case study 1 — explaining mutagen '%s' (%zu atoms, %zu "
              "bonds)\n\n",
              wb.db.name(target).c_str(), g.num_nodes(), g.num_edges());
  std::printf("%-8s%-14s%-40s%s\n", "method", "time(ms)", "selection",
              "contains NO2?");

  auto report = [&](const std::string& name, double ms,
                    const std::vector<NodeId>& nodes) {
    std::printf("%-8s%-14.1f", name.c_str(), ms);
    DescribeSelection(g, nodes);
    Graph sub = g.InducedSubgraph(nodes);
    bool has_nitro = Vf2Matcher::HasMatch(nitro, sub, loose);
    std::printf("  ->  %s\n", has_nitro ? "YES (toxicophore recovered)"
                                        : "no");
  };

  // GVEX (both algorithms).
  {
    Configuration config = DefaultConfig(10);
    ApproxGvex ag(&wb.model, config);
    Stopwatch w;
    auto sub = ag.ExplainGraph(g, target, 1);
    double ms = 1e3 * w.ElapsedSeconds();
    if (sub.ok()) report("AG", ms, sub->nodes);
  }
  {
    Configuration config = DefaultConfig(10);
    StreamGvex sg(&wb.model, config);
    std::vector<Graph> patterns;
    std::unordered_set<std::string> codes;
    Stopwatch w;
    auto sub = sg.ExplainGraphStream(g, target, 1, &patterns, &codes);
    double ms = 1e3 * w.ElapsedSeconds();
    if (sub.ok()) report("SG", ms, sub->nodes);
  }
  for (auto& b : MakeBaselines(&wb.model)) {
    Stopwatch w;
    auto nodes = b->ExplainGraph(g, 1, 10);
    double ms = 1e3 * w.ElapsedSeconds();
    if (nodes.ok()) report(b->name(), ms, *nodes);
  }

  // The queryable tier: run the label-level view and answer the case
  // study's analyst query against the patterns.
  std::printf("\nGVEX view for label 'mutagen': ");
  Configuration config = DefaultConfig(10);
  auto view = ApproxView(wb, 1, config);
  if (view.ok()) {
    std::printf("%zu patterns over %zu subgraphs\n", view->patterns.size(),
                view->subgraphs.size());
    size_t mutagens_with_toxicophore = 0;
    for (const auto& s : view->subgraphs) {
      if (Vf2Matcher::HasMatch(nitro, s.subgraph, loose)) {
        ++mutagens_with_toxicophore;
      }
    }
    std::printf("query 'which mutagens contain the NO2 toxicophore?': "
                "%zu/%zu explanation subgraphs\n",
                mutagens_with_toxicophore, view->subgraphs.size());
    // Print the discovered patterns (types + bonds).
    for (size_t p = 0; p < view->patterns.size(); ++p) {
      const Graph& pat = view->patterns[p];
      std::printf("  P%zu:", p);
      for (NodeId v = 0; v < pat.num_nodes(); ++v) {
        std::printf(" %s", AtomName(pat.node_type(v)));
      }
      std::printf(" |");
      for (NodeId u = 0; u < pat.num_nodes(); ++u) {
        for (const auto& nb : pat.neighbors(u)) {
          if (nb.node < u) continue;
          std::printf(" %u%s%u", u,
                      nb.edge_type == datasets::kDoubleBond ? "=" : "-",
                      nb.node);
        }
      }
      std::printf("\n");
    }
  }
  bench_report.AddTiming("total", total.ElapsedSeconds());
  return 0;
}
