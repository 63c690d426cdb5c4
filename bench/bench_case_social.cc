// Case study 2 (Fig. 11): GNN-based social analysis on the REDDIT-BINARY
// stand-in under three configuration scenarios — explain only the
// online-discussion class, only the question-answer class, or both. The
// paper's finding: discussion threads explain as star-like patterns (P61),
// Q&A threads as biclique-like patterns (P81).
#include <cstdio>

#include "bench/bench_util.h"
#include "gvex/explain/query.h"

using namespace gvex;
using namespace gvex::bench;

namespace {

// Classify a pattern's shape the way the paper describes them.
const char* ShapeOf(const Graph& p) {
  const size_t n = p.num_nodes();
  const size_t m = p.num_edges();
  if (n == 1) return "single-user";
  if (m == n - 1) {
    // Tree: star if one node touches every edge.
    for (NodeId v = 0; v < n; ++v) {
      if (p.degree(v) == n - 1) return n > 2 ? "star" : "edge";
    }
    return "chain/tree";
  }
  if (m == n && n == 4) return "biclique-core(K2,2)";  // C4 == K_{2,2}
  if (m == n && n >= 3) return "cycle";
  // Dense bipartite-ish core: every node degree >= 2 and triangle-free
  // indicates biclique-like structure.
  bool has_triangle = false;
  for (NodeId a = 0; a < n && !has_triangle; ++a) {
    for (const auto& nb : p.neighbors(a)) {
      for (const auto& nb2 : p.neighbors(nb.node)) {
        if (nb2.node != a && p.HasEdge(nb2.node, a)) has_triangle = true;
      }
    }
  }
  if (!has_triangle && m > n - 1) return "biclique-like";
  return "dense";
}

void DescribeView(const ExplanationView& view) {
  std::printf("  label %d: %zu subgraphs, %zu patterns, f=%.2f\n", view.label,
              view.subgraphs.size(), view.patterns.size(),
              view.explainability);
  // Tally pattern shapes (the paper highlights the dominant shape).
  for (size_t p = 0; p < view.patterns.size(); ++p) {
    const Graph& pat = view.patterns[p];
    std::printf("    P%zu: %zu nodes, %zu edges -> %s\n", p,
                pat.num_nodes(), pat.num_edges(), ShapeOf(pat));
  }
}

}  // namespace

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.5;
  BenchReport report("case_social");
  report.SetParam("scale", scale);
  Stopwatch total;
  Workbench wb = PrepareWorkbench("RED", scale);
  std::printf("Case study 2 — social analysis (test acc %.2f, %zu threads)\n",
              wb.test_accuracy, wb.db.size());

  Configuration config = DefaultConfig(12);
  // The analyst wants interaction *motifs*, not single replies: require
  // patterns of at least 4 users (the configurable knob PGen exposes).
  config.pgen.min_pattern_nodes = 4;

  std::printf("\nScenario A: user explains only 'online-discussion' "
              "(label 0)\n");
  auto v0 = ApproxView(wb, 0, config);
  if (v0.ok()) DescribeView(*v0);

  std::printf("\nScenario B: user explains only 'question-answer' "
              "(label 1)\n");
  auto v1 = ApproxView(wb, 1, config);
  if (v1.ok()) DescribeView(*v1);

  std::printf("\nScenario C: user explains both classes\n");
  auto both = ParallelApproxExplain(wb.model, wb.db, wb.assigned, {0, 1},
                                    config, {});
  if (both.ok()) {
    for (const auto& v : both->views) DescribeView(v);
  }

  // The headline check (Fig. 11): the *discriminative* pattern of each
  // class — the substructure occurring in that class's explanations but
  // not the other's (the paper's representativeness notion, cf. P12).
  // Star fragments embed inside bicliques, so coverage alone can rank a
  // star first for Q&A; discrimination is what separates the classes.
  if (v0.ok() && v1.ok() && !v0->subgraphs.empty() &&
      !v1->subgraphs.empty()) {
    MatchOptions loose;
    loose.semantics = MatchSemantics::kSubgraph;
    ViewQuery query(loose);
    // Mine candidates from each class's explanation subgraphs and keep
    // the most frequent one with zero support in the other class: the
    // queryable-tier workflow behind Fig. 11's P61/P81.
    auto pick = [&](const ExplanationView& of, const ExplanationView& other) {
      std::vector<Graph> raw;
      for (const auto& s : of.subgraphs) raw.push_back(s.subgraph);
      PgenOptions pgen = config.pgen;
      pgen.max_candidates = 32;
      // Rank: cyclic structure first (overlapping replies — the essence
      // separating biclique cores from broadcast trees), then support.
      const Graph* best = nullptr;
      bool best_cyclic = false;
      size_t best_support = 0;
      auto candidates = GeneratePatternCandidates(raw, pgen);
      for (const auto& cand : candidates) {
        if (query.Support(other, cand.pattern) > 0) continue;
        size_t support = query.Support(of, cand.pattern);
        if (support == 0) continue;
        bool cyclic = cand.pattern.num_edges() >= cand.pattern.num_nodes();
        if (best == nullptr || (cyclic && !best_cyclic) ||
            (cyclic == best_cyclic && support > best_support)) {
          best_cyclic = cyclic;
          best_support = support;
          best = &cand.pattern;
        }
      }
      return best != nullptr ? *best : of.patterns[0];
    };
    Graph d0 = pick(*v0, *v1);
    Graph d1 = pick(*v1, *v0);
    std::printf("\nheadline (discriminative patterns): discussion = %s, "
                "Q&A = %s\n",
                ShapeOf(d0), ShapeOf(d1));
  }
  report.AddTiming("total", total.ElapsedSeconds());
  return 0;
}
