#include "gvex/explain/psum.h"

#include <algorithm>

#include "gvex/common/thread_pool.h"
#include "gvex/matching/match_cache.h"
#include "gvex/matching/vf2.h"
#include "gvex/obs/obs.h"

namespace gvex {

double PatternCoverage::EdgeLoss(const DynamicBitset& covered) const {
  return total_edges == 0
             ? 0.0
             : 1.0 - static_cast<double>(covered.Count()) /
                         static_cast<double>(total_edges);
}

PatternCoverage ComputePatternCoverage(const std::vector<const Graph*>& patterns,
                                       const std::vector<Graph>& subgraphs,
                                       const MatchOptions& match) {
  PatternCoverage cov;
  std::vector<size_t> edge_base(subgraphs.size());
  cov.node_base.resize(subgraphs.size());
  for (size_t i = 0; i < subgraphs.size(); ++i) {
    cov.node_base[i] = cov.total_nodes;
    edge_base[i] = cov.total_edges;
    cov.total_nodes += subgraphs[i].num_nodes();
    cov.total_edges += subgraphs[i].num_edges();
  }
  cov.rows.resize(patterns.size());
  ThreadPool::Shared().ParallelFor(patterns.size(), [&](size_t pi) {
    PatternCoverage::Row& row = cov.rows[pi];
    row.nodes = DynamicBitset(cov.total_nodes);
    row.edges = DynamicBitset(cov.total_edges);
    for (size_t gi = 0; gi < subgraphs.size(); ++gi) {
      CoverageResult local =
          MatchCache::Global().Coverage(*patterns[pi], subgraphs[gi], match);
      for (size_t v : local.covered_nodes.ToVector()) {
        row.nodes.Set(cov.node_base[gi] + v);
      }
      for (size_t e : local.covered_edges.ToVector()) {
        row.edges.Set(edge_base[gi] + e);
      }
    }
    row.weight = cov.EdgeLoss(row.edges);
  });
  return cov;
}

PsumResult Psum(const std::vector<Graph>& subgraphs,
                const Configuration& config) {
  PsumResult result;
  if (subgraphs.empty()) {
    result.full_node_coverage = true;
    return result;
  }
  GVEX_SPAN("psum.summarize");
  GVEX_COUNTER_INC("psum.calls");

  // Mine candidates and compute their global coverage. Structural
  // patterns only (>= 2 nodes): single-type singletons trivially dominate
  // node-coverage-per-weight yet explain nothing; they re-enter solely as
  // the mop-up fallback below.
  PgenOptions pgen = config.pgen;
  pgen.min_pattern_nodes = std::max<size_t>(pgen.min_pattern_nodes, 2);
  std::vector<PatternCandidate> candidates =
      GeneratePatternCandidates(subgraphs, pgen);
  // The candidate x subgraph coverage matrix is the Psum hot loop; its
  // cells recur across labels and stream repair rounds, so they hit the
  // MatchCache, and the greedy selection below stays serial and
  // deterministic.
  std::vector<const Graph*> patterns;
  patterns.reserve(candidates.size());
  for (const PatternCandidate& c : candidates) patterns.push_back(&c.pattern);
  const PatternCoverage coverage =
      ComputePatternCoverage(patterns, subgraphs, config.match);
  const size_t total_nodes = coverage.total_nodes;

  // Greedy weighted set cover: maximize newly covered nodes per unit
  // weight until all nodes are covered or candidates are exhausted.
  DynamicBitset covered_nodes(total_nodes);
  DynamicBitset covered_edges(coverage.total_edges);
  std::vector<bool> selected(candidates.size(), false);
  constexpr double kWeightFloor = 1e-2;  // avoids division by ~0 weights
  while (covered_nodes.Count() < total_nodes) {
    size_t best = static_cast<size_t>(-1);
    double best_ratio = 0.0;
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      if (selected[ci]) continue;
      const PatternCoverage::Row& row = coverage.rows[ci];
      size_t gain = covered_nodes.MarginalCount(row.nodes);
      if (gain == 0) continue;
      // Weighted-set-cover greedy on nodes; newly covered edges join the
      // numerator so that at equal node gain the pattern missing fewer
      // edges wins (the w(P) objective of Lemma 4.3).
      size_t edge_gain = covered_edges.MarginalCount(row.edges);
      double ratio = static_cast<double>(gain + edge_gain) /
                     (row.weight + kWeightFloor);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = ci;
      }
    }
    if (best == static_cast<size_t>(-1)) break;  // nothing useful left
    selected[best] = true;
    covered_nodes.UnionWith(coverage.rows[best].nodes);
    covered_edges.UnionWith(coverage.rows[best].edges);
    result.patterns.push_back(candidates[best].pattern);
  }

  // Mop-up: any node the mined candidates missed (possible when PGen
  // truncates) gets its singleton type pattern, preserving the view
  // invariant that P^l covers all of G_s^l.
  if (covered_nodes.Count() < total_nodes) {
    std::vector<NodeType> singleton_types;
    for (size_t gi = 0; gi < subgraphs.size(); ++gi) {
      for (NodeId v = 0; v < subgraphs[gi].num_nodes(); ++v) {
        const size_t idx = coverage.node_base[gi] + v;
        if (covered_nodes.Test(idx)) continue;
        NodeType t = subgraphs[gi].node_type(v);
        if (std::find(singleton_types.begin(), singleton_types.end(), t) ==
            singleton_types.end()) {
          singleton_types.push_back(t);
          Graph p;
          p.AddNode(t);
          result.patterns.push_back(std::move(p));
        }
        covered_nodes.Set(idx);
      }
    }
  }

  result.full_node_coverage = covered_nodes.Count() == total_nodes;
  result.edge_loss = coverage.EdgeLoss(covered_edges);
  return result;
}

}  // namespace gvex
