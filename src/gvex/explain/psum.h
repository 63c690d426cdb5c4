// Psum: the summarize phase of §4 — compute a set of patterns P^l that
// covers every node of the explanation subgraphs while minimizing the total
// edge-miss weight w(P) = 1 - |P_Es| / |Es| (a greedy weighted set cover,
// H_{u_l}-approximate per Lemma 4.3).
#pragma once

#include <vector>

#include "gvex/common/bitset.h"
#include "gvex/explain/config.h"
#include "gvex/graph/graph.h"
#include "gvex/mining/pgen.h"

namespace gvex {

struct PsumResult {
  std::vector<Graph> patterns;
  /// Fraction of subgraph edges not covered by any selected pattern
  /// ("edge loss", the quantity of Fig. 8(c,d)).
  double edge_loss = 0.0;
  /// Total node-coverage sanity: true iff every subgraph node is covered.
  bool full_node_coverage = false;
};

/// \brief Node and edge coverage of each pattern over a list of subgraphs,
/// flattened into one node index space and one edge index space (subgraph
/// i's nodes start at node_base[i]). Psum and ReducePatterns run their
/// greedy covers over it.
struct PatternCoverage {
  struct Row {
    DynamicBitset nodes;
    DynamicBitset edges;
    double weight = 1.0;  ///< w(P) = 1 - |P_Es| / |Es|
  };
  size_t total_nodes = 0;
  size_t total_edges = 0;
  std::vector<size_t> node_base;
  std::vector<Row> rows;  ///< one per pattern, in input order

  /// Fraction of all subgraph edges outside `covered` (0 when there are
  /// no edges).
  double EdgeLoss(const DynamicBitset& covered) const;
};

/// Fill the pattern x subgraph coverage matrix. Each cell is a full VF2
/// enumeration behind the MatchCache; patterns fan out over the shared
/// pool, each writing only its own row.
PatternCoverage ComputePatternCoverage(const std::vector<const Graph*>& patterns,
                                       const std::vector<Graph>& subgraphs,
                                       const MatchOptions& match);

/// Summarize `subgraphs` into a covering pattern set.
///
/// Candidates come from PGen; any node that no mined candidate covers is
/// mopped up by its singleton type pattern, so full node coverage always
/// holds on return (the defining property of a graph view, §2.1).
PsumResult Psum(const std::vector<Graph>& subgraphs,
                const Configuration& config);

}  // namespace gvex
