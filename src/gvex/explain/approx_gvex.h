// ApproxGVEX (Algorithm 1): the "explain-and-summarize" 1/2-approximation.
//
// Explain phase: greedy marginal-gain selection of nodes V_S under the
// coverage constraint [b_l, u_l], with candidates screened by VpExtend
// (Procedure 2) — EVerify checks of the consistency/counterfactual
// constraint C2 plus the size bound.
//
// As written in the paper, VpExtend accepts a candidate only when the
// extended subgraph already satisfies C2; taken literally this cannot
// bootstrap from the empty set (a one-node subgraph is rarely consistent
// and its removal rarely flips the label). We therefore implement the
// procedure the way the cost model of §4 implies it must behave: every
// screened candidate is EVerify'd, and while C2 does not yet hold the
// verifier's class probabilities act as progress signals — the greedy
// rank is the submodular gain in f (which preserves the 1/2-approximation
// argument) plus a small configurable bonus toward consistency and
// counterfactuality. Once C2 holds, candidates that would break it are
// rejected, exactly as Procedure 2 prescribes.
//
// Summarize phase: Psum over the label group's explanation subgraphs.
// ParallelApproxExplain (parallel.h) is the one driver: it runs
// ExplainGraph over every graph of each label group, then Psum per label.
#pragma once

#include "gvex/common/result.h"
#include "gvex/explain/config.h"
#include "gvex/explain/everify.h"
#include "gvex/explain/view.h"
#include "gvex/gnn/model.h"
#include "gvex/graph/graph.h"

namespace gvex {

/// \brief The per-graph explain step of ApproxGVEX.
class ApproxGvex {
 public:
  ApproxGvex(const GcnClassifier* model, Configuration config)
      : model_(model), verifier_(model), config_(std::move(config)) {}

  const Configuration& config() const { return config_; }

  /// Explain a single graph w.r.t. label l (the body of Algorithm 1).
  /// Returns kInfeasible when no node set within [b_l, u_l] satisfies C2.
  Result<ExplanationSubgraph> ExplainGraph(const Graph& g, size_t graph_index,
                                           ClassLabel l) const;

 private:
  const GcnClassifier* model_;
  EVerify verifier_;
  Configuration config_;
};

}  // namespace gvex
