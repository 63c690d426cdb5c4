// EVerify: the GNN-inference verifier of §4 checking constraint C2 — an
// explanation subgraph must be *consistent* (M(G_s) = l) and
// *counterfactual* (M(G \ G_s) != l).
#pragma once

#include <vector>

#include "gvex/gnn/model.h"
#include "gvex/graph/graph.h"

namespace gvex {

/// \brief Result of one C2 verification, with the class probabilities that
/// the greedy candidate ranking uses as progress signals.
struct EVerifyResult {
  bool consistent = false;       ///< M(G_s) == l
  bool counterfactual = false;   ///< M(G \ G_s) != l
  float prob_subgraph = 0.0f;    ///< P(M(G_s) = l)
  float prob_remainder = 0.0f;   ///< P(M(G \ G_s) = l)

  bool IsExplanation() const { return consistent && counterfactual; }
};

/// \brief Stateless verifier bound to a fixed model M.
class EVerify {
 public:
  explicit EVerify(const GcnClassifier* model) : model_(model) {}

  /// Verify the node set `nodes` of `g` as an explanation for label `l`.
  /// An empty node set is never an explanation; removing all of `g` makes
  /// the remainder unclassifiable (kNoLabel), which satisfies the
  /// counterfactual clause per the footnote-1 semantics.
  EVerifyResult Verify(const Graph& g, const std::vector<NodeId>& nodes,
                       ClassLabel l) const;

  const GcnClassifier& model() const { return *model_; }

 private:
  const GcnClassifier* model_;
};

/// \brief Gradient saliency of every node of `g` for label `l`: the L1 norm
/// of the node's row of d logit_l / dX, a first-order estimate of how much
/// removing the node moves the class logit. Both GVEX solvers use it to
/// probe label-critical nodes that the influence gain alone would miss.
struct GradientSaliency {
  GradientSaliency(const GcnClassifier& model, const Graph& g, ClassLabel l);

  /// Saliency scaled so the largest is 1 (0 when every node has 0).
  float Normalized(NodeId v) const { return raw[v] * inv_max; }

  /// Strict order: more salient first, ties by smaller node id.
  bool MoreSalient(NodeId a, NodeId b) const {
    if (raw[a] != raw[b]) return raw[a] > raw[b];
    return a < b;
  }

  std::vector<float> raw;
  float inv_max = 0.0f;
};

}  // namespace gvex
