#include "gvex/explain/everify.h"

#include <algorithm>

#include "gvex/common/failpoint.h"
#include "gvex/obs/obs.h"

namespace gvex {

EVerifyResult EVerify::Verify(const Graph& g,
                              const std::vector<NodeId>& nodes,
                              ClassLabel l) const {
  // Inference is the hot spot of every solver; a delay armed here makes
  // deadline expiry and slow-worker orderings reproducible in tests.
  GVEX_FAILPOINT_NOTIFY("everify.verify");
  GVEX_COUNTER_INC("everify.calls");
  GVEX_LATENCY_US("everify.verify_us");
  EVerifyResult result;
  if (nodes.empty() || l < 0) return result;

  Graph subgraph = g.InducedSubgraph(nodes);
  GcnTrace sub_trace = model_->Forward(subgraph);
  result.consistent = sub_trace.predicted() == l;
  if (!sub_trace.probs.empty() &&
      static_cast<size_t>(l) < sub_trace.probs.size()) {
    result.prob_subgraph = sub_trace.probs[static_cast<size_t>(l)];
  }

  Graph remainder = g.RemoveNodes(nodes);
  if (remainder.num_nodes() == 0) {
    // Everything removed: the remainder has no label, trivially != l.
    result.counterfactual = true;
    result.prob_remainder = 0.0f;
  } else {
    GcnTrace rem_trace = model_->Forward(remainder);
    result.counterfactual = rem_trace.predicted() != l;
    if (static_cast<size_t>(l) < rem_trace.probs.size()) {
      result.prob_remainder = rem_trace.probs[static_cast<size_t>(l)];
    }
  }
  return result;
}

GradientSaliency::GradientSaliency(const GcnClassifier& model, const Graph& g,
                                   ClassLabel l)
    : raw(g.num_nodes(), 0.0f) {
  GcnTrace trace = model.Forward(g);
  if (!trace.logits.empty() && l >= 0 &&
      static_cast<size_t>(l) < trace.probs.size()) {
    Matrix grad = model.InputLogitGradient(trace, l);
    for (NodeId v = 0; v < g.num_nodes(); ++v) raw[v] = grad.RowL1Norm(v);
  }
  float max_raw = 0.0f;
  for (float s : raw) max_raw = std::max(max_raw, s);
  inv_max = max_raw > 0.0f ? 1.0f / max_raw : 0.0f;
}

}  // namespace gvex
