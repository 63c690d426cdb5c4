// Negative-path tests for view verification (Lemma 3.1): tampered views
// must fail exactly the constraint that was violated.
#include <gtest/gtest.h>

#include "gvex/explain/parallel.h"
#include "gvex/explain/verifier.h"
#include "tests/test_util.h"

namespace gvex {
namespace {

using testutil::MutagenicityContext;

Configuration TestConfig() {
  Configuration config;
  config.theta = 0.08f;
  config.default_coverage = {0, 12};
  return config;
}

// A verified view to tamper with, built once.
const ExplanationView& GoodView() {
  static const ExplanationView* view = [] {
    const auto& ctx = MutagenicityContext();
    auto set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned, {1},
                                     TestConfig(), {});
    EXPECT_TRUE(set.ok());
    EXPECT_FALSE(set->views[0].subgraphs.empty());
    return new ExplanationView(std::move(set->views[0]));
  }();
  return *view;
}

TEST(VerifierTest, GoodViewPasses) {
  const auto& ctx = MutagenicityContext();
  ViewVerification check =
      VerifyExplanationView(GoodView(), ctx.db, ctx.model, TestConfig());
  EXPECT_TRUE(check.ok()) << check.detail;
}

TEST(VerifierTest, DroppedPatternsFailC1) {
  const auto& ctx = MutagenicityContext();
  ExplanationView tampered = GoodView();
  tampered.patterns.clear();  // nothing covers the subgraphs now
  ViewVerification check =
      VerifyExplanationView(tampered, ctx.db, ctx.model, TestConfig());
  EXPECT_FALSE(check.c1_graph_view);
  EXPECT_FALSE(check.ok());
  EXPECT_NE(check.detail.find("C1"), std::string::npos);
}

TEST(VerifierTest, WrongNodesFailC2) {
  const auto& ctx = MutagenicityContext();
  ExplanationView tampered = GoodView();
  // Replace one subgraph's node set with a single arbitrary node: almost
  // certainly not consistent+counterfactual.
  ExplanationSubgraph& s = tampered.subgraphs.front();
  s.nodes = {0};
  s.subgraph = ctx.db.graph(s.graph_index).InducedSubgraph(s.nodes);
  ViewVerification check =
      VerifyExplanationView(tampered, ctx.db, ctx.model, TestConfig());
  EXPECT_FALSE(check.c2_explanation);
}

TEST(VerifierTest, OversizedSelectionFailsC3) {
  const auto& ctx = MutagenicityContext();
  ExplanationView tampered = GoodView();
  Configuration tight = TestConfig();
  tight.default_coverage = {0, 2};  // every real subgraph exceeds this
  ViewVerification check =
      VerifyExplanationView(tampered, ctx.db, ctx.model, tight);
  EXPECT_FALSE(check.c3_coverage);
  EXPECT_NE(check.detail.find("C3"), std::string::npos);
}

TEST(VerifierTest, UndersizedSelectionFailsC3) {
  const auto& ctx = MutagenicityContext();
  ExplanationView tampered = GoodView();
  Configuration demanding = TestConfig();
  demanding.coverage[1] = {1000, 2000};
  ViewVerification check =
      VerifyExplanationView(tampered, ctx.db, ctx.model, demanding);
  EXPECT_FALSE(check.c3_coverage);
}

TEST(VerifierTest, EmptyViewIsTriviallyConsistent) {
  const auto& ctx = MutagenicityContext();
  ExplanationView empty;
  empty.label = 1;
  ViewVerification check =
      VerifyExplanationView(empty, ctx.db, ctx.model, TestConfig());
  EXPECT_TRUE(check.ok());
}

}  // namespace
}  // namespace gvex
