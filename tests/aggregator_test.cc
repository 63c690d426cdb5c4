// Tests for the message-passing aggregator variants (GCN / SAGE-mean /
// GIN-sum) and GVEX's model-agnostic behaviour across them.
#include <gtest/gtest.h>

#include <cmath>

#include "gvex/datasets/datasets.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/verifier.h"
#include "gvex/gnn/trainer.h"
#include "gvex/graph/graph.h"

namespace gvex {
namespace {

Graph Path3() {
  Graph g;
  g.AddNode(0);
  g.AddNode(0);
  g.AddNode(0);
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(1, 2).ok());
  return g;
}

TEST(PropagationKindTest, MeanOperatorRowsSumToOne) {
  Graph g = Path3();
  CsrMatrix s = g.PropagationOperator(Graph::PropagationKind::kMeanNeighbor);
  for (size_t r = 0; r < s.n(); ++r) {
    float row_sum = 0.0f;
    for (size_t c = 0; c < s.n(); ++c) row_sum += s.At(r, c);
    EXPECT_NEAR(row_sum, 1.0f, 1e-5f) << "row " << r;
  }
}

TEST(PropagationKindTest, SumOperatorIsAdjacencyPlusIdentity) {
  Graph g = Path3();
  CsrMatrix s = g.PropagationOperator(Graph::PropagationKind::kSumNeighbor);
  EXPECT_FLOAT_EQ(s.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(s.At(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(s.At(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(s.At(1, 2), 1.0f);
}

TEST(PropagationKindTest, GcnKindMatchesNormalizedPropagation) {
  Graph g = Path3();
  CsrMatrix a = g.NormalizedPropagation();
  CsrMatrix b = g.PropagationOperator(Graph::PropagationKind::kGcnSymmetric);
  ASSERT_EQ(a.nnz(), b.nnz());
  for (size_t k = 0; k < a.nnz(); ++k) {
    EXPECT_FLOAT_EQ(a.values()[k], b.values()[k]);
  }
}

TEST(PropagationKindTest, KindsProduceDifferentPredictions) {
  Graph g = Path3();
  g.SetDefaultFeatures(2, 1.0f);
  GcnConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 4;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  std::vector<std::vector<float>> probs;
  for (auto kind : {Graph::PropagationKind::kGcnSymmetric,
                    Graph::PropagationKind::kMeanNeighbor,
                    Graph::PropagationKind::kSumNeighbor}) {
    cfg.propagation = kind;
    auto model = GcnClassifier::Create(cfg);
    ASSERT_TRUE(model.ok());
    probs.push_back(model->PredictProba(g));
  }
  // Same parameters, different aggregation: sum must differ from gcn
  // (mean can coincide on regular graphs but not on this path).
  bool all_same = true;
  for (size_t i = 1; i < probs.size(); ++i) {
    for (size_t c = 0; c < probs[i].size(); ++c) {
      if (std::fabs(probs[i][c] - probs[0][c]) > 1e-6f) all_same = false;
    }
  }
  EXPECT_FALSE(all_same);
}

// The model-agnostic claim: GVEX explains any message-passing classifier.
class AggregatorAgnosticTest
    : public ::testing::TestWithParam<Graph::PropagationKind> {};

TEST_P(AggregatorAgnosticTest, GvexExplainsEveryAggregator) {
  datasets::MutagenicityOptions d;
  d.num_graphs = 40;
  GraphDatabase db = datasets::MakeMutagenicity(d);
  GcnConfig cfg;
  cfg.input_dim = db.feature_dim();
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  cfg.propagation = GetParam();
  auto model = GcnClassifier::Create(cfg);
  ASSERT_TRUE(model.ok());
  DataSplit split = SplitDatabase(db, 0.8, 0.1, 42);
  TrainerConfig tc;
  tc.epochs = 80;
  tc.adam.learning_rate = 5e-3f;
  TrainReport rep = Trainer(tc).Fit(&*model, db, split);
  if (rep.test_accuracy < 0.75f) {
    GTEST_SKIP() << "aggregator failed to learn the toy task";
  }
  auto assigned = AssignLabels(*model, db);

  Configuration config;
  config.theta = 0.08f;
  config.default_coverage = {0, 10};
  auto set = ParallelApproxExplain(*model, db, assigned, {1}, config, {});
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  const ExplanationView* view = &set->views[0];
  EXPECT_FALSE(view->subgraphs.empty());
  ViewVerification check = VerifyExplanationView(*view, db, *model, config);
  EXPECT_TRUE(check.ok()) << check.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AggregatorAgnosticTest,
    ::testing::Values(Graph::PropagationKind::kGcnSymmetric,
                      Graph::PropagationKind::kMeanNeighbor,
                      Graph::PropagationKind::kSumNeighbor));

}  // namespace
}  // namespace gvex
