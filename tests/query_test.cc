// Tests for the view-query API: the analyst queries of Example 1.1 and
// the discriminativeness analysis, on real views from the trained model.
#include <gtest/gtest.h>

#include "gvex/datasets/datasets.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/query.h"
#include "tests/test_util.h"

namespace gvex {
namespace {

using testutil::MutagenicityContext;

struct Views {
  ExplanationView mutagen;
  ExplanationView nonmutagen;
};

const Views& BothViews() {
  static const Views* views = [] {
    const auto& ctx = MutagenicityContext();
    Configuration config;
    config.theta = 0.08f;
    config.default_coverage = {0, 12};
    auto set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned, {1, 0},
                                     config, {});
    EXPECT_TRUE(set.ok());
    return new Views{std::move(set->views[0]), std::move(set->views[1])};
  }();
  return *views;
}

MatchOptions Loose() {
  MatchOptions m;
  m.semantics = MatchSemantics::kSubgraph;
  return m;
}

TEST(ViewQueryTest, ToxicophoreOccursInMutagens) {
  const Views& views = BothViews();
  ASSERT_FALSE(views.mutagen.subgraphs.empty());
  ViewQuery query(Loose());
  Graph nitro = datasets::NitroGroupPattern();
  size_t support = query.Support(views.mutagen, nitro);
  EXPECT_GT(support, views.mutagen.subgraphs.size() / 2)
      << "most mutagen explanations should contain the planted NO2";
  // And never in nonmutagen explanations (it is never planted there).
  EXPECT_EQ(query.Support(views.nonmutagen, nitro), 0u);
}

TEST(ViewQueryTest, SubgraphIndicesAreValidAndSorted) {
  const Views& views = BothViews();
  ViewQuery query(Loose());
  Graph nitro = datasets::NitroGroupPattern();
  auto hits = query.SubgraphsContaining(views.mutagen, nitro);
  for (size_t i : hits) EXPECT_LT(i, views.mutagen.subgraphs.size());
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end()));
}

TEST(ViewQueryTest, DiscriminativePatternsExist) {
  // The paper's P12 claim: some mutagen patterns never occur in
  // nonmutagen explanations.
  const Views& views = BothViews();
  ViewQuery query(Loose());
  auto disc = query.DiscriminativePatterns(views.mutagen, views.nonmutagen);
  EXPECT_FALSE(disc.empty())
      << "nitrogen-bearing patterns should discriminate";
  // Every discriminative pattern indeed matches no nonmutagen subgraph.
  for (const Graph& p : disc) {
    EXPECT_EQ(query.Support(views.nonmutagen, p), 0u);
  }
}

TEST(ViewQueryTest, PatternSupportsAreBoundedBySubgraphCount) {
  const Views& views = BothViews();
  ViewQuery query(Loose());
  auto supports = query.PatternSupports(views.mutagen);
  ASSERT_EQ(supports.size(), views.mutagen.patterns.size());
  for (size_t s : supports) {
    EXPECT_LE(s, views.mutagen.subgraphs.size());
  }
  // Patterns selected by Psum cover something, so at least one pattern
  // has positive support.
  bool any = false;
  for (size_t s : supports) any = any || s > 0;
  EXPECT_TRUE(any);
}

TEST(ViewQueryTest, FindHitsReportsEmbeddingCounts) {
  const Views& views = BothViews();
  ViewQuery query(Loose());
  Graph nitro = datasets::NitroGroupPattern();
  auto hits = query.FindHits(views.mutagen, nitro);
  EXPECT_FALSE(hits.empty());
  for (const auto& hit : hits) {
    EXPECT_GT(hit.embeddings, 0u);
    EXPECT_LE(hit.embeddings, 64u);
  }
}

TEST(ViewQueryTest, EmptyViewYieldsNoHits) {
  ViewQuery query(Loose());
  ExplanationView empty;
  Graph nitro = datasets::NitroGroupPattern();
  EXPECT_EQ(query.Support(empty, nitro), 0u);
  EXPECT_TRUE(query.FindHits(empty, nitro).empty());
  EXPECT_TRUE(query.PatternSupports(empty).empty());
}

}  // namespace
}  // namespace gvex
