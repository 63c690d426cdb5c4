// Tests for the gvex::cluster subsystem: retry/backoff schedules, route
// names, bundle fingerprints, the new protocol verbs, the multi-route
// registry, and the equality of two routes hosted in one server vs two
// independent single-route servers.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gvex/cluster/bundle.h"
#include "gvex/cluster/replicator.h"
#include "gvex/common/failpoint.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/parallel.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"
#include "gvex/serve/view_registry.h"
#include "tests/test_util.h"

namespace gvex {
namespace cluster {
namespace {

using serve::ExplanationServer;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::RouteStatus;
using serve::ViewRegistry;
using testutil::MutagenicityContext;

// Two distinct view sets over the same trained model (different coverage
// bounds => different subgraph tiers), built once per binary.
const ExplanationViewSet& ViewsWithUpperBound(size_t ul) {
  auto build = [](size_t upper) {
    const auto& ctx = MutagenicityContext();
    Configuration config;
    config.theta = 0.08f;
    config.default_coverage = {0, upper};
    auto set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned, {0, 1},
                                     config, {});
    EXPECT_TRUE(set.ok()) << set.status().ToString();
    return new ExplanationViewSet(std::move(*set));
  };
  static const ExplanationViewSet* twelve = build(12);
  static const ExplanationViewSet* eight = build(8);
  return ul == 12 ? *twelve : *eight;
}

ViewBundle MakeTestBundle(const std::string& route, size_t ul,
                          bool with_model) {
  ViewBundle bundle;
  bundle.route = route;
  bundle.views = ViewsWithUpperBound(ul);
  if (with_model) {
    bundle.model = std::make_shared<const GcnClassifier>(
        MutagenicityContext().model);
  }
  return bundle;
}

// ---- backoff schedule (gvex client --retry / replicator) --------------------

TEST(ClusterBackoffTest, ExponentialScheduleCappedAtMax) {
  EXPECT_EQ(RetryBackoffMs(1, 100, 5000), 100u);
  EXPECT_EQ(RetryBackoffMs(2, 100, 5000), 200u);
  EXPECT_EQ(RetryBackoffMs(3, 100, 5000), 400u);
  EXPECT_EQ(RetryBackoffMs(4, 100, 5000), 800u);
  EXPECT_EQ(RetryBackoffMs(5, 100, 5000), 1600u);
  EXPECT_EQ(RetryBackoffMs(6, 100, 5000), 3200u);
  EXPECT_EQ(RetryBackoffMs(7, 100, 5000), 5000u);  // capped
  EXPECT_EQ(RetryBackoffMs(100, 100, 5000), 5000u);
}

TEST(ClusterBackoffTest, EdgeCases) {
  EXPECT_EQ(RetryBackoffMs(0, 100, 5000), 100u);   // attempt clamped to 1
  EXPECT_EQ(RetryBackoffMs(-5, 100, 5000), 100u);
  EXPECT_EQ(RetryBackoffMs(3, 0, 5000), 0u);       // zero base => no delay
  EXPECT_EQ(RetryBackoffMs(1, 100, 10), 100u);     // max below base => base
  // No overflow at absurd attempt counts.
  EXPECT_EQ(RetryBackoffMs(1000000, 100, 5000), 5000u);
}

TEST(ClusterBackoffTest, JitterIsBoundedAndDeterministic) {
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const uint32_t base = RetryBackoffMs(attempt, 100, 5000);
    const uint32_t jittered = JitteredBackoffMs(attempt, 100, 5000, 42);
    EXPECT_GE(jittered, base - base / 4) << "attempt " << attempt;
    EXPECT_LE(jittered, base + base / 4) << "attempt " << attempt;
    // Same (seed, attempt) => same delay; reproducible tests.
    EXPECT_EQ(jittered, JitteredBackoffMs(attempt, 100, 5000, 42));
  }
  // Different seeds de-correlate the fleet (at least one attempt differs).
  bool any_different = false;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    if (JitteredBackoffMs(attempt, 100, 5000, 1) !=
        JitteredBackoffMs(attempt, 100, 5000, 2)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

// ---- route names ------------------------------------------------------------

TEST(ClusterRouteTest, ValidatesRouteNames) {
  EXPECT_TRUE(IsValidRouteName("default"));
  EXPECT_TRUE(IsValidRouteName("exp-7.b_2"));
  EXPECT_TRUE(IsValidRouteName(std::string(64, 'a')));
  EXPECT_FALSE(IsValidRouteName(""));
  EXPECT_FALSE(IsValidRouteName(std::string(65, 'a')));
  EXPECT_FALSE(IsValidRouteName("has space"));
  EXPECT_FALSE(IsValidRouteName("new\nline"));
  EXPECT_FALSE(IsValidRouteName("slash/route"));
}

// ---- fingerprints -----------------------------------------------------------

TEST(ClusterBundleTest, FingerprintBindsContentNotMetadata) {
  ViewBundle a = MakeTestBundle("alpha", 12, /*with_model=*/false);
  ViewBundle b = MakeTestBundle("beta", 12, /*with_model=*/false);
  b.generation = 999;  // metadata differs, content identical
  auto fp_a = BundleFingerprint(a);
  auto fp_b = BundleFingerprint(b);
  ASSERT_TRUE(fp_a.ok());
  ASSERT_TRUE(fp_b.ok());
  EXPECT_EQ(*fp_a, *fp_b);
  EXPECT_EQ(fp_a->size(), 16u);

  // Different views => different fingerprint.
  ViewBundle c = MakeTestBundle("alpha", 8, /*with_model=*/false);
  auto fp_c = BundleFingerprint(c);
  ASSERT_TRUE(fp_c.ok());
  EXPECT_NE(*fp_a, *fp_c);

  // Adding a model changes the fingerprint too.
  ViewBundle d = MakeTestBundle("alpha", 12, /*with_model=*/true);
  auto fp_d = BundleFingerprint(d);
  ASSERT_TRUE(fp_d.ok());
  EXPECT_NE(*fp_a, *fp_d);
}

TEST(ClusterBundleTest, EncodeDecodeStampsVerifiedFingerprint) {
  ViewBundle bundle = MakeTestBundle("r1", 12, /*with_model=*/true);
  auto encoded = EncodeBundle(bundle);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  auto decoded = DecodeBundle(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto expected = BundleFingerprint(bundle);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(decoded->fingerprint, *expected);
  EXPECT_EQ(decoded->route, "r1");
  ASSERT_NE(decoded->model, nullptr);
}

// ---- protocol: new verbs ----------------------------------------------------

TEST(ClusterProtocolTest, RequestWithRouteAndBundleRoundTrips) {
  Request req;
  req.type = RequestType::kInstall;
  req.id = 11;
  req.route = "canary";
  req.bundle = std::string("arbitrary\0bytes\nwith newline", 28);
  const std::string body = serve::EncodeRequestBody(req);
  auto decoded = serve::DecodeRequestBody(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, RequestType::kInstall);
  EXPECT_EQ(decoded->route, req.route);
  EXPECT_EQ(decoded->bundle, req.bundle);
  EXPECT_EQ(serve::EncodeRequestBody(*decoded), body);
}

TEST(ClusterProtocolTest, GenerationsResponseRoundTrips) {
  Response resp;
  resp.id = 3;
  serve::RouteInfo a;
  a.route = "default";
  a.generation = 4;
  a.source_generation = 2;
  a.fingerprint = "0123456789abcdef";
  a.warmed = true;
  a.warm_pairs = 96;
  serve::RouteInfo b;
  b.route = "canary";  // never published: empty fingerprint, cold
  resp.routes = {a, b};
  resp.bundle = "gvexbundle-v1\n...";
  const std::string body = serve::EncodeResponseBody(resp);
  auto decoded = serve::DecodeResponseBody(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->routes.size(), 2u);
  EXPECT_EQ(decoded->routes[0], a);
  EXPECT_EQ(decoded->routes[1], b);
  EXPECT_EQ(decoded->bundle, resp.bundle);
  EXPECT_EQ(serve::EncodeResponseBody(*decoded), body);
}

TEST(ClusterProtocolTest, UnknownTypeStillRejected) {
  // One past the last valid request type (kEvaluate = 16) must not decode.
  Request req;
  req.type = RequestType::kFetch;
  std::string body = serve::EncodeRequestBody(req);
  const size_t pos = body.find("type 10");
  ASSERT_NE(pos, std::string::npos);
  body.replace(pos, 7, "type 17");
  EXPECT_FALSE(serve::DecodeRequestBody(body).ok());
}

// ---- multi-route registry ---------------------------------------------------

TEST(ClusterRegistryTest, RoutesHaveIndependentGenerationChains) {
  ViewRegistry registry;
  ASSERT_TRUE(registry.InstallViews("a", ViewsWithUpperBound(12)).ok());
  ASSERT_TRUE(registry.InstallViews("b", ViewsWithUpperBound(8)).ok());
  ASSERT_TRUE(registry.InstallViews("a", ViewsWithUpperBound(8)).ok());
  EXPECT_EQ(registry.generation("a"), 2u);
  EXPECT_EQ(registry.generation("b"), 1u);
  EXPECT_EQ(registry.generation(), 0u);  // default route untouched
  EXPECT_EQ(registry.Snapshot(), nullptr);
  // Same content on both routes => same fingerprint.
  EXPECT_EQ(registry.fingerprint("a"), registry.fingerprint("b"));
  EXPECT_EQ(registry.Routes(), (std::vector<std::string>{"a", "b"}));
}

TEST(ClusterRegistryTest, DefaultRouteApiIsTheDefaultRoute) {
  ViewRegistry registry;
  ASSERT_TRUE(registry.InstallViews(ViewsWithUpperBound(12)).ok());
  EXPECT_EQ(registry.generation(), 1u);
  EXPECT_EQ(registry.generation(kDefaultRoute), 1u);
  EXPECT_EQ(registry.Snapshot().get(), registry.Snapshot(kDefaultRoute).get());
  EXPECT_FALSE(registry.fingerprint(kDefaultRoute).empty());
}

TEST(ClusterRegistryTest, InstallBundleRoundTripsThroughWire) {
  ViewRegistry registry;
  ViewBundle bundle = MakeTestBundle("wire", 12, /*with_model=*/true);
  bundle.generation = 41;
  auto encoded = EncodeBundle(bundle);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeBundle(*encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(registry.InstallBundle(*decoded).ok());
  auto snap = registry.Snapshot("wire");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->generation, 1u);               // local counter
  EXPECT_EQ(snap->source_generation, 41u);       // publisher stamp
  EXPECT_EQ(snap->fingerprint, decoded->fingerprint);
  EXPECT_NE(snap->model, nullptr);
}

TEST(ClusterRegistryTest, FailedInstallLeavesLiveGeneration) {
  ViewRegistry registry;
  ViewBundle good = MakeTestBundle("r", 12, /*with_model=*/false);
  ASSERT_TRUE(registry.InstallBundle(good).ok());
  const std::string fp = registry.fingerprint("r");

  {
    failpoint::ScopedFailpoint fp_install("cluster.install", "error(io)");
    ViewBundle next = MakeTestBundle("r", 8, /*with_model=*/false);
    EXPECT_TRUE(registry.InstallBundle(next).IsIoError());
  }
  EXPECT_EQ(registry.generation("r"), 1u);
  EXPECT_EQ(registry.fingerprint("r"), fp);

  // Invalid content (duplicate labels) also never swaps.
  ViewBundle invalid = MakeTestBundle("r", 8, /*with_model=*/false);
  invalid.views.views.push_back(invalid.views.views.front());
  EXPECT_TRUE(registry.InstallBundle(invalid).IsInvalidArgument());
  EXPECT_EQ(registry.generation("r"), 1u);
  EXPECT_EQ(registry.fingerprint("r"), fp);
}

TEST(ClusterRegistryTest, RouteStatusesReportWarmState) {
  ViewRegistry registry;
  ASSERT_TRUE(registry.InstallViews("cold", ViewsWithUpperBound(8)).ok());
  ASSERT_TRUE(registry.InstallViews("warm", ViewsWithUpperBound(12)).ok());
  const size_t pairs = registry.WarmMatchCache("warm");
  EXPECT_GT(pairs, 0u);
  std::vector<RouteStatus> statuses = registry.RouteStatuses();
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].route, "cold");
  EXPECT_FALSE(statuses[0].warmed);
  EXPECT_EQ(statuses[0].warm_pairs, 0u);
  EXPECT_EQ(statuses[1].route, "warm");
  EXPECT_TRUE(statuses[1].warmed);
  EXPECT_EQ(statuses[1].warm_pairs, pairs);
  // A new publish resets the warm state (the new generation is cold).
  ASSERT_TRUE(registry.InstallViews("warm", ViewsWithUpperBound(8)).ok());
  for (const RouteStatus& status : registry.RouteStatuses()) {
    if (status.route == "warm") {
      EXPECT_FALSE(status.warmed);
    }
  }
}

TEST(ClusterRegistryTest, MakeBundleMirrorsSnapshot) {
  ViewRegistry registry;
  ASSERT_TRUE(registry.InstallViews("r", ViewsWithUpperBound(12)).ok());
  auto bundle = registry.MakeBundle("r");
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(bundle->route, "r");
  EXPECT_EQ(bundle->generation, 1u);
  EXPECT_EQ(bundle->fingerprint, registry.fingerprint("r"));
  EXPECT_TRUE(registry.MakeBundle("missing").status().IsNotFound());
}

// ---- server: cluster verbs + two-route equality -----------------------------

void InstallRoute(ViewRegistry* registry, const std::string& route, size_t ul) {
  ViewBundle bundle = MakeTestBundle(route, ul, /*with_model=*/true);
  ASSERT_TRUE(registry->InstallBundle(bundle).ok());
}

std::vector<Request> FiveQueryTypes(const std::string& route) {
  const auto& ctx = MutagenicityContext();
  std::vector<Request> reqs;
  Request support;
  support.type = RequestType::kSupport;
  support.label = 0;
  support.graph = datasets::NitroGroupPattern();
  support.has_graph = true;
  reqs.push_back(support);
  Request contains = support;
  contains.type = RequestType::kSubgraphsContaining;
  reqs.push_back(contains);
  Request hits = support;
  hits.type = RequestType::kFindHits;
  reqs.push_back(hits);
  Request disc;
  disc.type = RequestType::kDiscriminativePatterns;
  disc.label = 0;
  disc.against = 1;
  reqs.push_back(disc);
  Request classify;
  classify.type = RequestType::kClassifyExplain;
  classify.graph = ctx.db.graph(0);
  classify.has_graph = true;
  reqs.push_back(classify);
  for (auto& r : reqs) {
    r.id = 1;
    r.route = route;
  }
  return reqs;
}

TEST(ClusterServerTest, TwoRoutesEqualTwoSingleRouteServers) {
  // One server hosting routes "a" (ul=12) and "b" (ul=8)...
  ViewRegistry multi;
  InstallRoute(&multi, "a", 12);
  InstallRoute(&multi, "b", 8);
  ExplanationServer both(&multi);
  ASSERT_TRUE(both.Start().ok());

  // ...must answer byte-identically to two independent servers each
  // hosting one of the sets on its default route.
  for (const auto& [route, ul] : std::vector<std::pair<std::string, size_t>>{
           {"a", 12}, {"b", 8}}) {
    ViewRegistry single;
    ASSERT_TRUE(single.InstallViews(ViewsWithUpperBound(ul)).ok());
    single.InstallModel(
        std::make_shared<const GcnClassifier>(MutagenicityContext().model));
    ExplanationServer lone(&single);
    ASSERT_TRUE(lone.Start().ok());
    for (Request req : FiveQueryTypes(route)) {
      const Response from_both = both.Call(req);
      req.route.clear();  // single-route server answers on its default
      const Response from_lone = lone.Call(req);
      ASSERT_TRUE(from_both.ok()) << from_both.message;
      ASSERT_TRUE(from_lone.ok()) << from_lone.message;
      EXPECT_EQ(serve::EncodeResponseBody(from_both),
                serve::EncodeResponseBody(from_lone))
          << "route " << route << " type " << static_cast<int>(req.type);
    }
    lone.Stop();
  }
  both.Stop();
}

TEST(ClusterServerTest, GenerationsFetchInstallEndToEnd) {
  ViewRegistry registry;
  ExplanationServer server(&registry);
  ASSERT_TRUE(server.Start().ok());

  // Install over the request path.
  ViewBundle bundle = MakeTestBundle("live", 12, /*with_model=*/false);
  bundle.generation = 5;
  auto encoded = EncodeBundle(bundle);
  ASSERT_TRUE(encoded.ok());
  Request install;
  install.type = RequestType::kInstall;
  install.id = 1;
  install.bundle = *encoded;
  Response installed = server.Call(install);
  ASSERT_TRUE(installed.ok()) << installed.message;
  EXPECT_NE(installed.text.find("route=live"), std::string::npos);
  ASSERT_EQ(installed.routes.size(), 1u);
  EXPECT_EQ(installed.routes[0].generation, 1u);
  EXPECT_EQ(installed.routes[0].source_generation, 5u);
  EXPECT_TRUE(installed.routes[0].warmed);  // install pre-warms

  // Health reports its generation.
  Request health;
  health.type = RequestType::kHealth;
  health.id = 2;
  Response table = server.Call(health);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.routes.size(), 1u);
  EXPECT_EQ(table.routes[0].route, "live");
  EXPECT_EQ(table.routes[0].fingerprint, registry.fingerprint("live"));

  // Fetch returns a decodable bundle with the same fingerprint.
  Request fetch;
  fetch.type = RequestType::kFetch;
  fetch.id = 3;
  fetch.route = "live";
  Response fetched = server.Call(fetch);
  ASSERT_TRUE(fetched.ok()) << fetched.message;
  auto refetched = DecodeBundle(fetched.bundle);
  ASSERT_TRUE(refetched.ok()) << refetched.status().ToString();
  EXPECT_EQ(refetched->fingerprint, registry.fingerprint("live"));

  // Fetching an unpublished route is NotFound; a corrupt install is a
  // clean error and swaps nothing.
  Request missing = fetch;
  missing.route = "ghost";
  EXPECT_EQ(server.Call(missing).code, StatusCode::kNotFound);
  Request corrupt = install;
  corrupt.id = 4;
  corrupt.bundle[corrupt.bundle.size() / 2] ^= 0x01;
  Response rejected = server.Call(corrupt);
  EXPECT_EQ(rejected.code, StatusCode::kIoError);
  EXPECT_EQ(registry.generation("live"), 1u);

  // Invalid route names are rejected before touching the registry.
  Request bad_route = fetch;
  bad_route.route = "not a route";
  EXPECT_EQ(server.Call(bad_route).code, StatusCode::kInvalidArgument);
  server.Stop();
}

}  // namespace
}  // namespace cluster
}  // namespace gvex
