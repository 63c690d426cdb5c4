// Primary/standby replication tests: a standby tails a primary over the
// wire, installs + pre-warms each generation, keeps serving byte-identical
// answers after primary loss with zero MatchCache re-warm, never publishes
// a torn bundle (failpoint legs cluster.fetch / cluster.install /
// cluster.bundle_read), and resyncs by content fingerprint rather than
// generation counter when a primary restarts.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gvex/cluster/bundle.h"
#include "gvex/cluster/replicator.h"
#include "gvex/common/failpoint.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/parallel.h"
#include "gvex/obs/obs.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"
#include "gvex/serve/socket.h"
#include "gvex/serve/view_registry.h"
#include "tests/test_util.h"

namespace gvex {
namespace cluster {
namespace {

using serve::Endpoint;
using serve::ExplanationServer;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::SocketServer;
using serve::ViewRegistry;
using testutil::MutagenicityContext;

const ExplanationViewSet& ReplViews(size_t upper) {
  auto build = [](size_t ul) {
    const auto& ctx = MutagenicityContext();
    Configuration config;
    config.theta = 0.08f;
    config.default_coverage = {0, ul};
    auto set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned, {0, 1},
                                     config, {});
    EXPECT_TRUE(set.ok()) << set.status().ToString();
    return new ExplanationViewSet(std::move(*set));
  };
  static const ExplanationViewSet* twelve = build(12);
  static const ExplanationViewSet* eight = build(8);
  return upper == 12 ? *twelve : *eight;
}

uint64_t CounterValue(const std::string& name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

/// Registry + engine + loopback-TCP listener, the shape of one `gvex
/// serve` process.
struct TestServer {
  ViewRegistry registry;
  std::unique_ptr<ExplanationServer> server;
  std::unique_ptr<SocketServer> socket;
  uint16_t port = 0;

  void Start() {
    server = std::make_unique<ExplanationServer>(&registry);
    EXPECT_TRUE(server->Start().ok());
    socket = std::make_unique<SocketServer>(server.get());
    EXPECT_TRUE(socket->Start(Endpoint::Tcp(0)).ok());
    port = socket->bound_port();
    ASSERT_GT(port, 0);
  }

  void Stop() {
    if (socket != nullptr) socket->Stop();
    if (server != nullptr) server->Stop();
  }

  ReplicatorOptions FollowOptions() const {
    ReplicatorOptions options;
    options.primary = Endpoint::Tcp(port);
    options.poll_interval_ms = 10;
    options.backoff_base_ms = 5;
    options.backoff_max_ms = 50;
    return options;
  }
};

std::vector<Request> FiveQueryTypes() {
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
  for (auto& r : reqs) r.id = 1;
  return reqs;
}

TEST(ReplicationTest, StandbyServesIdenticallyAfterPrimaryLossNoRewarm) {
  TestServer primary;
  ASSERT_TRUE(primary.registry.InstallViews(ReplViews(12)).ok());
  primary.registry.InstallModel(
      std::make_shared<const GcnClassifier>(MutagenicityContext().model));
  primary.Start();

  TestServer standby;
  standby.Start();
  Replicator replicator(&standby.registry, primary.FollowOptions());
  ASSERT_TRUE(replicator.SyncOnce().ok());
  EXPECT_EQ(replicator.stats().installs, 1u);
  EXPECT_EQ(standby.registry.fingerprint(kDefaultRoute),
            primary.registry.fingerprint(kDefaultRoute));
  // Install pre-warmed the standby.
  ASSERT_EQ(standby.registry.RouteStatuses().size(), 1u);
  EXPECT_TRUE(standby.registry.RouteStatuses()[0].warmed);

  // Already in sync: another poll installs nothing.
  ASSERT_TRUE(replicator.SyncOnce().ok());
  EXPECT_EQ(replicator.stats().installs, 1u);

  // Capture the primary's answers, then kill it.
  std::vector<std::string> expected;
  for (const Request& req : FiveQueryTypes()) {
    Response resp = primary.server->Call(req);
    ASSERT_TRUE(resp.ok()) << resp.message;
    expected.push_back(serve::EncodeResponseBody(resp));
  }
  primary.Stop();

  // The standby answers all five query types byte-identically, and the
  // failover costs zero MatchCache re-warm (the counter only moves when
  // WarmMatchCache touches pairs).
  const uint64_t warm_before = CounterValue("serve.warm_pairs");
  size_t i = 0;
  for (const Request& req : FiveQueryTypes()) {
    Response resp = standby.server->Call(req);
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(serve::EncodeResponseBody(resp), expected[i++]);
  }
  EXPECT_EQ(CounterValue("serve.warm_pairs"), warm_before);
  standby.Stop();
}

TEST(ReplicationTest, StandbyTailsEveryRoute) {
  TestServer primary;
  ASSERT_TRUE(primary.registry.InstallViews("a", ReplViews(12)).ok());
  ASSERT_TRUE(primary.registry.InstallViews("b", ReplViews(8)).ok());
  primary.Start();

  ViewRegistry standby;
  Replicator replicator(&standby, primary.FollowOptions());
  ASSERT_TRUE(replicator.SyncOnce().ok());
  EXPECT_EQ(replicator.stats().installs, 2u);
  EXPECT_EQ(standby.Routes(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(standby.fingerprint("a"), primary.registry.fingerprint("a"));
  EXPECT_EQ(standby.fingerprint("b"), primary.registry.fingerprint("b"));
  primary.Stop();
}

TEST(ReplicationTest, TornFetchOrInstallNeverPublishes) {
  TestServer primary;
  ASSERT_TRUE(primary.registry.InstallViews(ReplViews(12)).ok());
  primary.Start();

  ViewRegistry standby;
  Replicator replicator(&standby, primary.FollowOptions());

  {
    failpoint::ScopedFailpoint fp("cluster.fetch", "error(io)");
    EXPECT_TRUE(replicator.SyncOnce().IsIoError());
    EXPECT_EQ(standby.generation(kDefaultRoute), 0u);
  }
  {
    failpoint::ScopedFailpoint fp("cluster.install", "error(io)");
    EXPECT_TRUE(replicator.SyncOnce().IsIoError());
    EXPECT_EQ(standby.generation(kDefaultRoute), 0u);
  }
  {
    // Torn mid-decode: the bundle reader itself fails.
    failpoint::ScopedFailpoint fp("cluster.bundle_read", "error(io)");
    EXPECT_TRUE(replicator.SyncOnce().IsIoError());
    EXPECT_EQ(standby.generation(kDefaultRoute), 0u);
  }
  EXPECT_EQ(replicator.stats().installs, 0u);
  EXPECT_GE(replicator.stats().poll_failures, 3u);

  // Once the faults clear, the same loop converges.
  ASSERT_TRUE(replicator.SyncOnce().ok());
  EXPECT_EQ(standby.generation(kDefaultRoute), 1u);
  EXPECT_EQ(standby.fingerprint(kDefaultRoute),
            primary.registry.fingerprint(kDefaultRoute));
  primary.Stop();
}

TEST(ReplicationTest, FailedInstallNeverReplacesLiveStandbyGeneration) {
  TestServer primary;
  ASSERT_TRUE(primary.registry.InstallViews(ReplViews(12)).ok());
  primary.Start();

  ViewRegistry standby;
  Replicator replicator(&standby, primary.FollowOptions());
  ASSERT_TRUE(replicator.SyncOnce().ok());
  const std::string live_fp = standby.fingerprint(kDefaultRoute);

  // The primary moves on, but every standby install attempt tears.
  ASSERT_TRUE(primary.registry.InstallViews(ReplViews(8)).ok());
  {
    failpoint::ScopedFailpoint fp("cluster.install", "error(io)");
    EXPECT_TRUE(replicator.SyncOnce().IsIoError());
  }
  // The standby still serves its previous (intact) generation.
  EXPECT_EQ(standby.generation(kDefaultRoute), 1u);
  EXPECT_EQ(standby.fingerprint(kDefaultRoute), live_fp);

  ASSERT_TRUE(replicator.SyncOnce().ok());
  EXPECT_EQ(standby.generation(kDefaultRoute), 2u);
  EXPECT_EQ(standby.fingerprint(kDefaultRoute),
            primary.registry.fingerprint(kDefaultRoute));
  primary.Stop();
}

TEST(ReplicationTest, RestartedPrimaryResyncsByFingerprintNotCounter) {
  TestServer first;
  ASSERT_TRUE(first.registry.InstallViews(ReplViews(12)).ok());
  first.Start();

  ViewRegistry standby;
  {
    Replicator replicator(&standby, first.FollowOptions());
    ASSERT_TRUE(replicator.SyncOnce().ok());
    EXPECT_EQ(replicator.stats().installs, 1u);
  }
  first.Stop();

  // A restarted primary restarts its generation counter at 1 with the
  // same content: same fingerprint, so the standby must NOT reinstall.
  TestServer second;
  ASSERT_TRUE(second.registry.InstallViews(ReplViews(12)).ok());
  second.Start();
  Replicator replicator(&standby, second.FollowOptions());
  ASSERT_TRUE(replicator.SyncOnce().ok());
  EXPECT_EQ(replicator.stats().installs, 0u);
  EXPECT_EQ(standby.generation(kDefaultRoute), 1u);

  // New content on the restarted primary does resync.
  ASSERT_TRUE(second.registry.InstallViews(ReplViews(8)).ok());
  ASSERT_TRUE(replicator.SyncOnce().ok());
  EXPECT_EQ(replicator.stats().installs, 1u);
  EXPECT_EQ(standby.generation(kDefaultRoute), 2u);
  EXPECT_EQ(standby.fingerprint(kDefaultRoute),
            second.registry.fingerprint(kDefaultRoute));
  second.Stop();
}

TEST(ReplicationTest, LoopSurvivesUnreachablePrimaryAndStops) {
  ViewRegistry standby;
  ReplicatorOptions options;
  options.primary = Endpoint::Tcp(1);  // nothing listens there
  options.poll_interval_ms = 5;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 5;
  Replicator replicator(&standby, options);
  ASSERT_TRUE(replicator.Start().ok());
  // A few failed rounds, then a clean stop (no hang, no crash).
  while (replicator.stats().poll_failures < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  replicator.Stop();
  EXPECT_EQ(standby.generation(kDefaultRoute), 0u);
  EXPECT_FALSE(replicator.stats().last_error.empty());
}

}  // namespace
}  // namespace cluster
}  // namespace gvex
