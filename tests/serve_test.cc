// Tests for the serving subsystem: wire protocol codec, view registry
// hot-swap and failure atomicity, the request engine (all five request
// types against direct ViewQuery answers), deadlines, admission control,
// and the socket transport.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "gvex/common/failpoint.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/query.h"
#include "gvex/explain/view_io.h"
#include "gvex/obs/json.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"
#include "gvex/serve/socket.h"
#include "gvex/serve/view_registry.h"
#include "tests/test_util.h"

namespace gvex {
namespace serve {
namespace {

using testutil::MutagenicityContext;

// Real views from the trained toy model, built once per binary.
const ExplanationViewSet& ServingViews() {
  static const ExplanationViewSet* set = [] {
    const auto& ctx = MutagenicityContext();
    Configuration config;
    config.theta = 0.08f;
    config.default_coverage = {0, 12};
    auto set = ParallelApproxExplain(ctx.model, ctx.db, ctx.assigned, {0, 1},
                                     config, {});
    EXPECT_TRUE(set.ok()) << set.status().ToString();
    return new ExplanationViewSet(std::move(*set));
  }();
  return *set;
}

void InstallServingViews(ViewRegistry* registry, bool with_model = true) {
  ASSERT_TRUE(registry->InstallViews(ServingViews()).ok());
  if (with_model) {
    registry->InstallModel(std::make_shared<const GcnClassifier>(
        MutagenicityContext().model));
  }
}

MatchOptions Loose() {
  MatchOptions m;
  m.semantics = MatchSemantics::kSubgraph;
  return m;
}

// ---- protocol -----------------------------------------------------------------

TEST(ServeProtocolTest, RequestRoundTripsThroughCodec) {
  Request req;
  req.type = RequestType::kFindHits;
  req.id = 42;
  req.label = 1;
  req.against = 0;
  req.semantics = MatchSemantics::kInduced;
  req.deadline_ms = 250;
  req.max_embeddings = 7;
  req.text = "free-form\nwith newline and spaces";
  req.graph = datasets::NitroGroupPattern();
  req.has_graph = true;

  const std::string body = EncodeRequestBody(req);
  auto decoded = DecodeRequestBody(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, req.type);
  EXPECT_EQ(decoded->id, req.id);
  EXPECT_EQ(decoded->label, req.label);
  EXPECT_EQ(decoded->against, req.against);
  EXPECT_EQ(decoded->semantics, req.semantics);
  EXPECT_EQ(decoded->deadline_ms, req.deadline_ms);
  EXPECT_EQ(decoded->max_embeddings, req.max_embeddings);
  EXPECT_EQ(decoded->text, req.text);
  ASSERT_TRUE(decoded->has_graph);
  EXPECT_EQ(decoded->graph.num_nodes(), req.graph.num_nodes());
  EXPECT_EQ(decoded->graph.num_edges(), req.graph.num_edges());
  // The codec is canonical: re-encoding reproduces the bytes.
  EXPECT_EQ(EncodeRequestBody(*decoded), body);
}

TEST(ServeProtocolTest, ResponseRoundTripsThroughCodec) {
  Response resp;
  resp.id = 9;
  resp.code = StatusCode::kOverloaded;
  resp.message = "request queue full (4 deep); retry later";
  resp.support = 17;
  resp.indices = {0, 3, 5};
  resp.hits = {{1, 2}, {4, 1}};
  resp.patterns.push_back(datasets::NitroGroupPattern());
  resp.predicted = 1;
  resp.probabilities = {0.25f, 0.75f};
  resp.text = "{\"k\":1}";

  const std::string body = EncodeResponseBody(resp);
  auto decoded = DecodeResponseBody(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, StatusCode::kOverloaded);
  EXPECT_FALSE(decoded->ok());
  EXPECT_TRUE(decoded->ToStatus().IsOverloaded());
  EXPECT_EQ(decoded->message, resp.message);
  EXPECT_EQ(decoded->support, resp.support);
  EXPECT_EQ(decoded->indices, resp.indices);
  ASSERT_EQ(decoded->hits.size(), 2u);
  EXPECT_EQ(decoded->hits[1].graph_index, 4u);
  ASSERT_EQ(decoded->patterns.size(), 1u);
  EXPECT_EQ(decoded->patterns[0].num_nodes(), 4u);
  EXPECT_EQ(decoded->predicted, 1);
  ASSERT_EQ(decoded->probabilities.size(), 2u);
  EXPECT_EQ(decoded->text, resp.text);
  EXPECT_EQ(EncodeResponseBody(*decoded), body);
}

TEST(ServeProtocolTest, FrameDetectsCorruptionAndOversize) {
  const std::string body = EncodeRequestBody(Request{});
  std::string frame = FrameMessage(body);
  ASSERT_GE(frame.size(), 8u + body.size());

  uint32_t crc = 0;
  auto len = ParseFrameHeader(frame.data(), &crc);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, body.size());
  EXPECT_TRUE(VerifyFrameBody(body, crc).ok());

  std::string corrupt = body;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_FALSE(VerifyFrameBody(corrupt, crc).ok());

  char oversized[8] = {};
  const uint32_t huge = kMaxFrameBytes + 1;
  for (int i = 0; i < 4; ++i) {
    oversized[i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  EXPECT_FALSE(ParseFrameHeader(oversized, nullptr).ok());
}

TEST(ServeProtocolTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeRequestBody("not a frame at all").ok());
  EXPECT_FALSE(DecodeResponseBody("gvexserve-v1 req\n").ok());
  // Truncated mid-body.
  const std::string body = EncodeRequestBody(Request{});
  EXPECT_FALSE(DecodeRequestBody(body.substr(0, body.size() / 2)).ok());
}

TEST(ServeProtocolTest, RetiredAndUnknownTypesDecodeToInvalidArgument) {
  const std::string body = EncodeRequestBody(Request{});  // type 0 (ping)
  const size_t pos = body.find("type 0\n");
  ASSERT_NE(pos, std::string::npos);
  // 9, 12 and 14 are retired; 17 is one past the last; 257 would wrap
  // to a live type in the 8-bit enum.
  for (int type : {9, 12, 14, 17, 257}) {
    std::string patched = body;
    patched.replace(pos, 7, "type " + std::to_string(type) + "\n");
    auto decoded = DecodeRequestBody(patched);
    ASSERT_FALSE(decoded.ok()) << type;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << type;
  }
  for (int type : {9, 12, 14}) {
    EXPECT_EQ(RequestTypeName(static_cast<RequestType>(type)), nullptr);
  }
  // The five read types keep their names (serve.exec_<name>_us).
  EXPECT_STREQ(RequestTypeName(RequestType::kSupport), "support");
  EXPECT_STREQ(RequestTypeName(RequestType::kSubgraphsContaining), "contains");
  EXPECT_STREQ(RequestTypeName(RequestType::kFindHits), "hits");
  EXPECT_STREQ(RequestTypeName(RequestType::kDiscriminativePatterns),
               "discriminative");
  EXPECT_STREQ(RequestTypeName(RequestType::kClassifyExplain), "classify");
}

// ---- registry -----------------------------------------------------------------

TEST(ViewRegistryTest, ValidateRejectsBrokenSets) {
  ExplanationViewSet empty;
  EXPECT_FALSE(ViewRegistry::Validate(empty).ok());

  ExplanationViewSet dup = ServingViews();
  dup.views.push_back(dup.views[0]);
  EXPECT_FALSE(ViewRegistry::Validate(dup).ok());

  ExplanationViewSet good = ServingViews();
  EXPECT_TRUE(ViewRegistry::Validate(good).ok());
}

TEST(ViewRegistryTest, HotSwapKeepsOldSnapshotAlive) {
  ViewRegistry registry;
  EXPECT_EQ(registry.Snapshot(), nullptr);
  InstallServingViews(&registry, /*with_model=*/false);
  auto old_snap = registry.Snapshot();
  ASSERT_NE(old_snap, nullptr);
  const uint64_t old_gen = old_snap->generation;

  ASSERT_TRUE(registry.InstallViews(ServingViews()).ok());
  auto new_snap = registry.Snapshot();
  EXPECT_GT(new_snap->generation, old_gen);
  // The superseded generation stays usable for in-flight requests.
  EXPECT_EQ(old_snap->generation, old_gen);
  EXPECT_FALSE(old_snap->views.views.empty());
}

TEST(ViewRegistryTest, FailedInstallLeavesStateUntouched) {
  ViewRegistry registry;
  InstallServingViews(&registry, /*with_model=*/false);
  const uint64_t gen = registry.generation();

  ExplanationViewSet dup = ServingViews();
  dup.views.push_back(dup.views[0]);
  EXPECT_FALSE(registry.InstallViews(std::move(dup)).ok());
  EXPECT_EQ(registry.generation(), gen);
  EXPECT_EQ(registry.Snapshot()->views.views.size(),
            ServingViews().views.size());
}

TEST(ViewRegistryTest, CorruptViewFileDoesNotPoisonRegistry) {
  const std::string good_path = testing::TempDir() + "serve_views_good.txt";
  const std::string bad_path = testing::TempDir() + "serve_views_bad.txt";
  ASSERT_TRUE(SaveViewSet(ServingViews(), good_path).ok());
  {
    std::ofstream bad(bad_path);
    bad << "gvexviews-v2 garbage that is not a section header\n";
  }

  ViewRegistry registry;
  // Corrupt file with no prior generation: registry stays empty.
  EXPECT_FALSE(registry.LoadViews(bad_path).ok());
  EXPECT_EQ(registry.Snapshot(), nullptr);

  ASSERT_TRUE(registry.LoadViews(good_path).ok());
  const uint64_t gen = registry.generation();
  // Corrupt file over a live generation: old generation survives.
  EXPECT_FALSE(registry.LoadViews(bad_path).ok());
  EXPECT_EQ(registry.generation(), gen);
  EXPECT_EQ(registry.Snapshot()->source_path, good_path);
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

TEST(ViewRegistryTest, LoadFailpointInjectsCleanFailure) {
  const std::string path = testing::TempDir() + "serve_views_fp.txt";
  ASSERT_TRUE(SaveViewSet(ServingViews(), path).ok());
  ViewRegistry registry;
  ASSERT_TRUE(registry.LoadViews(path).ok());
  const uint64_t gen = registry.generation();
  {
    failpoint::ScopedFailpoint fp("serve.registry_load", "error(io)");
    Status st = registry.LoadViews(path);
    EXPECT_TRUE(st.IsIoError()) << st.ToString();
    EXPECT_EQ(registry.generation(), gen);
  }
  EXPECT_TRUE(registry.LoadViews(path).ok());
  std::remove(path.c_str());
}

// ---- request engine -----------------------------------------------------------

class ServeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    InstallServingViews(&registry_);
    server_ = std::make_unique<ExplanationServer>(&registry_, options_);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override { server_->Stop(); }

  Request PatternRequest(RequestType type, ClassLabel label) {
    Request req;
    req.type = type;
    req.label = label;
    req.graph = datasets::NitroGroupPattern();
    req.has_graph = true;
    return req;
  }

  ViewRegistry registry_;
  ServerOptions options_;
  std::unique_ptr<ExplanationServer> server_;
};

TEST_F(ServeEngineTest, AnswersMatchDirectViewQuery) {
  const ExplanationViewSet& set = ServingViews();
  const ExplanationView* mutagen = set.ForLabel(1);
  const ExplanationView* nonmutagen = set.ForLabel(0);
  ASSERT_NE(mutagen, nullptr);
  ASSERT_NE(nonmutagen, nullptr);
  ViewQuery direct(Loose());
  const Graph nitro = datasets::NitroGroupPattern();

  Response support = server_->Call(PatternRequest(RequestType::kSupport, 1));
  ASSERT_TRUE(support.ok()) << support.message;
  EXPECT_EQ(support.support, direct.Support(*mutagen, nitro));

  Response contains =
      server_->Call(PatternRequest(RequestType::kSubgraphsContaining, 1));
  ASSERT_TRUE(contains.ok());
  std::vector<size_t> direct_indices = direct.SubgraphsContaining(*mutagen,
                                                                  nitro);
  ASSERT_EQ(contains.indices.size(), direct_indices.size());
  for (size_t i = 0; i < direct_indices.size(); ++i) {
    EXPECT_EQ(contains.indices[i], direct_indices[i]);
  }

  Request hits_req = PatternRequest(RequestType::kFindHits, 1);
  hits_req.max_embeddings = 5;
  Response hits = server_->Call(hits_req);
  ASSERT_TRUE(hits.ok());
  std::vector<ViewQuery::Hit> direct_hits = direct.FindHits(*mutagen, nitro,
                                                            5);
  ASSERT_EQ(hits.hits.size(), direct_hits.size());
  for (size_t i = 0; i < direct_hits.size(); ++i) {
    EXPECT_EQ(hits.hits[i].graph_index, direct_hits[i].graph_index);
    EXPECT_EQ(hits.hits[i].embeddings, direct_hits[i].embeddings);
  }

  Request disc;
  disc.type = RequestType::kDiscriminativePatterns;
  disc.label = 1;
  disc.against = 0;
  Response discriminative = server_->Call(disc);
  ASSERT_TRUE(discriminative.ok());
  std::vector<Graph> direct_disc =
      direct.DiscriminativePatterns(*mutagen, *nonmutagen);
  ASSERT_EQ(discriminative.patterns.size(), direct_disc.size());
  for (size_t i = 0; i < direct_disc.size(); ++i) {
    EXPECT_EQ(discriminative.patterns[i].num_nodes(),
              direct_disc[i].num_nodes());
    EXPECT_EQ(discriminative.patterns[i].num_edges(),
              direct_disc[i].num_edges());
  }
}

TEST_F(ServeEngineTest, ClassifyExplainMatchesModel) {
  const auto& ctx = MutagenicityContext();
  Request req;
  req.type = RequestType::kClassifyExplain;
  req.graph = ctx.db.graph(0);
  req.has_graph = true;
  Response resp = server_->Call(req);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.predicted, ctx.model.Predict(ctx.db.graph(0)));
  EXPECT_EQ(resp.probabilities.size(),
            ctx.model.PredictProba(ctx.db.graph(0)).size());
  // Every reported pattern index actually matches the input graph.
  const ExplanationView* view = ServingViews().ForLabel(resp.predicted);
  ASSERT_NE(view, nullptr);
  ViewQuery direct(Loose());
  EXPECT_EQ(resp.indices.size(), resp.patterns.size());
  for (uint64_t index : resp.indices) {
    ASSERT_LT(index, view->patterns.size());
  }
}

TEST_F(ServeEngineTest, ErrorsAreTyped) {
  Request req;
  req.type = RequestType::kSupport;
  req.label = 77;  // no such view
  req.graph = datasets::NitroGroupPattern();
  req.has_graph = true;
  Response resp = server_->Call(req);
  EXPECT_EQ(resp.code, StatusCode::kNotFound);

  Request no_pattern;
  no_pattern.type = RequestType::kSupport;
  no_pattern.label = 1;
  EXPECT_EQ(server_->Call(no_pattern).code, StatusCode::kInvalidArgument);

  Request disc;
  disc.type = RequestType::kDiscriminativePatterns;
  disc.label = 1;
  disc.against = 99;
  EXPECT_EQ(server_->Call(disc).code, StatusCode::kNotFound);
}

TEST_F(ServeEngineTest, DeadlineExpiryMidExecutionReturnsTimeout) {
  failpoint::ScopedFailpoint delay("serve.exec_delay", "delay(80)");
  Request req = PatternRequest(RequestType::kSupport, 1);
  req.deadline_ms = 15;
  Response resp = server_->Call(req);
  EXPECT_EQ(resp.code, StatusCode::kTimeout) << resp.message;
}

TEST_F(ServeEngineTest, InjectedAdmissionFailureShedsExactlyOnce) {
  failpoint::ScopedFailpoint admit("serve.admit",
                                   "error(overloaded),limit(1)");
  Request req;
  req.type = RequestType::kPing;
  Response first = server_->Call(req);
  EXPECT_EQ(first.code, StatusCode::kOverloaded);
  Response second = server_->Call(req);
  EXPECT_TRUE(second.ok()) << second.message;
}

TEST(ServeAdmissionTest, FullQueueShedsWithOverloaded) {
  ViewRegistry registry;
  InstallServingViews(&registry, /*with_model=*/false);
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 2;
  options.batch_max = 1;
  ExplanationServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  {
    failpoint::ScopedFailpoint delay("serve.exec_delay", "delay(40)");
    std::vector<std::future<Response>> futures;
    Request req;
    req.type = RequestType::kPing;
    for (int i = 0; i < 12; ++i) futures.push_back(server.Submit(req));
    size_t shed = 0, ok = 0;
    for (auto& f : futures) {
      Response resp = f.get();
      if (resp.code == StatusCode::kOverloaded) {
        ++shed;
        EXPECT_NE(resp.message.find("queue full"), std::string::npos);
      } else if (resp.ok()) {
        ++ok;
      }
    }
    EXPECT_GT(shed, 0u) << "burst of 12 into a queue of 2 must shed";
    EXPECT_GT(ok, 0u) << "admitted requests still complete";
    EXPECT_LE(server.queue_peak(), options.max_queue);
  }
  server.Stop();
}

TEST(ServeServerTest, StatsJsonParses) {
  ViewRegistry registry;
  InstallServingViews(&registry, /*with_model=*/false);
  ExplanationServer server(&registry);
  ASSERT_TRUE(server.Start().ok());
  Request req;
  req.type = RequestType::kPing;
  ASSERT_TRUE(server.Call(req).ok());
  Request stats;
  stats.type = RequestType::kStats;
  Response resp = server.Call(stats);
  ASSERT_TRUE(resp.ok());
  auto parsed = obs::ParseJson(resp.text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << resp.text;
  server.Stop();
}

// ---- socket transport ---------------------------------------------------------

TEST(ServeSocketTest, UnixSocketRoundTripAllTypes) {
  ViewRegistry registry;
  InstallServingViews(&registry);
  ExplanationServer server(&registry);
  ASSERT_TRUE(server.Start().ok());
  SocketServer socket(&server);
  const std::string path = testing::TempDir() + "gvex_serve_test.sock";
  ASSERT_TRUE(socket.Start(Endpoint::Unix(path)).ok());

  SocketClient client;
  ASSERT_TRUE(client.Connect(Endpoint::Unix(path)).ok());

  Request ping;
  ping.type = RequestType::kPing;
  ping.text = "echo me";
  auto ping_resp = client.Call(ping);
  ASSERT_TRUE(ping_resp.ok());
  EXPECT_EQ(ping_resp->text, "echo me");

  Request support;
  support.type = RequestType::kSupport;
  support.label = 1;
  support.graph = datasets::NitroGroupPattern();
  support.has_graph = true;
  auto support_resp = client.Call(support);
  ASSERT_TRUE(support_resp.ok());
  ViewQuery direct(Loose());
  EXPECT_EQ(support_resp->support,
            direct.Support(*ServingViews().ForLabel(1),
                           datasets::NitroGroupPattern()));

  Request shutdown;
  shutdown.type = RequestType::kShutdown;
  auto shutdown_resp = client.Call(shutdown);
  ASSERT_TRUE(shutdown_resp.ok());
  EXPECT_EQ(shutdown_resp->text, "shutting down");

  socket.Wait();  // kShutdown must unblock Wait without external Stop
  socket.Stop();
  server.Stop();
}

TEST(ServeSocketTest, TcpEphemeralPortRoundTrip) {
  ViewRegistry registry;
  InstallServingViews(&registry, /*with_model=*/false);
  ExplanationServer server(&registry);
  ASSERT_TRUE(server.Start().ok());
  SocketServer socket(&server);
  ASSERT_TRUE(socket.Start(Endpoint::Tcp(0)).ok());
  ASSERT_GT(socket.bound_port(), 0);

  SocketClient client;
  ASSERT_TRUE(client.Connect(Endpoint::Tcp(socket.bound_port())).ok());
  Request ping;
  ping.type = RequestType::kPing;
  auto resp = client.Call(ping);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->text, "pong");
  client.Close();
  socket.Stop();
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace gvex
