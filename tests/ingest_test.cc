// Tests for the live-ingest subsystem (gvex::ingest): snapshot and
// journal round-trips, the crash-resume byte-identity pin, idempotent
// client retries, drift-triggered auto-publish, admission-bound
// shedding, and the server-side kIngest routing hook.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gvex/common/failpoint.h"
#include "gvex/explain/snapshot_io.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/ingest/ingest.h"
#include "gvex/ingest/journal.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"
#include "gvex/serve/view_registry.h"
#include "tests/test_util.h"

namespace gvex {
namespace ingest {
namespace {

using testutil::MutagenicityContext;

// Unique per-test file path, so parallel ctest processes never collide.
std::string TestTempPath(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "gvex_ing_" + info->name() + "_" +
         std::to_string(::getpid()) + "_" + suffix;
}

// Non-owning view of the shared trained model (the static context
// outlives every test).
std::shared_ptr<const GcnClassifier> CtxModel() {
  const auto& ctx = MutagenicityContext();
  return std::shared_ptr<const GcnClassifier>(
      std::shared_ptr<const GcnClassifier>(), &ctx.model);
}

Configuration TestConfig() {
  Configuration config;
  config.theta = 0.08f;
  config.default_coverage = {0, 8};
  return config;
}

serve::Request GraphReq(const Graph& g, ClassLabel label, uint64_t id) {
  serve::Request req;
  req.type = serve::RequestType::kIngest;
  req.id = id;
  req.label = label;
  req.graph = g;
  req.has_graph = true;
  return req;
}

std::string SnapshotBytes(const StreamGvex& solver) {
  std::ostringstream out;
  EXPECT_TRUE(WriteStreamSnapshot(solver.Snapshot(), &out).ok());
  return out.str();
}

// ---- snapshot serialization -------------------------------------------------

TEST(SnapshotIoTest, RoundTripIsByteStable) {
  const auto& ctx = MutagenicityContext();
  StreamGvex solver(&ctx.model, TestConfig());
  auto group = GraphDatabase::LabelGroup(ctx.assigned, 1);
  ASSERT_GE(group.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    (void)solver.IngestGraph(ctx.db.graph(group[i]), group[i], 1);
  }
  const std::string bytes = SnapshotBytes(solver);
  ASSERT_FALSE(bytes.empty());

  std::istringstream in(bytes);
  auto read = ReadStreamSnapshot(&in);
  ASSERT_TRUE(read.ok()) << read.status().ToString();

  // Restoring the read snapshot reproduces the exact same bytes.
  StreamGvex resumed(&ctx.model, TestConfig());
  ASSERT_TRUE(resumed.Restore(*read).ok());
  EXPECT_EQ(SnapshotBytes(resumed), bytes);
  EXPECT_EQ(resumed.resident_graphs(), solver.resident_graphs());
}

TEST(SnapshotIoTest, RejectsCorruptHeader) {
  std::istringstream in("not-a-snapshot\n");
  EXPECT_FALSE(ReadStreamSnapshot(&in).ok());
}

// ---- journal ----------------------------------------------------------------

TEST(IngestJournalTest, AppendReplayRoundTrip) {
  const auto& ctx = MutagenicityContext();
  std::string path = TestTempPath("journal.wal");
  {
    auto journal = IngestJournal::Open(path, /*resume=*/false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->AppendGraph(1, 11, 0, ctx.db.graph(0)).ok());
    ASSERT_TRUE((*journal)->AppendGraph(2, 0, 1, ctx.db.graph(1)).ok());
    StreamGvex solver(&ctx.model, TestConfig());
    (void)solver.IngestGraph(ctx.db.graph(1), 1, 1);
    ASSERT_TRUE((*journal)->AppendCheckpoint(2, 1, solver.Snapshot()).ok());
    ASSERT_TRUE((*journal)->AppendGraph(3, 13, 1, ctx.db.graph(2)).ok());
  }
  auto resumed = IngestJournal::Open(path, /*resume=*/true);
  ASSERT_TRUE(resumed.ok());
  const IngestReplay& replay = (*resumed)->replay();
  ASSERT_EQ(replay.graphs.size(), 3u);
  EXPECT_EQ(replay.graphs[0].seq, 1u);
  EXPECT_EQ(replay.graphs[0].client_id, 11u);
  EXPECT_EQ(replay.graphs[1].client_id, 0u);  // unkeyed
  EXPECT_EQ(replay.graphs[2].label, 1);
  EXPECT_EQ(replay.next_seq, 4u);
  EXPECT_EQ(replay.client_ids.count(11), 1u);
  EXPECT_EQ(replay.client_ids.count(0), 0u);  // 0 is never a dedup key
  ASSERT_EQ(replay.checkpoints.count(1), 1u);
  EXPECT_EQ(replay.checkpoints.at(1).first, 2u);

  // Without resume the journal truncates and starts fresh.
  auto fresh = IngestJournal::Open(path, /*resume=*/false);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*fresh)->replay().graphs.empty());
  std::remove(path.c_str());
}

TEST(IngestJournalTest, TolerantOfTornTail) {
  const auto& ctx = MutagenicityContext();
  std::string path = TestTempPath("torn.wal");
  {
    auto journal = IngestJournal::Open(path, /*resume=*/false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->AppendGraph(1, 1, 0, ctx.db.graph(0)).ok());
    ASSERT_TRUE((*journal)->AppendGraph(2, 2, 0, ctx.db.graph(1)).ok());
  }
  {
    // A kill -9 mid-append: half a section frame at the end of the file.
    std::ofstream out(path, std::ios::app);
    out << "sec 9999 deadbe";
  }
  {
    auto resumed = IngestJournal::Open(path, /*resume=*/true);
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ((*resumed)->replay().graphs.size(), 2u);
    EXPECT_EQ((*resumed)->replay().next_seq, 3u);
    // Appends after a torn-tail load still produce loadable records.
    ASSERT_TRUE((*resumed)->AppendGraph(3, 3, 0, ctx.db.graph(2)).ok());
  }
  // The acknowledged post-tear append survives the next resume: the torn
  // bytes were cut off instead of left in front of it.
  auto again = IngestJournal::Open(path, /*resume=*/true);
  ASSERT_TRUE(again.ok());
  const IngestReplay& replay = (*again)->replay();
  ASSERT_EQ(replay.graphs.size(), 3u);
  EXPECT_EQ(replay.graphs[2].seq, 3u);
  EXPECT_EQ(replay.next_seq, 4u);
  std::remove(path.c_str());
}

TEST(IngestJournalTest, AppendFailpointFailsClosed) {
  const auto& ctx = MutagenicityContext();
  std::string path = TestTempPath("failclosed.wal");
  {
    auto journal = IngestJournal::Open(path, /*resume=*/false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->AppendGraph(1, 1, 0, ctx.db.graph(0)).ok());
    failpoint::ScopedFailpoint fp("ingest.journal_append", "error(io)");
    EXPECT_TRUE((*journal)->AppendGraph(2, 2, 0, ctx.db.graph(1)).IsIoError());
  }
  auto resumed = IngestJournal::Open(path, /*resume=*/true);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ((*resumed)->replay().graphs.size(), 1u);
  std::remove(path.c_str());
}

// ---- manager: crash-resume byte identity ------------------------------------

// THE pin of the crash-resume contract: feeding N graphs in one run and
// feeding them across a crash + --resume must converge to byte-identical
// published bundles (equal content fingerprints). The smoke leg repeats
// this end-to-end with a real kill -9.
TEST(IngestManagerTest, CrashResumePublishesByteIdenticalBundle) {
  const auto& ctx = MutagenicityContext();
  const size_t kGraphs = 10;
  ASSERT_GE(ctx.db.size(), kGraphs);

  auto feed = [&](IngestManager* mgr, size_t from, size_t to,
                  uint64_t id_base) {
    for (size_t i = from; i < to; ++i) {
      serve::Response resp =
          mgr->Submit(GraphReq(ctx.db.graph(i), ctx.assigned[i],
                               id_base + i))
              .get();
      ASSERT_TRUE(resp.ok()) << resp.message;
    }
  };

  // Uninterrupted run.
  std::string fp_straight;
  {
    serve::ViewRegistry registry;
    IngestOptions opts;
    opts.journal_path = TestTempPath("straight.wal");
    opts.checkpoint_cadence = 3;
    opts.config = TestConfig();
    IngestManager mgr(&registry, CtxModel(), opts);
    ASSERT_TRUE(mgr.Start().ok());
    feed(&mgr, 0, kGraphs, 100);
    auto gen = mgr.PublishNow();
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    fp_straight = registry.fingerprint(cluster::kDefaultRoute);
    ASSERT_FALSE(fp_straight.empty());
    mgr.Stop();
    std::remove(opts.journal_path.c_str());
  }

  // Interrupted run: half the stream, a "crash" (no graceful drain of
  // anything beyond what the WAL already holds), then resume + the rest.
  {
    serve::ViewRegistry registry;
    IngestOptions opts;
    opts.journal_path = TestTempPath("crash.wal");
    opts.checkpoint_cadence = 3;
    opts.config = TestConfig();
    {
      IngestManager first(&registry, CtxModel(), opts);
      ASSERT_TRUE(first.Start().ok());
      feed(&first, 0, kGraphs / 2, 100);
      first.Stop();
    }
    serve::ViewRegistry registry2;
    IngestOptions resume_opts = opts;
    resume_opts.resume = true;
    IngestManager second(&registry2, CtxModel(), resume_opts);
    ASSERT_TRUE(second.Start().ok());
    EXPECT_GT(second.Info().resident_graphs, 0u);
    feed(&second, kGraphs / 2, kGraphs, 100);
    auto gen = second.PublishNow();
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    EXPECT_EQ(registry2.fingerprint(cluster::kDefaultRoute), fp_straight);
    second.Stop();
    std::remove(opts.journal_path.c_str());
  }
}

// A retried client id answers "duplicate" instead of double-feeding —
// including a retry that crosses a server restart (the dedup set lives
// in the journal).
TEST(IngestManagerTest, IdempotencyKeysSurviveRestart) {
  const auto& ctx = MutagenicityContext();
  serve::ViewRegistry registry;
  IngestOptions opts;
  opts.journal_path = TestTempPath("dedup.wal");
  opts.config = TestConfig();
  uint64_t resident_before;
  {
    IngestManager mgr(&registry, CtxModel(), opts);
    ASSERT_TRUE(mgr.Start().ok());
    serve::Response first =
        mgr.Submit(GraphReq(ctx.db.graph(0), ctx.assigned[0], 7)).get();
    ASSERT_TRUE(first.ok());
    serve::Response retry =
        mgr.Submit(GraphReq(ctx.db.graph(0), ctx.assigned[0], 7)).get();
    ASSERT_TRUE(retry.ok());
    EXPECT_EQ(retry.text, "duplicate id=7");
    resident_before = mgr.Info().resident_graphs;
    EXPECT_EQ(mgr.Info().duplicates, 1u);
    mgr.Stop();
  }
  IngestOptions resume_opts = opts;
  resume_opts.resume = true;
  IngestManager mgr(&registry, CtxModel(), resume_opts);
  ASSERT_TRUE(mgr.Start().ok());
  serve::Response retry =
      mgr.Submit(GraphReq(ctx.db.graph(0), ctx.assigned[0], 7)).get();
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.text, "duplicate id=7");
  EXPECT_EQ(mgr.Info().resident_graphs, resident_before);
  mgr.Stop();
  std::remove(opts.journal_path.c_str());
}

// ---- manager: drift-triggered publish, verbs, admission ---------------------

TEST(IngestManagerTest, DriftTriggersAutoPublish) {
  const auto& ctx = MutagenicityContext();
  serve::ViewRegistry registry;
  IngestOptions opts;  // no journal: in-memory ingest
  opts.drift_threshold = 0.5;
  opts.drift_window = 4;
  opts.config = TestConfig();
  IngestManager mgr(&registry, CtxModel(), opts);
  ASSERT_TRUE(mgr.Start().ok());
  ASSERT_EQ(registry.generation(cluster::kDefaultRoute), 0u);

  // With nothing served yet, every accepted graph is uncovered: drift
  // hits 1.0 on the first accept and the first publish creates the
  // route's first generation — the live-bootstrap path of serve --ingest.
  bool published = false;
  for (size_t i = 0; i < ctx.db.size() && !published; ++i) {
    serve::Response resp =
        mgr.Submit(GraphReq(ctx.db.graph(i), ctx.assigned[i], 0)).get();
    ASSERT_TRUE(resp.ok()) << resp.message;
    published = resp.text.find("published generation=") != std::string::npos;
  }
  ASSERT_TRUE(published);
  EXPECT_GE(registry.generation(cluster::kDefaultRoute), 1u);
  EXPECT_GE(mgr.Info().published, 1u);
  // The swap refreshed the drift signal: the freshly published views now
  // cover their own window.
  EXPECT_LT(mgr.Info().drift, 1.0);
  mgr.Stop();
}

TEST(IngestManagerTest, ControlVerbsAndEmptyPublish) {
  serve::ViewRegistry registry;
  IngestOptions opts;
  opts.config = TestConfig();
  IngestManager mgr(&registry, CtxModel(), opts);
  ASSERT_TRUE(mgr.Start().ok());

  serve::Request status;
  status.type = serve::RequestType::kIngest;
  status.text = "status";
  serve::Response resp = mgr.Submit(std::move(status)).get();
  ASSERT_TRUE(resp.ok());
  EXPECT_NE(resp.text.find("ingesting route=default"), std::string::npos);
  EXPECT_NE(resp.text.find("accepted=0"), std::string::npos);

  // Nothing resident: a forced cut has nothing to publish.
  auto gen = mgr.PublishNow();
  EXPECT_EQ(gen.status().code(), StatusCode::kFailedPrecondition);

  // Unknown verbs and label-less graphs are rejected at admission.
  serve::Request bogus;
  bogus.type = serve::RequestType::kIngest;
  bogus.text = "frobnicate";
  EXPECT_EQ(mgr.Submit(std::move(bogus)).get().code,
            StatusCode::kInvalidArgument);
  mgr.Stop();
}

TEST(IngestManagerTest, AdmissionBoundShedsWithOverloaded) {
  const auto& ctx = MutagenicityContext();
  serve::ViewRegistry registry;
  IngestOptions opts;
  opts.max_pending = 1;
  opts.config = TestConfig();
  IngestManager mgr(&registry, CtxModel(), opts);
  ASSERT_TRUE(mgr.Start().ok());

  failpoint::ScopedFailpoint slow("ingest.feed", "delay(50)");
  std::vector<std::future<serve::Response>> futures;
  for (size_t i = 0; i < 8; ++i) {
    futures.push_back(
        mgr.Submit(GraphReq(ctx.db.graph(i), ctx.assigned[i], 0)));
  }
  size_t shed = 0, processed = 0;
  for (auto& f : futures) {
    serve::Response resp = f.get();
    if (resp.code == StatusCode::kOverloaded) {
      ++shed;
    } else {
      ASSERT_TRUE(resp.ok()) << resp.message;
      ++processed;
    }
  }
  EXPECT_GE(shed, 1u) << "bound of 1 never shed across 8 rapid submits";
  EXPECT_GE(processed, 1u);

  // Control verbs bypass the bound even while graphs are being shed.
  serve::Request status;
  status.type = serve::RequestType::kIngest;
  status.text = "status";
  EXPECT_TRUE(mgr.Submit(std::move(status)).get().ok());
  mgr.Stop();
}

// ---- server routing + wire rows ---------------------------------------------

TEST(IngestServerTest, KIngestNeedsAHandler) {
  // No views installed: kIngest is intercepted at Submit, before any
  // generation snapshot is pinned, so an empty registry is fine.
  serve::ViewRegistry registry;
  const auto& ctx = MutagenicityContext();
  serve::ServerOptions options;
  options.num_workers = 1;
  serve::ExplanationServer server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  serve::Request req = GraphReq(ctx.db.graph(0), ctx.assigned[0], 1);
  serve::Response resp = server.Submit(std::move(req)).get();
  EXPECT_EQ(resp.code, StatusCode::kFailedPrecondition);
  EXPECT_NE(resp.message.find("serve --ingest"), std::string::npos);

  // With a handler installed, kIngest bypasses the query queue entirely.
  IngestOptions opts;
  opts.config = TestConfig();
  IngestManager mgr(&registry, CtxModel(), opts);
  ASSERT_TRUE(mgr.Start().ok());
  server.SetIngestHandler([&mgr](serve::Request r) {
    return mgr.Submit(std::move(r));
  });
  serve::Response routed =
      server.Submit(GraphReq(ctx.db.graph(0), ctx.assigned[0], 1)).get();
  ASSERT_TRUE(routed.ok()) << routed.message;
  EXPECT_NE(routed.text.find("ingested seq=1"), std::string::npos);
  server.SetIngestHandler(nullptr);
  mgr.Stop();
  server.Stop();
}

TEST(IngestProtocolTest, HealthRowsRoundTrip) {
  serve::Response resp;
  resp.id = 9;
  resp.code = StatusCode::kOk;
  resp.has_health = true;
  resp.health.serving = true;
  resp.health.workers = 2;
  resp.health.ingesting = true;
  resp.health.ingest_pending = 3;
  resp.health.ingest_accepted = 41;
  resp.health.ingest_published = 5;
  resp.health.ingest_drift_bp = 2500;
  resp.health.ingest_staleness_ms = 777;

  auto decoded = serve::DecodeResponseBody(serve::EncodeResponseBody(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->health.ingesting);
  EXPECT_EQ(decoded->health.ingest_pending, 3u);
  EXPECT_EQ(decoded->health.ingest_accepted, 41u);
  EXPECT_EQ(decoded->health.ingest_published, 5u);
  EXPECT_EQ(decoded->health.ingest_drift_bp, 2500u);
  EXPECT_EQ(decoded->health.ingest_staleness_ms, 777u);

  // Non-ingesting responses stay free of the istate row but still decode.
  resp.health.ingesting = false;
  auto plain = serve::DecodeResponseBody(serve::EncodeResponseBody(resp));
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->health.ingesting);
}

TEST(IngestProtocolTest, KIngestRequestRoundTrip) {
  const auto& ctx = MutagenicityContext();
  serve::Request req = GraphReq(ctx.db.graph(3), 1, 42);
  req.deadline_ms = 250;
  auto decoded = serve::DecodeRequestBody(serve::EncodeRequestBody(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, serve::RequestType::kIngest);
  EXPECT_EQ(decoded->id, 42u);
  EXPECT_EQ(decoded->label, 1);
  EXPECT_TRUE(decoded->has_graph);
  EXPECT_EQ(decoded->graph.num_nodes(), ctx.db.graph(3).num_nodes());
  EXPECT_EQ(decoded->deadline_ms, 250u);
}

}  // namespace
}  // namespace ingest
}  // namespace gvex
