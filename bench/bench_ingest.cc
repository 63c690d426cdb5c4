// Live-ingest benchmark: closed-loop feed against the IngestManager
// behind an in-process ExplanationServer (docs/SERVING.md "Live ingest &
// freshness SLO"). Three sections:
//
//   prepare — train the toy model; install a deliberately stale seed
//             generation (label 0 only), so the label-1 graphs in the
//             feed drive the drift signal exactly like a new class
//             showing up in production traffic
//   ingest  — solo closed-loop feed through the kIngest hook (journal
//             on): graphs/s with the WAL in the loop, and the
//             drift-triggered auto-publish MUST fire (exit 1 otherwise);
//             staleness-at-swap and drift-at-swap read back from the
//             ingest.* histograms are the freshness SLO numbers
//   mixed   — query clients issue one fixed request in a loop while the
//             feed streams: query p50/p99 during ingest, and every
//             answer must sit on a clean staircase across the swaps —
//             at most (publishes + 1) distinct byte-encodings, no
//             flip-back, final answer equal to the post-feed generation
//             (an atomic hot-swap can never produce a torn answer)
//
//   bench_ingest [--scale S] [--seed N] [--ops N]
//
// Writes BENCH_ingest.json (gvex-bench-v1) with ingest throughput,
// swap-SLO stats, and query latency under ingest load.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "gvex/common/stopwatch.h"
#include "gvex/ingest/ingest.h"
#include "gvex/obs/obs.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"
#include "gvex/serve/view_registry.h"

namespace gvex {
namespace {

using serve::ExplanationServer;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::ServerOptions;
using serve::ViewRegistry;

uint64_t Percentile(std::vector<uint64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

ingest::IngestOptions MakeIngestOptions(const std::string& wal) {
  ingest::IngestOptions opts;
  opts.drift_threshold = 0.3;
  opts.drift_window = 8;
  opts.checkpoint_cadence = 8;
  opts.journal_path = wal;
  opts.config = bench::DefaultConfig(12);
  return opts;
}

Request FeedRequest(const bench::Workbench& wb, size_t i) {
  Request req;
  req.type = RequestType::kIngest;
  req.label = wb.assigned[i % wb.db.size()];
  req.graph = wb.db.graph(i % wb.db.size());
  req.has_graph = true;
  return req;
}

// Closed-loop feed of `total` graphs through the server's kIngest hook.
// Returns graphs accepted (shed/infeasible are counted but not fed
// again: the bench measures the write path, not a retry policy).
size_t Feed(ExplanationServer* server, const bench::Workbench& wb,
            size_t total, size_t* shed) {
  size_t ok = 0;
  for (size_t i = 0; i < total; ++i) {
    Response resp = server->Call(FeedRequest(wb, i));
    if (resp.ok()) {
      ++ok;
    } else if (resp.code == StatusCode::kOverloaded) {
      ++(*shed);
    }
  }
  return ok;
}

std::string WalPath(const char* leaf) {
  const char* dir = std::getenv("GVEX_BENCH_DIR");
  return std::string(dir != nullptr ? dir : ".") + "/" + leaf;
}

}  // namespace
}  // namespace gvex

int main(int argc, char** argv) {
  using namespace gvex;
  double scale = 0.3;
  uint64_t seed = 42;
  size_t ops = 50;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--scale") == 0) {
      scale = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      ops = static_cast<size_t>(std::atoll(argv[i + 1]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_ingest [--scale S] [--seed N] [--ops N]\n");
      return 2;
    }
  }
  (void)seed;  // the feed order is the dataset order; seed keys the params

  bench::BenchReport report("ingest");
  report.SetParam("scale", scale);
  report.SetParam("seed", seed);
  report.SetParam("ops", ops);

  bench::PrintHeader("prepare (stale seed generation: label 0 only)");
  Stopwatch prepare_watch;
  bench::Workbench wb = bench::PrepareWorkbench("MUT", scale);
  Configuration config = bench::DefaultConfig(12);
  auto model = std::make_shared<const GcnClassifier>(wb.model);
  auto seed_views = [&] {
    return ParallelApproxExplain(wb.model, wb.db, wb.assigned, {0}, config,
                                 {});
  };
  const size_t feeds = 4 * ops;
  const double prepare_seconds = prepare_watch.ElapsedSeconds();
  report.AddTiming("prepare", prepare_seconds);
  std::printf("%zu graphs, %zu feeds planned, %.2fs\n", wb.db.size(), feeds,
              prepare_seconds);

  bench::PrintHeader("ingest (solo closed-loop feed, WAL on)");
  Stopwatch ingest_watch;
  size_t solo_ok = 0;
  size_t solo_shed = 0;
  uint64_t solo_publishes = 0;
  {
    ViewRegistry registry;
    auto set = seed_views();
    if (!set.ok()) return 1;
    if (!registry.InstallViews(std::move(*set)).ok()) return 1;
    registry.InstallModel(model);
    const std::string wal = WalPath("bench_ingest_wal_solo.bin");
    ingest::IngestManager manager(&registry, model, MakeIngestOptions(wal));
    if (!manager.Start().ok()) return 1;
    ExplanationServer server(&registry, ServerOptions{});
    if (!server.Start().ok()) return 1;
    server.SetIngestHandler(
        [&manager](Request req) { return manager.Submit(std::move(req)); });
    Stopwatch watch;
    solo_ok = Feed(&server, wb, feeds, &solo_shed);
    const double seconds = watch.ElapsedSeconds();
    solo_publishes = manager.Info().published;
    server.SetIngestHandler(nullptr);
    server.Stop();
    manager.Stop();
    std::remove(wal.c_str());
    const double gps = seconds > 0.0 ? solo_ok / seconds : 0.0;
    std::printf("%zu fed, %zu shed, %.2fs  %.1f graphs/s  %llu publishes\n",
                solo_ok, solo_shed, seconds, gps,
                static_cast<unsigned long long>(solo_publishes));
    report.SetParam("ingest_throughput_gps", gps);
    report.SetParam("ingest_fed", solo_ok);
    report.SetParam("ingest_shed", solo_shed);
    report.SetParam("ingest_publishes", solo_publishes);
  }
  const double ingest_seconds = ingest_watch.ElapsedSeconds();
  report.AddTiming("ingest", ingest_seconds);
  if (solo_publishes == 0) {
    std::fprintf(stderr,
                 "drift-triggered auto-publish never fired under load\n");
    return 1;
  }
  {
    // The freshness SLO: how stale was the served generation when the
    // drift cut finally swapped it, and how far had it drifted.
    auto stale =
        obs::Registry::Global().GetHistogram("ingest.staleness_at_swap_ms")
            .Snapshot();
    auto drift =
        obs::Registry::Global().GetHistogram("ingest.drift_at_swap_bp")
            .Snapshot();
    std::printf("staleness at swap: mean %.0f ms, max %llu ms; "
                "drift at swap: mean %.0f bp\n",
                stale.Mean(), static_cast<unsigned long long>(stale.max),
                drift.Mean());
    report.SetParam("staleness_at_swap_ms_mean", stale.Mean());
    report.SetParam("staleness_at_swap_ms_max", stale.max);
    report.SetParam("drift_at_swap_bp_mean", drift.Mean());
  }

  bench::PrintHeader("mixed (fixed query stream during ingest)");
  Stopwatch mixed_watch;
  {
    ViewRegistry registry;
    auto set = seed_views();
    if (!set.ok()) return 1;
    if (!registry.InstallViews(std::move(*set)).ok()) return 1;
    registry.InstallModel(model);
    const std::string wal = WalPath("bench_ingest_wal_mixed.bin");
    ingest::IngestManager manager(&registry, model, MakeIngestOptions(wal));
    if (!manager.Start().ok()) return 1;
    ServerOptions options;
    options.num_workers = 2;
    ExplanationServer server(&registry, options);
    if (!server.Start().ok()) return 1;
    server.SetIngestHandler(
        [&manager](Request req) { return manager.Submit(std::move(req)); });

    Request query;
    query.type = RequestType::kSupport;
    query.label = 0;
    query.graph = datasets::NitroGroupPattern();
    query.has_graph = true;
    const std::string pre_answer =
        serve::EncodeResponseBody(server.Call(query));

    const size_t kClients = 2;
    std::vector<std::vector<std::string>> answers(kClients);
    std::vector<uint64_t> rtts_us;
    std::mutex merge_mu;
    std::vector<std::thread> clients;
    std::atomic<bool> feeding{true};
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<uint64_t> local;
        while (feeding.load(std::memory_order_relaxed)) {
          Stopwatch rtt;
          Response resp = server.Call(query);
          local.push_back(
              static_cast<uint64_t>(rtt.ElapsedSeconds() * 1e6));
          if (resp.ok()) {
            std::string body = serve::EncodeResponseBody(resp);
            if (answers[c].empty() || answers[c].back() != body) {
              answers[c].push_back(std::move(body));
            }
          }
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        rtts_us.insert(rtts_us.end(), local.begin(), local.end());
      });
    }
    size_t mixed_shed = 0;
    Stopwatch watch;
    const size_t mixed_ok = Feed(&server, wb, feeds, &mixed_shed);
    const double feed_seconds = watch.ElapsedSeconds();
    feeding.store(false, std::memory_order_relaxed);
    for (auto& t : clients) t.join();

    const uint64_t publishes = manager.Info().published;
    const std::string post_answer =
        serve::EncodeResponseBody(server.Call(query));
    server.SetIngestHandler(nullptr);
    server.Stop();
    manager.Stop();
    std::remove(wal.c_str());

    // Swap atomicity: each client saw a staircase of answers — it
    // starts on the seed generation, changes at most once per publish,
    // and ends on the final generation. A torn or flip-back answer
    // would add an extra distinct step.
    for (size_t c = 0; c < kClients; ++c) {
      const auto& steps = answers[c];
      if (steps.empty()) continue;
      if (steps.size() > publishes + 1) {
        std::fprintf(stderr,
                     "client %zu saw %zu distinct answers for %llu "
                     "publishes (torn or flip-back answer)\n",
                     c, steps.size(),
                     static_cast<unsigned long long>(publishes));
        return 1;
      }
      if (steps.front() != pre_answer) {
        std::fprintf(stderr, "client %zu first answer is not the seed "
                             "generation's\n", c);
        return 1;
      }
      if (steps.back() != post_answer && steps.back() != pre_answer) {
        std::fprintf(stderr, "client %zu last answer matches no live "
                             "generation\n", c);
        return 1;
      }
    }
    const double gps = feed_seconds > 0.0 ? mixed_ok / feed_seconds : 0.0;
    const uint64_t p50 = Percentile(rtts_us, 0.50);
    const uint64_t p99 = Percentile(rtts_us, 0.99);
    std::printf("%zu fed at %.1f graphs/s under %zu query clients; "
                "%zu queries, p50 %llu us, p99 %llu us; %llu publishes, "
                "answers stayed on the swap staircase\n",
                mixed_ok, gps, kClients, rtts_us.size(),
                static_cast<unsigned long long>(p50),
                static_cast<unsigned long long>(p99),
                static_cast<unsigned long long>(publishes));
    report.SetParam("mixed_throughput_gps", gps);
    report.SetParam("mixed_queries", rtts_us.size());
    report.SetParam("query_p50_during_ingest_us", p50);
    report.SetParam("query_p99_during_ingest_us", p99);
    report.SetParam("mixed_publishes", publishes);
    if (publishes == 0) {
      std::fprintf(stderr, "mixed run never auto-published\n");
      return 1;
    }
  }
  const double mixed_seconds = mixed_watch.ElapsedSeconds();
  report.AddTiming("mixed", mixed_seconds);

  report.AddTiming("total",
                   prepare_seconds + ingest_seconds + mixed_seconds);
  return 0;
}
