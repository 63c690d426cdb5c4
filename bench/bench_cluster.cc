// Cluster benchmark: the replication/serving additions measured end to
// end (in-process servers + a loopback TCP primary, so the numbers track
// the engine and the replication loop, not kernel socket throughput).
// Four sections:
//
//   publish   — publish -> install latency: encode a gvexbundle-v1 and
//               install it through the server's kInstall path (decode,
//               fingerprint verify, atomic swap, MatchCache pre-warm),
//               alternating two generations so every install is a real
//               content change.
//   catchup   — standby catch-up from an empty registry over loopback
//               TCP, cold (warm_after_install off) vs warm, plus the
//               first-query latency each standby then sees. The warm
//               standby pays the warm-up during catch-up and answers its
//               first query on hot MatchCache shards — the point of
//               `--follow`.
//   routes    — per-route throughput: closed-loop pattern queries against
//               one route vs the same offered load split across two
//               routes in one server.
//   fleet     — scatter-gather cost and tail control. (a) the same
//               corpus-wide pattern queries against one server holding
//               the union view set vs a ShardRouter over three shard
//               slices (the fan-out + merge overhead, which the fleet
//               buys back by running legs in parallel on real nodes);
//               (b) p99 with an injected slow shard (failpoint
//               serve.exec_delay) for an unhedged router vs a hedged
//               one whose standbys absorb the delayed legs.
//
//   bench_cluster [--scale S] [--seed N] [--ops N]
//
// Writes BENCH_cluster.json (gvex-bench-v1) with install latency
// percentiles, catch-up and first-query times, per-route throughput,
// and scatter-gather / hedging percentiles.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "gvex/cluster/bundle.h"
#include "gvex/cluster/replicator.h"
#include "gvex/cluster/router.h"
#include "gvex/cluster/shard_map.h"
#include "gvex/common/failpoint.h"
#include "gvex/common/rng.h"
#include "gvex/common/stopwatch.h"
#include "gvex/matching/match_cache.h"
#include "gvex/serve/server.h"
#include "gvex/serve/socket.h"
#include "gvex/serve/view_registry.h"

namespace gvex {
namespace {

using cluster::LocalShardChannel;
using cluster::Replicator;
using cluster::ReplicatorOptions;
using cluster::RouterOptions;
using cluster::ShardChannel;
using cluster::ShardEntry;
using cluster::ShardMap;
using cluster::ShardRouter;
using cluster::ViewBundle;
using serve::Endpoint;
using serve::ExplanationServer;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::ServerOptions;
using serve::SocketServer;
using serve::ViewRegistry;

uint64_t Percentile(std::vector<uint64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

ExplanationViewSet BuildViews(const bench::Workbench& wb, size_t u_l) {
  auto set = ParallelApproxExplain(wb.model, wb.db, wb.assigned, {0, 1},
                                   bench::DefaultConfig(u_l), {});
  if (!set.ok()) {
    std::fprintf(stderr, "explain: %s\n", set.status().ToString().c_str());
    std::abort();
  }
  return std::move(*set);
}

std::string EncodeInstall(const std::string& route,
                          const ExplanationViewSet& set, uint64_t generation) {
  ViewBundle bundle;
  bundle.route = route;
  bundle.generation = generation;
  bundle.views = set;
  auto encoded = cluster::EncodeBundle(bundle);
  if (!encoded.ok()) {
    std::fprintf(stderr, "encode: %s\n", encoded.status().ToString().c_str());
    std::abort();
  }
  return *std::move(encoded);
}

// Closed-loop pattern-query load with every request pinned to a route.
double RouteGoodputRps(ExplanationServer* server,
                       const std::vector<std::string>& client_routes,
                       size_t ops, uint64_t seed,
                       const std::vector<Graph>& pool) {
  std::mutex merge_mu;
  size_t ok = 0;
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(client_routes.size());
  for (size_t c = 0; c < client_routes.size(); ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + c);
      size_t local_ok = 0;
      for (size_t i = 0; i < ops; ++i) {
        Request req;
        req.type = rng.NextBounded(2) == 0 ? RequestType::kSupport
                                           : RequestType::kSubgraphsContaining;
        req.route = client_routes[c];
        req.label = static_cast<ClassLabel>(rng.NextBounded(2));
        req.graph = pool[rng.NextBounded(pool.size())];
        req.has_graph = true;
        if (server->Call(req).ok()) ++local_ok;
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      ok += local_ok;
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = watch.ElapsedSeconds();
  return seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0;
}

// One corpus-wide pattern query per op, closed loop, against whatever
// answers Call() — a union server or a router. Sequential on purpose:
// the hedging section's failpoint alignment depends on one scatter's
// failpoint hits finishing before the next scatter starts.
std::vector<uint64_t> ScatterLatencies(
    const std::function<Response(const Request&)>& call, size_t ops,
    const std::vector<Graph>& pool) {
  std::vector<uint64_t> us;
  us.reserve(ops);
  for (size_t i = 0; i < ops; ++i) {
    Request req;
    req.type = RequestType::kSupport;
    req.route = "fleet";
    req.label = static_cast<ClassLabel>(i % 2);
    req.graph = pool[i % pool.size()];
    req.has_graph = true;
    Stopwatch rtt;
    Response resp = call(req);
    if (!resp.ok()) {
      std::fprintf(stderr, "scatter query: %s\n", resp.message.c_str());
      std::abort();
    }
    us.push_back(static_cast<uint64_t>(rtt.ElapsedSeconds() * 1e6));
  }
  return us;
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
                   "usage: bench_cluster [--scale S] [--seed N] [--ops N]\n");
      return 2;
    }
  }

  bench::BenchReport report("cluster");
  report.SetParam("scale", scale);
  report.SetParam("seed", seed);
  report.SetParam("ops_per_client", ops);

  bench::PrintHeader("prepare (two view generations over one workbench)");
  Stopwatch prepare_watch;
  bench::Workbench wb = bench::PrepareWorkbench("MUT", scale);
  ExplanationViewSet views_a = BuildViews(wb, 12);
  ExplanationViewSet views_b = BuildViews(wb, 8);
  std::vector<Graph> pool;
  pool.push_back(datasets::NitroGroupPattern());
  for (const auto& view : views_a.views) {
    for (const Graph& p : view.patterns) pool.push_back(p);
  }
  const double prepare_seconds = prepare_watch.ElapsedSeconds();
  report.AddTiming("prepare", prepare_seconds);
  std::printf("%zu graphs, %zu query patterns, %.2fs\n", wb.db.size(),
              pool.size(), prepare_seconds);

  bench::PrintHeader("publish -> install latency (kInstall, alternating "
                     "generations)");
  Stopwatch publish_watch;
  std::vector<uint64_t> install_us;
  size_t bundle_bytes = 0;
  {
    ViewRegistry registry;
    ExplanationServer server(&registry);
    if (!server.Start().ok()) return 1;
    const std::string bundle_a = EncodeInstall("bench", views_a, 1);
    const std::string bundle_b = EncodeInstall("bench", views_b, 2);
    bundle_bytes = bundle_a.size();
    const size_t installs = std::max<size_t>(8, ops / 4);
    for (size_t i = 0; i < installs; ++i) {
      Request req;
      req.type = RequestType::kInstall;
      req.bundle = i % 2 == 0 ? bundle_a : bundle_b;
      Stopwatch rtt;
      Response resp = server.Call(req);
      if (!resp.ok()) {
        std::fprintf(stderr, "install: %s\n", resp.message.c_str());
        return 1;
      }
      install_us.push_back(
          static_cast<uint64_t>(rtt.ElapsedSeconds() * 1e6));
    }
    server.Stop();
  }
  const double publish_seconds = publish_watch.ElapsedSeconds();
  report.AddTiming("publish_install", publish_seconds);
  report.SetParam("bundle_bytes", static_cast<uint64_t>(bundle_bytes));
  report.SetParam("install_count", install_us.size());
  report.SetParam("install_p50_us", Percentile(install_us, 0.50));
  report.SetParam("install_p99_us", Percentile(install_us, 0.99));
  std::printf("%zu installs of %zu-byte bundles: p50 %llu us, p99 %llu us\n",
              install_us.size(), bundle_bytes,
              static_cast<unsigned long long>(Percentile(install_us, 0.50)),
              static_cast<unsigned long long>(Percentile(install_us, 0.99)));

  bench::PrintHeader("standby catch-up over loopback TCP (cold vs warm)");
  Stopwatch catchup_watch;
  double catchup_ms[2] = {0.0, 0.0};
  double first_query_us[2] = {0.0, 0.0};
  {
    ViewRegistry primary;
    if (!primary.InstallViews(ExplanationViewSet(views_a)).ok()) return 1;
    ExplanationServer primary_server(&primary);
    if (!primary_server.Start().ok()) return 1;
    SocketServer primary_socket(&primary_server);
    if (!primary_socket.Start(Endpoint::Tcp(0)).ok()) return 1;

    for (int leg = 0; leg < 2; ++leg) {
      const bool warm = leg == 1;
      MatchCache::Global().Clear();
      ViewRegistry standby;
      ReplicatorOptions options;
      options.primary = Endpoint::Tcp(primary_socket.bound_port());
      options.warm_after_install = warm;
      Replicator replicator(&standby, options);
      Stopwatch sync_watch;
      Status synced = replicator.SyncOnce();
      if (!synced.ok()) {
        std::fprintf(stderr, "sync: %s\n", synced.ToString().c_str());
        return 1;
      }
      catchup_ms[leg] = sync_watch.ElapsedSeconds() * 1e3;

      ExplanationServer standby_server(&standby);
      if (!standby_server.Start().ok()) return 1;
      Request req;
      req.type = RequestType::kSupport;
      req.label = 0;
      req.graph = pool.size() > 1 ? pool[1] : pool[0];
      req.has_graph = true;
      Stopwatch first;
      if (!standby_server.Call(req).ok()) return 1;
      first_query_us[leg] = first.ElapsedSeconds() * 1e6;
      standby_server.Stop();
    }
    primary_socket.Stop();
    primary_server.Stop();
  }
  const double catchup_seconds = catchup_watch.ElapsedSeconds();
  report.AddTiming("catchup", catchup_seconds);
  report.SetParam("catchup_cold_ms", catchup_ms[0]);
  report.SetParam("catchup_warm_ms", catchup_ms[1]);
  report.SetParam("first_query_cold_us", first_query_us[0]);
  report.SetParam("first_query_warm_us", first_query_us[1]);
  const double first_ratio = first_query_us[1] > 0.0
                                 ? first_query_us[0] / first_query_us[1]
                                 : 0.0;
  report.SetParam("first_query_cold_over_warm", first_ratio);
  std::printf("catch-up cold %.1f ms (first query %.0f us), "
              "warm %.1f ms (first query %.0f us), cold/warm %.2fx\n",
              catchup_ms[0], first_query_us[0], catchup_ms[1],
              first_query_us[1], first_ratio);

  bench::PrintHeader("per-route throughput (one route vs two routes)");
  Stopwatch routes_watch;
  double rps_one = 0.0;
  double rps_two = 0.0;
  {
    ViewRegistry registry;
    if (!registry.InstallViews("a", ExplanationViewSet(views_a)).ok()) {
      return 1;
    }
    if (!registry.InstallViews("b", ExplanationViewSet(views_b)).ok()) {
      return 1;
    }
    registry.WarmMatchCache("a");
    registry.WarmMatchCache("b");
    ServerOptions options;
    options.num_workers = 4;
    ExplanationServer server(&registry, options);
    if (!server.Start().ok()) return 1;
    rps_one = RouteGoodputRps(&server, {"a", "a", "a", "a"}, ops, seed, pool);
    rps_two = RouteGoodputRps(&server, {"a", "a", "b", "b"}, ops, seed, pool);
    server.Stop();
  }
  const double routes_seconds = routes_watch.ElapsedSeconds();
  report.AddTiming("routes", routes_seconds);
  report.SetParam("route_rps_one_route", rps_one);
  report.SetParam("route_rps_two_routes", rps_two);
  std::printf("4 clients on 1 route: %.1f rps; split across 2 routes: "
              "%.1f rps\n",
              rps_one, rps_two);

  bench::PrintHeader("fleet: scatter-gather vs union, hedged vs unhedged");
  Stopwatch fleet_watch;
  std::vector<uint64_t> union_us;
  std::vector<uint64_t> fleet_us;
  std::vector<uint64_t> unhedged_us;
  std::vector<uint64_t> hedged_us;
  uint64_t hedges_fired = 0;
  uint64_t hedge_wins = 0;
  {
    // Endpoints are never dialed — LocalShardChannel drives the shard
    // servers in-process — but the map format requires them.
    auto map = cluster::ShardMap::Create(
        {{"left", "unix:/tmp/unused-l.sock", ""},
         {"mid", "unix:/tmp/unused-m.sock", ""},
         {"right", "unix:/tmp/unused-r.sock", ""}});
    if (!map.ok()) {
      std::fprintf(stderr, "shardmap: %s\n", map.status().ToString().c_str());
      return 1;
    }
    ViewBundle bundle;
    bundle.route = "fleet";
    bundle.generation = 1;
    bundle.views = views_a;
    const std::vector<ViewBundle> parts = map->Partition(bundle);

    // Enough workers that hedge-loser legs sleeping inside the injected
    // delay never exhaust a shard's pool and queue the next scatter.
    ServerOptions fleet_options;
    fleet_options.num_workers = 8;
    ViewRegistry union_registry;
    if (!union_registry.InstallBundle(bundle).ok()) return 1;
    ExplanationServer union_server(&union_registry, fleet_options);
    if (!union_server.Start().ok()) return 1;

    ViewRegistry shard_registries[3];
    ViewRegistry standby_registries[3];
    std::unique_ptr<ExplanationServer> shards[3];
    std::unique_ptr<ExplanationServer> standbys[3];
    for (size_t i = 0; i < 3; ++i) {
      if (!shard_registries[i].InstallBundle(parts[i]).ok()) return 1;
      if (!standby_registries[i].InstallBundle(parts[i]).ok()) return 1;
      shards[i] = std::make_unique<ExplanationServer>(&shard_registries[i],
                                                      fleet_options);
      standbys[i] = std::make_unique<ExplanationServer>(&standby_registries[i],
                                                        fleet_options);
      if (!shards[i]->Start().ok() || !standbys[i]->Start().ok()) return 1;
    }
    auto make_channels = [&](bool with_standbys) {
      std::vector<std::unique_ptr<ShardChannel>> channels;
      for (size_t i = 0; i < 3; ++i) {
        channels.push_back(std::make_unique<LocalShardChannel>(
            shards[i].get(), with_standbys ? standbys[i].get() : nullptr));
      }
      return channels;
    };

    // (a) Fan-out + merge overhead on a healthy fleet: the identical
    // corpus-wide support queries against the union server and against
    // the router (which scatters to three shards and sums).
    {
      ShardRouter router(*map, make_channels(false), RouterOptions{});
      union_us = ScatterLatencies(
          [&](const Request& req) { return union_server.Call(req); }, ops,
          pool);
      fleet_us = ScatterLatencies(
          [&](const Request& req) { return router.Call(req); }, ops, pool);
    }

    // (b) Tail latency under a slow shard. delay(50),1in(4) with
    // sequential scatters: unhedged, each scatter hits the failpoint
    // three times (one leg per shard), so the 50 ms stall lands inside
    // three of every four scatters and is their answer time. Hedged,
    // the stalled leg's standby fires after hedge_ms and its Execute is
    // the fourth hit of the cycle (the three primaries always count
    // first), so the standby never stalls — the slow leg costs
    // ~hedge_ms instead of the full delay.
    {
      ShardRouter unhedged(*map, make_channels(false), RouterOptions{});
      failpoint::ScopedFailpoint slow("serve.exec_delay", "delay(50),1in(4)");
      unhedged_us = ScatterLatencies(
          [&](const Request& req) { return unhedged.Call(req); }, ops, pool);
    }
    {
      RouterOptions hedge_options;
      hedge_options.hedge_ms = 10;
      ShardRouter hedged(*map, make_channels(true), hedge_options);
      failpoint::ScopedFailpoint slow("serve.exec_delay", "delay(50),1in(4)");
      hedged_us = ScatterLatencies(
          [&](const Request& req) { return hedged.Call(req); }, ops, pool);
      const cluster::RouterStats stats = hedged.stats();
      hedges_fired = stats.hedges_fired;
      hedge_wins = stats.hedge_wins;
    }

    for (size_t i = 0; i < 3; ++i) {
      shards[i]->Stop();
      standbys[i]->Stop();
    }
    union_server.Stop();
  }
  const double fleet_seconds = fleet_watch.ElapsedSeconds();
  report.AddTiming("fleet", fleet_seconds);
  report.SetParam("scatter_union_p50_us", Percentile(union_us, 0.50));
  report.SetParam("scatter_union_p99_us", Percentile(union_us, 0.99));
  report.SetParam("scatter_fleet_p50_us", Percentile(fleet_us, 0.50));
  report.SetParam("scatter_fleet_p99_us", Percentile(fleet_us, 0.99));
  report.SetParam("scatter_unhedged_p99_us", Percentile(unhedged_us, 0.99));
  report.SetParam("scatter_hedged_p99_us", Percentile(hedged_us, 0.99));
  const uint64_t hedged_p99 = Percentile(hedged_us, 0.99);
  const double hedge_speedup =
      hedged_p99 > 0
          ? static_cast<double>(Percentile(unhedged_us, 0.99)) /
                static_cast<double>(hedged_p99)
          : 0.0;
  report.SetParam("hedged_p99_speedup", hedge_speedup);
  report.SetParam("hedges_fired", hedges_fired);
  report.SetParam("hedge_wins", hedge_wins);
  std::printf("healthy: union p50 %llu us p99 %llu us, fleet p50 %llu us "
              "p99 %llu us\n",
              static_cast<unsigned long long>(Percentile(union_us, 0.50)),
              static_cast<unsigned long long>(Percentile(union_us, 0.99)),
              static_cast<unsigned long long>(Percentile(fleet_us, 0.50)),
              static_cast<unsigned long long>(Percentile(fleet_us, 0.99)));
  std::printf("slow shard: unhedged p99 %llu us, hedged p99 %llu us "
              "(%.1fx; %llu hedges, %llu wins)\n",
              static_cast<unsigned long long>(Percentile(unhedged_us, 0.99)),
              static_cast<unsigned long long>(hedged_p99), hedge_speedup,
              static_cast<unsigned long long>(hedges_fired),
              static_cast<unsigned long long>(hedge_wins));

  report.AddTiming("total", prepare_seconds + publish_seconds +
                                catchup_seconds + routes_seconds +
                                fleet_seconds);
  return 0;
}
