// Serving benchmark: closed-loop load generation against the
// ExplanationServer (in-process, so the numbers measure the engine, not
// the kernel's socket stack). Four sections:
//
//   prepare   — train the toy model, build views, install into a registry
//   capacity  — CPU-bound pattern queries (MatchCache off), 1 vs 4 workers
//   scaling   — SLO goodput with a modeled per-request service time (the
//               "serve.exec_delay" failpoint) and a deadline of 4x that
//               service time: with 1 worker, head-of-line blocking expires
//               queued requests; 4 workers sustain the same offered load.
//               The headline throughput_scaling_w4_over_w1 is the goodput
//               ratio of the two runs (this machine may have 1 core;
//               delay-modeled service time overlaps across workers, so
//               worker scaling is measurable regardless).
//   overload  — burst into workers=1/max_queue=4: requests beyond the
//               bound shed with kOverloaded and the queue never exceeds
//               its cap.
//
//   bench_serve [--scale S] [--seed N] [--ops N] [--delay-ms D]
//
// Writes BENCH_serve.json (gvex-bench-v1) with throughput, p50/p99
// latency, goodput per worker count, and shed statistics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "gvex/common/failpoint.h"
#include "gvex/common/rng.h"
#include "gvex/common/stopwatch.h"
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

struct LoadStats {
  size_t ok = 0;
  size_t shed = 0;
  size_t timeout = 0;
  size_t other = 0;
  double seconds = 0.0;
  std::vector<uint64_t> ok_rtts_us;

  size_t total() const { return ok + shed + timeout + other; }
  double goodput_rps() const { return seconds > 0.0 ? ok / seconds : 0.0; }
};

uint64_t Percentile(std::vector<uint64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

// Closed-loop generator: `clients` threads, each issuing `ops` seeded
// pattern queries back-to-back (next request leaves when the previous
// response lands). Per-client RNG is seeded from --seed so two runs of
// the bench replay the identical request mix.
LoadStats RunClosedLoop(ViewRegistry* registry, size_t workers,
                        size_t clients, size_t ops, uint32_t deadline_ms,
                        size_t max_queue, uint64_t seed,
                        const std::vector<Graph>& pool) {
  ServerOptions options;
  options.num_workers = workers;
  options.max_queue = max_queue;
  options.use_match_cache = false;  // every request does real matching
  ExplanationServer server(registry, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start: %s\n", started.ToString().c_str());
    std::abort();
  }

  LoadStats stats;
  std::mutex merge_mu;
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + c);
      LoadStats local;
      for (size_t i = 0; i < ops; ++i) {
        Request req;
        switch (rng.NextBounded(3)) {
          case 0: req.type = RequestType::kSupport; break;
          case 1: req.type = RequestType::kSubgraphsContaining; break;
          default: req.type = RequestType::kFindHits; break;
        }
        req.label = static_cast<ClassLabel>(rng.NextBounded(2));
        req.graph = pool[rng.NextBounded(pool.size())];
        req.has_graph = true;
        req.deadline_ms = deadline_ms;
        req.max_embeddings = 4;
        Stopwatch rtt;
        Response resp = server.Call(req);
        const double us = rtt.ElapsedSeconds() * 1e6;
        if (resp.ok()) {
          ++local.ok;
          local.ok_rtts_us.push_back(static_cast<uint64_t>(us));
        } else if (resp.code == StatusCode::kOverloaded) {
          ++local.shed;
        } else if (resp.code == StatusCode::kTimeout) {
          ++local.timeout;
        } else {
          ++local.other;
        }
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      stats.ok += local.ok;
      stats.shed += local.shed;
      stats.timeout += local.timeout;
      stats.other += local.other;
      stats.ok_rtts_us.insert(stats.ok_rtts_us.end(),
                              local.ok_rtts_us.begin(),
                              local.ok_rtts_us.end());
    });
  }
  for (auto& t : threads) t.join();
  stats.seconds = watch.ElapsedSeconds();
  server.Stop();
  return stats;
}

void PrintLoad(const char* title, const LoadStats& s) {
  std::printf("%-24s %6zu ok %5zu shed %5zu timeout %5zu other  "
              "%8.1f rps  p50 %6llu us  p99 %6llu us  (%.2fs)\n",
              title, s.ok, s.shed, s.timeout, s.other, s.goodput_rps(),
              static_cast<unsigned long long>(Percentile(s.ok_rtts_us, 0.50)),
              static_cast<unsigned long long>(Percentile(s.ok_rtts_us, 0.99)),
              s.seconds);
}

}  // namespace
}  // namespace gvex

int main(int argc, char** argv) {
  using namespace gvex;
  double scale = 0.3;
  uint64_t seed = 42;
  size_t ops = 50;
  uint32_t delay_ms = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--scale") == 0) {
      scale = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      ops = static_cast<size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--delay-ms") == 0) {
      delay_ms = static_cast<uint32_t>(std::atoi(argv[i + 1]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve [--scale S] [--seed N] [--ops N] "
                   "[--delay-ms D]\n");
      return 2;
    }
  }

  bench::BenchReport report("serve");
  report.SetParam("scale", scale);
  report.SetParam("seed", seed);
  report.SetParam("ops_per_client", ops);
  report.SetParam("delay_ms", static_cast<uint64_t>(delay_ms));

  bench::PrintHeader("prepare (synthetic Mutagenicity view)");
  Stopwatch prepare_watch;
  bench::Workbench wb = bench::PrepareWorkbench("MUT", scale);
  Configuration config = bench::DefaultConfig(12);
  auto explained = ParallelApproxExplain(wb.model, wb.db, wb.assigned,
                                         {0, 1}, config, {});
  if (!explained.ok()) {
    std::fprintf(stderr, "explain: %s\n",
                 explained.status().ToString().c_str());
    return 1;
  }
  ExplanationViewSet set = std::move(*explained);
  std::vector<Graph> pool;
  pool.push_back(datasets::NitroGroupPattern());
  for (const auto& view : set.views) {
    for (const Graph& p : view.patterns) pool.push_back(p);
  }
  ViewRegistry registry;
  if (!registry.InstallViews(std::move(set)).ok()) return 1;
  registry.InstallModel(std::make_shared<const GcnClassifier>(wb.model));
  const double prepare_seconds = prepare_watch.ElapsedSeconds();
  report.AddTiming("prepare", prepare_seconds);
  std::printf("%zu graphs, %zu query patterns, %.2fs\n", wb.db.size(),
              pool.size(), prepare_seconds);

  bench::PrintHeader("capacity (CPU-bound, MatchCache off)");
  Stopwatch capacity_watch;
  LoadStats cap_w1 = RunClosedLoop(&registry, 1, 4, ops, 0, 256, seed, pool);
  LoadStats cap_w4 = RunClosedLoop(&registry, 4, 4, ops, 0, 256, seed, pool);
  const double capacity_seconds = capacity_watch.ElapsedSeconds();
  report.AddTiming("capacity", capacity_seconds);
  PrintLoad("raw w1", cap_w1);
  PrintLoad("raw w4", cap_w4);
  report.SetParam("raw_rps_w1", cap_w1.goodput_rps());
  report.SetParam("raw_rps_w4", cap_w4.goodput_rps());

  bench::PrintHeader("scaling (delay-modeled service time, SLO goodput)");
  const uint32_t deadline_ms = 4 * delay_ms;
  LoadStats slo_w1, slo_w4;
  Stopwatch scaling_watch;
  {
    failpoint::ScopedFailpoint delay(
        "serve.exec_delay", "delay(" + std::to_string(delay_ms) + ")");
    slo_w1 = RunClosedLoop(&registry, 1, 8, ops, deadline_ms, 16, seed, pool);
    report.AddTiming("scaling_w1", slo_w1.seconds);
    slo_w4 = RunClosedLoop(&registry, 4, 8, ops, deadline_ms, 16, seed, pool);
    report.AddTiming("scaling_w4", slo_w4.seconds);
  }
  const double scaling_seconds = scaling_watch.ElapsedSeconds();
  PrintLoad("slo w1", slo_w1);
  PrintLoad("slo w4", slo_w4);
  const double scaling = slo_w1.goodput_rps() > 0.0
                             ? slo_w4.goodput_rps() / slo_w1.goodput_rps()
                             : 0.0;
  std::printf("goodput scaling w4/w1: %.2fx (deadline %u ms, service %u ms)\n",
              scaling, deadline_ms, delay_ms);
  report.SetParam("goodput_w1", slo_w1.goodput_rps());
  report.SetParam("goodput_w4", slo_w4.goodput_rps());
  report.SetParam("throughput_rps", slo_w4.goodput_rps());
  report.SetParam("throughput_scaling_w4_over_w1", scaling);
  report.SetParam("latency_p50_us", Percentile(slo_w4.ok_rtts_us, 0.50));
  report.SetParam("latency_p99_us", Percentile(slo_w4.ok_rtts_us, 0.99));
  report.SetParam("deadline_miss_w1", slo_w1.timeout);
  report.SetParam("deadline_miss_w4", slo_w4.timeout);

  bench::PrintHeader("overload (burst into workers=1, max_queue=4)");
  Stopwatch overload_watch;
  LoadStats burst;
  {
    failpoint::ScopedFailpoint delay(
        "serve.exec_delay", "delay(" + std::to_string(delay_ms) + ")");
    ServerOptions options;
    options.num_workers = 1;
    options.max_queue = 4;
    options.use_match_cache = false;
    ExplanationServer server(&registry, options);
    if (!server.Start().ok()) return 1;
    std::vector<std::future<Response>> futures;
    Rng rng(seed);
    Stopwatch watch;
    for (size_t i = 0; i < 64; ++i) {
      Request req;
      req.type = RequestType::kSupport;
      req.label = static_cast<ClassLabel>(rng.NextBounded(2));
      req.graph = pool[rng.NextBounded(pool.size())];
      req.has_graph = true;
      futures.push_back(server.Submit(req));
    }
    for (auto& f : futures) {
      Response resp = f.get();
      if (resp.ok()) {
        ++burst.ok;
      } else if (resp.code == StatusCode::kOverloaded) {
        ++burst.shed;
      } else {
        ++burst.other;
      }
    }
    burst.seconds = watch.ElapsedSeconds();
    report.SetParam("overload_queue_peak", server.queue_peak());
    std::printf("burst of 64: %zu ok, %zu shed (kOverloaded), %zu other; "
                "queue peak %zu (cap %zu)\n",
                burst.ok, burst.shed, burst.other, server.queue_peak(),
                options.max_queue);
    server.Stop();
  }
  const double overload_seconds = overload_watch.ElapsedSeconds();
  report.AddTiming("overload", overload_seconds);
  report.SetParam("overload_ok", burst.ok);
  report.SetParam("overload_shed", burst.shed);
  if (burst.shed == 0) {
    std::fprintf(stderr, "overload run failed to shed any request\n");
    return 1;
  }

  report.AddTiming("total", prepare_seconds + capacity_seconds +
                                scaling_seconds + overload_seconds);
  return 0;
}
