// ExplanationServer — the concurrent query engine of the serving tier.
//
// Requests enter through an admission-controlled bounded queue: when the
// queue is full the request is shed immediately with kOverloaded instead
// of queuing unboundedly (load shedding beats collapse; the bench's
// overload run pins this). Admitted requests are dispatched to a fixed
// set of worker threads; a worker drains up to `batch_max` queued
// pattern queries against the same view in one claim (micro-batching:
// one registry snapshot pin and one view resolution per batch, and
// consecutive same-view matches reuse warm MatchCache shards). Inner
// per-request work (VF2 kernels, coverage) still lands on the shared
// ThreadPool via the existing hot paths, so request-level and
// operator-level parallelism compose (DESIGN.md §8).
//
// Deadlines ride the existing CancellationToken: each admitted request
// with a deadline registers its token with a monitor thread that flips
// it at expiry; ViewQuery checks the token between per-subgraph matches,
// the worker maps a flipped token to kTimeout, and requests that expire
// while still queued are dropped in O(1) at dispatch
// ("serve.deadline_miss").
//
// Route quotas (gvex::cluster self-protection): each route may carry an
// admission budget — a per-route queue depth and a worker-share cap —
// so a bursty experimental route sheds with kQuotaExceeded at its own
// budget instead of starving the default route of the shared queue and
// worker pool. Depth is enforced at admission; the worker share is
// enforced at dispatch (a worker skips queued requests whose route
// already occupies its worker cap), so an over-quota route's backlog can
// wait while other routes' requests overtake it. Routes without a quota
// are bounded only by the global max_queue.
//
// Failpoints: "serve.admit" (injects admission failure, e.g.
// error(overloaded)), "serve.exec" (injects execution failure),
// "serve.exec_delay" (delay(<ms>): per-request service time — used by
// the deadline tests and as the load-generator service-time model).
//
// Obs: "serve.*" counters (requests, shed, deadline_miss, batches,
// batched_requests, responses_ok, responses_error) and histograms
// (queue_wait_us, batch_size, exec_<endpoint>_us). StatsJson() — also
// reachable over the wire as RequestType::kStats — dumps them with the
// registry generation and queue state.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gvex/common/cancellation.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/view_registry.h"

namespace gvex {
namespace serve {

/// \brief Admission budget for one route. Zero fields are unlimited.
struct RouteQuota {
  /// Queue-depth budget: queued requests of the route beyond this are
  /// shed with kQuotaExceeded at admission.
  size_t max_depth = 0;
  /// Worker-share budget in (0, 1]: the route may occupy at most
  /// max(1, floor(share * num_workers)) workers concurrently.
  double worker_share = 0.0;
};

/// Parse "name=depth[:share]" (the `serve --route-quota` grammar) into a
/// (route, quota) pair. depth 0 means "no depth bound" (share-only
/// quotas); share, when present, must be in (0, 1].
Result<std::pair<std::string, RouteQuota>> ParseRouteQuotaSpec(
    const std::string& spec);

struct ServerOptions {
  size_t num_workers = 4;
  /// Admission bound: requests beyond this queue depth are shed with
  /// kOverloaded.
  size_t max_queue = 256;
  /// Micro-batch cap: a worker drains up to this many same-view pattern
  /// queries per claim (1 disables batching).
  size_t batch_max = 8;
  /// Applied when a request carries no deadline (0 = none).
  uint32_t default_deadline_ms = 0;
  /// Route matches through the shared MatchCache (default). The serving
  /// bench disables this so every request performs real matching work.
  bool use_match_cache = true;
  /// Per-route admission budgets, keyed by route name (the default route
  /// is cluster::kDefaultRoute). Routes without an entry are unbounded
  /// up to max_queue.
  std::map<std::string, RouteQuota> route_quotas;
};

class ExplanationServer {
 public:
  explicit ExplanationServer(ViewRegistry* registry,
                             ServerOptions options = {});
  ~ExplanationServer();

  ExplanationServer(const ExplanationServer&) = delete;
  ExplanationServer& operator=(const ExplanationServer&) = delete;

  /// Spawn the worker and deadline-monitor threads. Idempotent.
  Status Start();

  /// Drain the queue, join every thread. New submissions are rejected
  /// with kFailedPrecondition once stopping. Idempotent.
  void Stop();

  /// Admission point. Returns a future that is already satisfied when
  /// the request is shed (kOverloaded) or rejected; otherwise it
  /// resolves when a worker completes the request.
  std::future<Response> Submit(Request req);

  /// Synchronous convenience wrapper around Submit.
  Response Call(const Request& req);

  const ServerOptions& options() const { return options_; }
  ViewRegistry* registry() const { return registry_; }

  size_t queue_depth() const;
  /// High-watermark of the queue depth since Start — the overload bench
  /// asserts this never exceeds max_queue.
  size_t queue_peak() const;

  /// The kStats payload: generation, queue state, and every "serve.*"
  /// counter/histogram as a JSON object.
  std::string StatsJson() const;

  /// Per-route admission occupancy (queued, active, quota, sheds) for
  /// every route seen since Start — the kHealth loads table.
  std::vector<RouteLoad> RouteLoads() const;

  /// The kHealth payload, minus whatever the hook adds.
  HealthInfo Health() const;

  /// Lets the process owner (the CLI) graft replication state onto
  /// kHealth responses: the hook runs after the server fills its own
  /// fields. Pass nullptr to clear. Must not call back into the server.
  void SetHealthHook(std::function<void(HealthInfo*)> hook);

  /// Routes kIngest requests to the live-ingest subsystem (gvex::ingest)
  /// at admission time, bypassing the shared query queue entirely — the
  /// handler owns its own admission bound and dedicated worker. Without a
  /// handler, kIngest answers kFailedPrecondition. Pass nullptr to clear.
  /// Must not call back into the server.
  using IngestHandler = std::function<std::future<Response>(Request)>;
  void SetIngestHandler(IngestHandler handler);

  /// Answers kEvaluate requests with the explainer zoo (gvex::zoo).
  /// Unlike the ingest hook, evaluations ride the shared query queue —
  /// admission, route quotas, deadlines, and cancellation apply
  /// unchanged; the handler runs on a worker thread and must honor the
  /// CancellationToken between graphs. Without a handler, kEvaluate
  /// answers kFailedPrecondition. Pass nullptr to clear. Must not call
  /// back into the server.
  using EvaluateHandler =
      std::function<Response(const Request&, const CancellationToken*)>;
  void SetEvaluateHandler(EvaluateHandler handler);

 private:
  struct Item {
    Request req;
    std::promise<Response> promise;
    std::shared_ptr<CancellationToken> cancel;
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    uint64_t enqueue_us = 0;
  };

  class DeadlineMonitor {
   public:
    void Start();
    void Stop();
    void Watch(std::shared_ptr<CancellationToken> token,
               std::chrono::steady_clock::time_point deadline);

   private:
    void Loop();

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<std::pair<std::chrono::steady_clock::time_point,
                          std::shared_ptr<CancellationToken>>>
        entries_;
    std::thread thread_;
    bool stopping_ = false;
    bool started_ = false;
  };

  /// Occupancy bookkeeping for one route (created on first sight).
  struct RouteCounters {
    size_t queued = 0;          ///< items of this route currently in queue
    size_t active = 0;          ///< workers currently executing this route
    uint64_t quota_shed = 0;    ///< admission sheds with kQuotaExceeded
  };

  void WorkerLoop();
  /// Worker cap for `route` under its quota (0 = unlimited).
  size_t MaxActiveWorkers(const std::string& route) const;
  /// True when some queued item may be dispatched right now (its route is
  /// under its worker cap, or the server is draining).
  bool AnyDispatchableLocked() const;
  bool DispatchableLocked(const Item& item) const;
  std::vector<std::unique_ptr<Item>> TakeBatchLocked();
  void Process(Item* item, const LoadedViewSet* snap);
  Response Execute(const Request& req, const LoadedViewSet* snap,
                   const CancellationToken* cancel) const;

  ViewRegistry* registry_;
  ServerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Item>> queue_;
  size_t queue_peak_ = 0;
  bool started_ = false;
  bool stopping_ = false;
  std::map<std::string, RouteCounters> route_load_;
  std::function<void(HealthInfo*)> health_hook_;
  IngestHandler ingest_handler_;
  EvaluateHandler evaluate_handler_;

  std::vector<std::thread> workers_;
  DeadlineMonitor monitor_;
};

}  // namespace serve
}  // namespace gvex
