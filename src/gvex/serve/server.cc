#include "gvex/serve/server.h"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdlib>
#include <utility>

#include "gvex/common/arena.h"
#include "gvex/common/failpoint.h"
#include "gvex/explain/query.h"
#include "gvex/matching/match_cache.h"
#include "gvex/obs/json.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

RouteInfo ToRouteInfo(const RouteStatus& status) {
  RouteInfo info;
  info.route = status.route;
  info.generation = status.generation;
  info.source_generation = status.source_generation;
  info.fingerprint = status.fingerprint;
  info.warmed = status.warmed;
  info.warm_pairs = status.warm_pairs;
  return info;
}

bool HasPair(const Graph& pattern, const Graph& target,
             const MatchOptions& options, bool use_cache) {
  if (use_cache) {
    return MatchCache::Global().HasMatch(pattern, target, options);
  }
  return Vf2Matcher::HasMatch(pattern, target, options);
}

/// Per-endpoint latency histograms `serve.exec_<name>_us`, resolved
/// once from the wire names (registry references are stable for the
/// process lifetime).
obs::Histogram& EndpointHistogram(RequestType type) {
  static const std::array<obs::Histogram*, kRequestTypeLimit> hists = [] {
    std::array<obs::Histogram*, kRequestTypeLimit> table{};
    for (size_t i = 0; i < kRequestTypeLimit; ++i) {
      if (const char* name = RequestTypeName(static_cast<RequestType>(i))) {
        table[i] = &obs::Registry::Global().GetHistogram(
            std::string("serve.exec_") + name + "_us");
      }
    }
    return table;
  }();
  return *hists[static_cast<size_t>(type)];
}

/// Local coverage summary of one view: what this server's slice of the
/// corpus contributes, recomputed from the subgraph tier in tier order
/// (the same summation order on a shard slice and on a union server).
ViewCoverage CoverageOf(const ExplanationView& view) {
  ViewCoverage c;
  c.label = view.label;
  c.patterns = view.patterns.size();
  c.subgraphs = view.subgraphs.size();
  for (const ExplanationSubgraph& sub : view.subgraphs) {
    c.nodes += sub.subgraph.num_nodes();
    c.edges += sub.subgraph.num_edges();
    c.explainability += sub.explainability;
    c.graph_indices.push_back(sub.graph_index);
  }
  return c;
}

}  // namespace

Result<std::pair<std::string, RouteQuota>> ParseRouteQuotaSpec(
    const std::string& spec) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("bad route quota '" + spec +
                                   "' (want name=depth[:share])");
  }
  const std::string route = spec.substr(0, eq);
  if (!cluster::IsValidRouteName(route)) {
    return Status::InvalidArgument("bad route name in quota: '" + route + "'");
  }
  std::string budget = spec.substr(eq + 1);
  RouteQuota quota;
  const size_t colon = budget.find(':');
  if (colon != std::string::npos) {
    char* end = nullptr;
    quota.worker_share = std::strtod(budget.c_str() + colon + 1, &end);
    if (end == nullptr || *end != '\0' || quota.worker_share <= 0.0 ||
        quota.worker_share > 1.0) {
      return Status::InvalidArgument("bad worker share in quota '" + spec +
                                     "' (want a fraction in (0, 1])");
    }
    budget = budget.substr(0, colon);
  }
  char* end = nullptr;
  const long depth = std::strtol(budget.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || budget.empty() || depth < 0) {
    return Status::InvalidArgument("bad queue depth in quota '" + spec + "'");
  }
  quota.max_depth = static_cast<size_t>(depth);
  if (quota.max_depth == 0 && quota.worker_share == 0.0) {
    return Status::InvalidArgument("quota '" + spec +
                                   "' bounds nothing (depth 0, no share)");
  }
  return std::make_pair(route, quota);
}

// ---- DeadlineMonitor --------------------------------------------------------

void ExplanationServer::DeadlineMonitor::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void ExplanationServer::DeadlineMonitor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
  entries_.clear();
}

void ExplanationServer::DeadlineMonitor::Watch(
    std::shared_ptr<CancellationToken> token, Clock::time_point deadline) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace_back(deadline, std::move(token));
  }
  cv_.notify_all();
}

void ExplanationServer::DeadlineMonitor::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    const Clock::time_point now = Clock::now();
    Clock::time_point next = now + std::chrono::seconds(1);
    // Fire expired tokens, find the earliest pending deadline.
    size_t kept = 0;
    for (auto& entry : entries_) {
      if (entry.first <= now) {
        entry.second->RequestCancel(
            Status::Timeout("request deadline expired"));
        continue;  // dropped
      }
      next = std::min(next, entry.first);
      entries_[kept++] = std::move(entry);
    }
    entries_.resize(kept);
    cv_.wait_until(lock, next);
  }
}

// ---- ExplanationServer ------------------------------------------------------

ExplanationServer::ExplanationServer(ViewRegistry* registry,
                                     ServerOptions options)
    : registry_(registry), options_(options) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.max_queue == 0) options_.max_queue = 1;
  if (options_.batch_max == 0) options_.batch_max = 1;
}

ExplanationServer::~ExplanationServer() { Stop(); }

Status ExplanationServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::OK();
  started_ = true;
  stopping_ = false;
  queue_peak_ = 0;
  monitor_.Start();
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void ExplanationServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  monitor_.Stop();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

std::future<Response> ExplanationServer::Submit(Request req) {
  GVEX_COUNTER_INC("serve.requests");
  auto item = std::make_unique<Item>();
  item->req = std::move(req);
  item->cancel = std::make_shared<CancellationToken>();
  item->enqueue_us = obs::NowMicros();
  std::future<Response> future = item->promise.get_future();

  // Injectable admission failure (tests arm error(overloaded) here to
  // exercise the shed path without real pressure).
  if (failpoint::AnyArmed()) {
    Status injected = failpoint::Check("serve.admit");
    if (!injected.ok()) {
      if (injected.IsOverloaded()) GVEX_COUNTER_INC("serve.shed");
      item->promise.set_value(ErrorResponse(item->req, injected));
      return future;
    }
  }

  // Health probes are answered inline, never queued: the publisher's
  // health gate (and any operator poking at a sick process) must be able
  // to observe saturation while the admission queue is shedding
  // everything else.
  if (item->req.type == RequestType::kHealth) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!started_ || stopping_) {
        item->promise.set_value(ErrorResponse(
            item->req, Status::FailedPrecondition("server is not running")));
        return future;
      }
    }
    item->promise.set_value(Execute(item->req, nullptr, item->cancel.get()));
    return future;
  }

  // Ingest never touches the shared query queue: the process owner's
  // handler (gvex/ingest) runs its own admission-bounded queue behind a
  // dedicated worker, so a burst of writes cannot starve readers of
  // workers and a full read queue cannot shed writes.
  if (item->req.type == RequestType::kIngest) {
    IngestHandler handler;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!started_ || stopping_) {
        item->promise.set_value(ErrorResponse(
            item->req, Status::FailedPrecondition("server is not running")));
        return future;
      }
      handler = ingest_handler_;
    }
    if (handler == nullptr) {
      item->promise.set_value(ErrorResponse(
          item->req, Status::FailedPrecondition(
                         "live ingest is not enabled (serve --ingest)")));
      return future;
    }
    return handler(std::move(item->req));
  }

  const uint32_t deadline_ms = item->req.deadline_ms != 0
                                   ? item->req.deadline_ms
                                   : options_.default_deadline_ms;
  if (deadline_ms != 0) {
    item->has_deadline = true;
    item->deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  }

  std::shared_ptr<CancellationToken> token_to_watch;
  Clock::time_point watch_deadline{};
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      item->promise.set_value(ErrorResponse(
          item->req, Status::FailedPrecondition("server is not running")));
      return future;
    }
    if (queue_.size() >= options_.max_queue) {
      GVEX_COUNTER_INC("serve.shed");
      item->promise.set_value(ErrorResponse(
          item->req,
          Status::Overloaded("request queue full (" +
                             std::to_string(options_.max_queue) +
                             " deep); retry later")));
      return future;
    }
    const std::string& route = RouteOf(item->req);
    RouteCounters& load = route_load_[route];
    auto quota = options_.route_quotas.find(route);
    if (quota != options_.route_quotas.end() &&
        quota->second.max_depth != 0 &&
        load.queued >= quota->second.max_depth) {
      ++load.quota_shed;
      GVEX_COUNTER_INC("serve.quota_shed");
      if (obs::Enabled()) {
        obs::Registry::Global().GetCounter("serve.quota_shed." + route).Add(1);
      }
      item->promise.set_value(ErrorResponse(
          item->req,
          Status::QuotaExceeded(
              "route '" + route + "' queue budget full (" +
              std::to_string(quota->second.max_depth) + " deep); retry later")));
      return future;
    }
    ++load.queued;
    if (item->has_deadline) {
      token_to_watch = item->cancel;
      watch_deadline = item->deadline;
    }
    queue_.push_back(std::move(item));
    queue_peak_ = std::max(queue_peak_, queue_.size());
  }
  if (token_to_watch != nullptr) {
    monitor_.Watch(std::move(token_to_watch), watch_deadline);
  }
  cv_.notify_one();
  return future;
}

Response ExplanationServer::Call(const Request& req) {
  return Submit(req).get();
}

size_t ExplanationServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t ExplanationServer::queue_peak() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_peak_;
}

size_t ExplanationServer::MaxActiveWorkers(const std::string& route) const {
  auto it = options_.route_quotas.find(route);
  if (it == options_.route_quotas.end() || it->second.worker_share <= 0.0) {
    return 0;  // unlimited
  }
  const double share = it->second.worker_share;
  const size_t cap =
      static_cast<size_t>(share * static_cast<double>(options_.num_workers));
  return std::max<size_t>(1, cap);
}

bool ExplanationServer::DispatchableLocked(const Item& item) const {
  if (stopping_) return true;  // drain regardless of worker-share caps
  const size_t cap = MaxActiveWorkers(RouteOf(item.req));
  if (cap == 0) return true;
  auto it = route_load_.find(RouteOf(item.req));
  return it == route_load_.end() || it->second.active < cap;
}

bool ExplanationServer::AnyDispatchableLocked() const {
  if (queue_.empty()) return false;
  // No worker-share quotas configured: the pre-quota fast path.
  if (options_.route_quotas.empty()) return true;
  for (const auto& item : queue_) {
    if (DispatchableLocked(*item)) return true;
  }
  return false;
}

std::vector<std::unique_ptr<ExplanationServer::Item>>
ExplanationServer::TakeBatchLocked() {
  std::vector<std::unique_ptr<Item>> batch;
  // The head of the batch is the oldest *dispatchable* request: queued
  // requests of a route sitting at its worker cap are skipped (they keep
  // their queue slot) so other routes' requests overtake them.
  auto head_it = queue_.begin();
  while (head_it != queue_.end() && !DispatchableLocked(**head_it)) ++head_it;
  if (head_it == queue_.end()) return batch;
  --route_load_[RouteOf((*head_it)->req)].queued;
  batch.push_back(std::move(*head_it));
  queue_.erase(head_it);
  const Request& head = batch.front()->req;
  if (!IsPatternQuery(head.type) || options_.batch_max <= 1) return batch;
  // Greedily claim queued pattern queries against the same view (same
  // route, same label, same match semantics): one snapshot pin + view
  // resolution serves the whole batch, and consecutive matches against
  // the same subgraphs reuse warm cache shards.
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < options_.batch_max;) {
    const Request& r = (*it)->req;
    if (IsPatternQuery(r.type) && RouteOf(r) == RouteOf(head) &&
        r.label == head.label && r.semantics == head.semantics) {
      --route_load_[RouteOf(r)].queued;
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

void ExplanationServer::WorkerLoop() {
  for (;;) {
    std::vector<std::unique_ptr<Item>> batch;
    std::string route;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || AnyDispatchableLocked(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      batch = TakeBatchLocked();
      if (batch.empty()) continue;  // woken, but every queued route capped
      route = RouteOf(batch.front()->req);
      ++route_load_[route].active;
    }
    if (batch.size() > 1) {
      GVEX_COUNTER_INC("serve.batches");
      GVEX_COUNTER_ADD("serve.batched_requests", batch.size());
      GVEX_HISTOGRAM_RECORD("serve.batch_size", batch.size());
    }
    // One pin per batch; every member of a multi-item batch shares the
    // head's route by the TakeBatchLocked key.
    auto snap = registry_->Snapshot(route);
    for (auto& item : batch) {
      Process(item.get(), snap.get());
    }
    // Request-scoped memory: everything the batch's kernels carved out of
    // this worker's arena (CSR target views, VF2/ESU scratch) dies here in
    // one bump-pointer reset; the blocks stay resident for the next batch.
    arena::ThreadLocal().Reset();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --route_load_[route].active;
    }
    // A freed worker slot may make a capped route dispatchable again.
    cv_.notify_all();
  }
}

void ExplanationServer::Process(Item* item, const LoadedViewSet* snap) {
  GVEX_HISTOGRAM_RECORD("serve.queue_wait_us",
                        obs::NowMicros() - item->enqueue_us);
  // Requests that expired while queued are dropped without paying for
  // execution — under overload this is what keeps goodput from
  // collapsing to zero.
  if (item->has_deadline && Clock::now() >= item->deadline) {
    GVEX_COUNTER_INC("serve.deadline_miss");
    GVEX_COUNTER_INC("serve.responses_error");
    item->promise.set_value(ErrorResponse(
        item->req, Status::Timeout("deadline expired while queued")));
    return;
  }
  Response resp;
  {
    obs::LatencyTimer timer(&EndpointHistogram(item->req.type));
    resp = Execute(item->req, snap, item->cancel.get());
  }
  if (resp.ok() && item->cancel->cancelled()) {
    GVEX_COUNTER_INC("serve.deadline_miss");
    Status cause = item->cancel->cause();
    resp = ErrorResponse(item->req, cause.ok()
                                        ? Status::Timeout("request cancelled")
                                        : cause);
  }
  if (resp.ok()) {
    GVEX_COUNTER_INC("serve.responses_ok");
  } else {
    GVEX_COUNTER_INC("serve.responses_error");
  }
  item->promise.set_value(std::move(resp));
}

Response ExplanationServer::Execute(const Request& req,
                                    const LoadedViewSet* snap,
                                    const CancellationToken* cancel) const {
  Response resp;
  resp.id = req.id;

  // Injectable execution failure + service-time model (see header).
  if (failpoint::AnyArmed()) {
    Status injected = failpoint::Check("serve.exec");
    if (!injected.ok()) return ErrorResponse(req, injected);
  }
  GVEX_FAILPOINT_NOTIFY("serve.exec_delay");

  switch (req.type) {
    case RequestType::kPing:
      resp.text = req.text.empty() ? "pong" : req.text;
      return resp;
    case RequestType::kStats:
      resp.text = StatsJson();
      return resp;
    case RequestType::kHealth:
      resp.health = Health();
      resp.has_health = true;
      if (registry_ != nullptr) {
        for (const RouteStatus& status : registry_->RouteStatuses()) {
          resp.routes.push_back(ToRouteInfo(status));
        }
      }
      return resp;
    case RequestType::kShutdown:
      // The transport layer (socket server / CLI) owns lifecycle; here
      // the request only acknowledges.
      resp.text = "shutting down";
      return resp;
    case RequestType::kIngest:
      // Routed at admission (Submit) to the dedicated ingest worker; a
      // request can only land here through a path with no handler.
      return ErrorResponse(
          req, Status::FailedPrecondition(
                   "live ingest is not enabled (serve --ingest)"));
    case RequestType::kEvaluate: {
      // Unlike ingest, evaluations ride the shared queue so admission,
      // quotas, deadlines, and cancellation apply unchanged; only the
      // scoring itself is delegated to the zoo hook.
      EvaluateHandler handler;
      {
        std::lock_guard<std::mutex> lock(mu_);
        handler = evaluate_handler_;
      }
      if (handler == nullptr) {
        return ErrorResponse(
            req, Status::FailedPrecondition(
                     "explainer zoo is not enabled (serve --zoo)"));
      }
      resp = handler(req, cancel);
      resp.id = req.id;
      return resp;
    }
    default:
      break;
  }

  if (Status route = ValidateRoute(req); !route.ok()) {
    return ErrorResponse(req, route);
  }
  if (registry_ == nullptr) {
    return ErrorResponse(req, Status::FailedPrecondition("no view registry"));
  }

  if (req.type == RequestType::kInstall) {
    Result<cluster::ViewBundle> decoded = cluster::DecodeBundle(req.bundle);
    if (!decoded.ok()) {
      GVEX_COUNTER_INC("cluster.install_failures");
      return ErrorResponse(req, decoded.status());
    }
    cluster::ViewBundle bundle = *std::move(decoded);
    if (!req.route.empty() && req.route != bundle.route) {
      GVEX_COUNTER_INC("cluster.install_failures");
      return ErrorResponse(
          req, Status::InvalidArgument("request route '" + req.route +
                                       "' does not match bundle route '" +
                                       bundle.route + "'"));
    }
    Status installed = registry_->InstallBundle(bundle);
    if (!installed.ok()) {
      GVEX_COUNTER_INC("cluster.install_failures");
      return ErrorResponse(req, installed);
    }
    const size_t warm = registry_->WarmMatchCache(bundle.route);
    resp.text = "installed route=" + bundle.route + " generation=" +
                std::to_string(registry_->generation(bundle.route)) +
                " fingerprint=" + registry_->fingerprint(bundle.route) +
                " warm_pairs=" + std::to_string(warm);
    for (const RouteStatus& status : registry_->RouteStatuses()) {
      if (status.route == bundle.route) resp.routes.push_back(ToRouteInfo(status));
    }
    return resp;
  }

  if (req.type == RequestType::kFetch) {
    const std::string& route = RouteOf(req);
    Result<cluster::ViewBundle> bundle = registry_->MakeBundle(route);
    if (!bundle.ok()) {
      GVEX_COUNTER_INC("cluster.fetch_failures");
      return ErrorResponse(req, bundle.status());
    }
    Result<std::string> encoded = cluster::EncodeBundle(*bundle);
    if (!encoded.ok()) {
      GVEX_COUNTER_INC("cluster.fetch_failures");
      return ErrorResponse(req, encoded.status());
    }
    resp.bundle = *std::move(encoded);
    GVEX_COUNTER_INC("cluster.fetches");
    for (const RouteStatus& status : registry_->RouteStatuses()) {
      if (status.route == route) resp.routes.push_back(ToRouteInfo(status));
    }
    return resp;
  }

  if (snap == nullptr) {
    return ErrorResponse(req,
                         Status::FailedPrecondition("no views loaded"));
  }

  // Coverage: a pure registry read, no matching work. A shard reports
  // its local slice; the ShardRouter merges rows by summation
  // (docs/WIRE_PROTOCOL.md).
  if (req.type == RequestType::kCoverageStats) {
    for (const ExplanationView& view : snap->views.views) {
      resp.coverage.push_back(CoverageOf(view));
    }
    RankCoverage(&resp.coverage, req.top_k);
    return resp;
  }
  MatchOptions match_options;
  match_options.semantics = req.semantics;
  ViewQuery query(match_options, options_.use_match_cache);

  if (req.type == RequestType::kClassifyExplain) {
    if (snap->model == nullptr) {
      return ErrorResponse(
          req, Status::FailedPrecondition(
                   "classify-and-explain needs a model (serve --model)"));
    }
    if (!req.has_graph || req.graph.empty()) {
      return ErrorResponse(
          req, Status::InvalidArgument("classify needs a non-empty graph"));
    }
    if (!req.graph.has_features() ||
        req.graph.feature_dim() != snap->model->config().input_dim) {
      return ErrorResponse(
          req, Status::InvalidArgument(
                   "graph features missing or wrong dimension (model wants " +
                   std::to_string(snap->model->config().input_dim) + ")"));
    }
    GcnTrace trace = snap->model->Forward(req.graph);
    resp.predicted = trace.predicted();
    resp.probabilities = std::move(trace.probs);
    if (const ExplanationView* view = snap->ForLabel(resp.predicted)) {
      for (size_t i = 0; i < view->patterns.size(); ++i) {
        if (cancel != nullptr && cancel->cancelled()) break;
        if (HasPair(view->patterns[i], req.graph, match_options,
                    options_.use_match_cache)) {
          resp.indices.push_back(i);
          resp.patterns.push_back(view->patterns[i]);
        }
      }
    }
    if (cancel != nullptr && cancel->cancelled()) {
      return ErrorResponse(req, Status::Timeout("deadline expired mid-query"));
    }
    return resp;
  }

  const ExplanationView* view = snap->ForLabel(req.label);
  if (view == nullptr) {
    return ErrorResponse(req, Status::NotFound("no view for label " +
                                               std::to_string(req.label)));
  }

  if (req.type == RequestType::kDiscriminativePatterns) {
    const ExplanationView* against = snap->ForLabel(req.against);
    if (against == nullptr) {
      return ErrorResponse(req,
                           Status::NotFound("no view for against-label " +
                                            std::to_string(req.against)));
    }
    // Tier positions ride along in `indices`: the ShardRouter intersects
    // position sets across shards (positions compare exactly even when a
    // tier repeats isomorphic patterns; see query.h).
    const std::vector<size_t> positions =
        query.DiscriminativePatternIndices(*view, *against, cancel);
    resp.indices.assign(positions.begin(), positions.end());
    resp.patterns.reserve(positions.size());
    for (size_t i : positions) resp.patterns.push_back(view->patterns[i]);
  } else {
    if (!req.has_graph || req.graph.empty()) {
      return ErrorResponse(
          req, Status::InvalidArgument("pattern query needs a pattern graph"));
    }
    // Point restriction: scan only the explanation subgraph of one
    // corpus graph. `scan` stays the whole view otherwise; `base` maps
    // scan-local subgraph positions back to view positions so contains
    // answers are identical with and without the restriction.
    ExplanationView point;
    const ExplanationView* scan = view;
    size_t base = 0;
    if (req.graph_index >= 0) {
      const uint64_t want = static_cast<uint64_t>(req.graph_index);
      size_t pos = view->subgraphs.size();
      for (size_t i = 0; i < view->subgraphs.size(); ++i) {
        if (view->subgraphs[i].graph_index == want) pos = i;
      }
      if (pos == view->subgraphs.size()) {
        return ErrorResponse(
            req, Status::NotFound("graph " + std::to_string(want) +
                                  " not covered by view for label " +
                                  std::to_string(req.label)));
      }
      point.label = view->label;
      point.subgraphs.push_back(view->subgraphs[pos]);
      scan = &point;
      base = pos;
    }
    switch (req.type) {
      case RequestType::kSupport:
        resp.support = query.Support(*scan, req.graph, cancel);
        break;
      case RequestType::kSubgraphsContaining: {
        std::vector<size_t> indices =
            query.SubgraphsContaining(*scan, req.graph, cancel);
        resp.indices.reserve(indices.size());
        for (size_t i : indices) resp.indices.push_back(base + i);
        resp.support = resp.indices.size();
        break;
      }
      case RequestType::kFindHits: {
        std::vector<ViewQuery::Hit> hits =
            query.FindHits(*scan, req.graph, req.max_embeddings, cancel);
        resp.hits.reserve(hits.size());
        for (const auto& h : hits) {
          resp.hits.push_back({h.graph_index, h.embeddings});
        }
        break;
      }
      default:
        return ErrorResponse(
            req, Status::Unimplemented("unhandled request type"));
    }
  }
  if (cancel != nullptr && cancel->cancelled()) {
    return ErrorResponse(req, Status::Timeout("deadline expired mid-query"));
  }
  return resp;
}

std::vector<RouteLoad> ExplanationServer::RouteLoads() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Seed with quota-configured routes so a quota is visible in health
  // before its route ever takes traffic, then overlay live counters.
  std::map<std::string, RouteLoad> merged;
  for (const auto& [route, quota] : options_.route_quotas) {
    RouteLoad& l = merged[route];
    l.route = route;
    l.quota_depth = quota.max_depth;
    l.quota_workers = MaxActiveWorkers(route);
  }
  for (const auto& [route, counters] : route_load_) {
    RouteLoad& l = merged[route];
    l.route = route;
    l.queued = counters.queued;
    l.active = counters.active;
    l.quota_shed = counters.quota_shed;
    auto it = options_.route_quotas.find(route);
    if (it != options_.route_quotas.end()) {
      l.quota_depth = it->second.max_depth;
      l.quota_workers = MaxActiveWorkers(route);
    }
  }
  std::vector<RouteLoad> out;
  out.reserve(merged.size());
  for (auto& [route, load] : merged) out.push_back(std::move(load));
  return out;
}

HealthInfo ExplanationServer::Health() const {
  HealthInfo h;
  h.workers = options_.num_workers;
  h.max_queue = options_.max_queue;
  h.serving = registry_ != nullptr && !registry_->Routes().empty();
  h.loads = RouteLoads();
  std::function<void(HealthInfo*)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    h.queue_depth = queue_.size();
    hook = health_hook_;
  }
  if (hook) hook(&h);
  return h;
}

void ExplanationServer::SetHealthHook(std::function<void(HealthInfo*)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  health_hook_ = std::move(hook);
}

void ExplanationServer::SetIngestHandler(IngestHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  ingest_handler_ = std::move(handler);
}

void ExplanationServer::SetEvaluateHandler(EvaluateHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  evaluate_handler_ = std::move(handler);
}

std::string ExplanationServer::StatsJson() const {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("generation");
  json.Uint(registry_ == nullptr ? 0 : registry_->generation());
  json.Key("routes");
  json.BeginObject();
  if (registry_ != nullptr) {
    for (const RouteStatus& status : registry_->RouteStatuses()) {
      json.Key(status.route);
      json.BeginObject();
      json.Key("generation");
      json.Uint(status.generation);
      json.Key("source_generation");
      json.Uint(status.source_generation);
      json.Key("fingerprint");
      json.String(status.fingerprint);
      json.Key("warmed");
      json.Uint(status.warmed ? 1 : 0);
      json.Key("warm_pairs");
      json.Uint(status.warm_pairs);
      json.Key("views");
      json.Uint(status.views);
      json.Key("patterns");
      json.Uint(status.patterns);
      json.Key("subgraphs");
      json.Uint(status.subgraphs);
      json.EndObject();
    }
  }
  json.EndObject();
  json.Key("workers");
  json.Uint(options_.num_workers);
  json.Key("max_queue");
  json.Uint(options_.max_queue);
  json.Key("batch_max");
  json.Uint(options_.batch_max);
  {
    std::lock_guard<std::mutex> lock(mu_);
    json.Key("queue_depth");
    json.Uint(queue_.size());
    json.Key("queue_peak");
    json.Uint(queue_peak_);
  }
  json.Key("route_load");
  json.BeginObject();
  for (const RouteLoad& load : RouteLoads()) {
    json.Key(load.route);
    json.BeginObject();
    json.Key("queued");
    json.Uint(load.queued);
    json.Key("active");
    json.Uint(load.active);
    json.Key("quota_depth");
    json.Uint(load.quota_depth);
    json.Key("quota_workers");
    json.Uint(load.quota_workers);
    json.Key("quota_shed");
    json.Uint(load.quota_shed);
    json.EndObject();
  }
  json.EndObject();
  json.Key("counters");
  json.BeginObject();
  for (const auto& c : obs::Registry::Global().Counters()) {
    if (c.name.rfind("serve.", 0) != 0 && c.name.rfind("cluster.", 0) != 0 &&
        c.name.rfind("ingest.", 0) != 0 && c.name.rfind("zoo.", 0) != 0)
      continue;
    json.Key(c.name);
    json.Uint(c.value);
  }
  json.EndObject();
  json.Key("histograms");
  json.BeginObject();
  for (const auto& h : obs::Registry::Global().Histograms()) {
    if (h.name.rfind("serve.", 0) != 0 && h.name.rfind("ingest.", 0) != 0 &&
        h.name.rfind("zoo.", 0) != 0)
      continue;
    json.Key(h.name);
    json.BeginObject();
    json.Key("count");
    json.Uint(h.count);
    json.Key("mean");
    json.Double(h.Mean());
    json.Key("p50");
    json.Uint(h.Quantile(0.5));
    json.Key("p99");
    json.Uint(h.Quantile(0.99));
    json.Key("max");
    json.Uint(h.max);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return std::move(json).Take();
}

}  // namespace serve
}  // namespace gvex
