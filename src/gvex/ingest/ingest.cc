#include "gvex/ingest/ingest.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "gvex/common/failpoint.h"
#include "gvex/common/logging.h"
#include "gvex/matching/vf2.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace ingest {

namespace {

using serve::ErrorResponse;

uint64_t DriftBasisPoints(double drift) {
  return static_cast<uint64_t>(std::lround(std::max(0.0, drift) * 10000.0));
}

// Does any pattern of the served view match into `g`? Bounded VF2 under
// subgraph (monomorphism) semantics — patterns are small, the bound only
// guards the adversarial worst case.
bool ServedCovers(const ExplanationView* view, const Graph& g) {
  if (view == nullptr) return false;
  MatchOptions opts;
  opts.semantics = MatchSemantics::kSubgraph;
  opts.max_matches = 1;
  opts.max_steps = 50000;
  for (const Graph& p : view->patterns) {
    if (Vf2Matcher::HasMatch(p, g, opts)) return true;
  }
  return false;
}

}  // namespace

IngestManager::IngestManager(serve::ViewRegistry* registry,
                             std::shared_ptr<const GcnClassifier> model,
                             IngestOptions options)
    : registry_(registry),
      model_(std::move(model)),
      options_(std::move(options)) {}

IngestManager::~IngestManager() { Stop(); }

Status IngestManager::Start() {
  if (model_ == nullptr) {
    return Status::InvalidArgument("ingest requires a classifier model");
  }
  if (!cluster::IsValidRouteName(options_.route)) {
    return Status::InvalidArgument("invalid ingest route '" + options_.route +
                                   "'");
  }
  if (options_.drift_window == 0) options_.drift_window = 1;
  if (options_.checkpoint_cadence == 0) options_.checkpoint_cadence = 1;
  if (!options_.journal_path.empty()) {
    GVEX_ASSIGN_OR_RETURN(
        journal_, IngestJournal::Open(options_.journal_path, options_.resume));
    GVEX_RETURN_NOT_OK(ReplayJournal());
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::FailedPrecondition("ingest already started");
  started_ = true;
  stopping_ = false;
  last_publish_ = std::chrono::steady_clock::now();
  worker_ = std::thread([this] { WorkerLoop(); });
  return Status::OK();
}

void IngestManager::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
  // Fail whatever the worker left behind rather than hanging clients.
  for (auto& item : queue_) {
    item->promise.set_value(
        ErrorResponse(item->req, Status::FailedPrecondition("ingest stopped")));
  }
  queue_.clear();
}

Status IngestManager::ReplayJournal() {
  const IngestReplay& replay = journal_->replay();
  std::map<ClassLabel, uint64_t> ckpt_seq;
  for (const auto& [label, entry] : replay.checkpoints) {
    auto solver = std::make_unique<StreamGvex>(model_.get(), options_.config);
    GVEX_RETURN_NOT_OK(solver->Restore(entry.second));
    ckpt_seq[label] = entry.first;
    solvers_[label] = std::move(solver);
  }
  uint64_t replayed = 0, accepted = 0, infeasible = 0;
  uint64_t resident = 0;
  for (const auto& [label, solver] : solvers_) {
    resident += solver->resident_graphs();
  }
  for (const IngestRecord& rec : replay.graphs) {
    auto it = ckpt_seq.find(rec.label);
    if (it != ckpt_seq.end() && rec.seq <= it->second) continue;
    StreamGvex* solver = SolverFor(rec.label);
    double explainability = 0.0;
    Status st =
        solver->IngestGraph(rec.graph, rec.seq, rec.label, &explainability);
    ++replayed;
    if (st.ok()) {
      ++accepted;
      ++resident;
      window_.push_back({rec.label, rec.graph, explainability});
      if (window_.size() > options_.drift_window) window_.pop_front();
    } else if (st.IsInfeasible()) {
      ++infeasible;
      ++resident;
    } else {
      // Deterministic replay hits the same error the live run did; the
      // record stays journaled and the resident state stays consistent.
      GVEX_LOG(Warning) << "ingest replay: seq " << rec.seq << " failed: "
                        << st.ToString();
    }
  }
  seen_ids_ = replay.client_ids;
  next_seq_ = replay.next_seq;
  GVEX_COUNTER_ADD("ingest.replayed", replayed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    replayed_ = replayed;
    accepted_ = accepted;
    infeasible_ = infeasible;
    resident_graphs_ = resident;
  }
  if (replayed > 0 || !replay.checkpoints.empty()) {
    GVEX_LOG(Info) << "ingest journal " << journal_->path() << ": resumed "
                   << resident << " resident graphs (" << replayed
                   << " replayed past " << replay.checkpoints.size()
                   << " checkpoints)";
  }
  return Status::OK();
}

std::future<serve::Response> IngestManager::Submit(serve::Request req) {
  GVEX_COUNTER_INC("ingest.requests");
  auto item = std::make_unique<Item>();
  item->req = std::move(req);
  std::future<serve::Response> future = item->promise.get_future();
  if (!item->req.has_graph) {
    if (item->req.text == "publish") {
      item->kind = Item::Kind::kPublish;
    } else if (item->req.text == "status") {
      item->kind = Item::Kind::kStatus;
    } else {
      item->promise.set_value(ErrorResponse(
          item->req,
          Status::InvalidArgument(
              "ingest needs a graph, or text 'publish'/'status'")));
      return future;
    }
  } else if (item->req.label < 0) {
    item->promise.set_value(ErrorResponse(
        item->req, Status::InvalidArgument("ingest requires a label")));
    return future;
  }
  if (item->req.deadline_ms > 0) {
    item->has_deadline = true;
    item->deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(item->req.deadline_ms);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      item->promise.set_value(ErrorResponse(
          item->req, Status::FailedPrecondition("ingest not running")));
      return future;
    }
    // Control verbs bypass the bound: they carry no payload and must not
    // be shed behind the very backlog they are asked to observe or cut.
    if (item->kind == Item::Kind::kGraph &&
        queue_.size() >= options_.max_pending) {
      GVEX_COUNTER_INC("ingest.shed");
      item->promise.set_value(ErrorResponse(
          item->req,
          Status::Overloaded("ingest queue full (" +
                             std::to_string(options_.max_pending) + ")")));
      return future;
    }
    queue_.push_back(std::move(item));
  }
  cv_.notify_one();
  return future;
}

void IngestManager::WorkerLoop() {
  for (;;) {
    std::unique_ptr<Item> item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // Stop() fails the remaining queue
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    // Queued-expiry drop: the cancellable half of the admission contract.
    if (item->has_deadline &&
        std::chrono::steady_clock::now() >= item->deadline) {
      GVEX_COUNTER_INC("ingest.deadline_miss");
      item->promise.set_value(ErrorResponse(
          item->req, Status::Timeout("ingest deadline expired in queue")));
      continue;
    }
    GVEX_FAILPOINT_NOTIFY("ingest.feed");
    serve::Response resp;
    switch (item->kind) {
      case Item::Kind::kGraph:
        resp = ProcessGraph(item->req);
        break;
      case Item::Kind::kPublish:
        resp = ProcessPublish(item->req);
        break;
      case Item::Kind::kStatus:
        resp = ProcessStatus(item->req);
        break;
    }
    item->promise.set_value(std::move(resp));
  }
}

StreamGvex* IngestManager::SolverFor(ClassLabel label) {
  auto it = solvers_.find(label);
  if (it == solvers_.end()) {
    it = solvers_
             .emplace(label, std::make_unique<StreamGvex>(model_.get(),
                                                          options_.config))
             .first;
  }
  return it->second.get();
}

void IngestManager::UpdateDrift() {
  double drift = 0.0, influence = 0.0;
  if (!window_.empty()) {
    auto snap = registry_->Snapshot(options_.route);
    size_t uncovered = 0;
    for (const WindowEntry& e : window_) {
      const ExplanationView* served =
          snap != nullptr ? snap->views.ForLabel(e.label) : nullptr;
      if (!ServedCovers(served, e.graph)) {
        ++uncovered;
        influence += e.explainability;
      }
    }
    drift = static_cast<double>(uncovered) /
            static_cast<double>(window_.size());
    influence /= static_cast<double>(window_.size());
  }
  std::lock_guard<std::mutex> lock(mu_);
  drift_ = drift;
  influence_delta_ = influence;
}

serve::Response IngestManager::ProcessGraph(const serve::Request& req) {
  GVEX_LATENCY_US("ingest.feed_us");
  serve::Response resp;
  resp.id = req.id;
  if (req.id != 0 && seen_ids_.count(req.id) != 0) {
    GVEX_COUNTER_INC("ingest.duplicates");
    std::lock_guard<std::mutex> lock(mu_);
    ++duplicates_;
    resp.text = "duplicate id=" + std::to_string(req.id);
    return resp;
  }
  const uint64_t seq = next_seq_;
  if (journal_ != nullptr) {
    Status st = journal_->AppendGraph(seq, req.id, req.label, req.graph);
    if (!st.ok()) {
      GVEX_COUNTER_INC("ingest.errors");
      std::lock_guard<std::mutex> lock(mu_);
      ++errors_;
      return ErrorResponse(req, st);
    }
  }
  // The graph is durable: consume the sequence number and the dedup key
  // whatever the solver says, so a replay and a client retry both land on
  // exactly one feed.
  next_seq_ = seq + 1;
  if (req.id != 0) seen_ids_.insert(req.id);

  StreamGvex* solver = SolverFor(req.label);
  double explainability = 0.0;
  Status st = solver->IngestGraph(req.graph, seq, req.label, &explainability);
  bool published = false;
  uint64_t generation = 0;
  if (st.ok()) {
    GVEX_COUNTER_INC("ingest.accepted");
    window_.push_back({req.label, req.graph, explainability});
    if (window_.size() > options_.drift_window) window_.pop_front();
    uint64_t total_accepted;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++accepted_;
      ++resident_graphs_;
      total_accepted = accepted_;
    }
    ++accepted_since_publish_;
    if (journal_ != nullptr &&
        solver->resident_graphs() % options_.checkpoint_cadence == 0) {
      Status ck = journal_->AppendCheckpoint(seq, req.label,
                                             solver->Snapshot());
      if (!ck.ok()) {
        GVEX_LOG(Warning) << "ingest: checkpoint failed (" << ck.ToString()
                          << "); replay will take the long way";
      }
    }
    UpdateDrift();
    double drift;
    {
      std::lock_guard<std::mutex> lock(mu_);
      drift = drift_;
    }
    if (drift >= options_.drift_threshold &&
        total_accepted >= options_.min_publish_graphs &&
        accepted_since_publish_ > 0) {
      Result<uint64_t> gen = Publish();
      if (gen.ok()) {
        published = true;
        generation = *gen;
      } else {
        GVEX_LOG(Warning) << "ingest: drift-triggered publish failed: "
                          << gen.status().ToString();
      }
    }
  } else if (st.IsInfeasible()) {
    GVEX_COUNTER_INC("ingest.infeasible");
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++infeasible_;
      ++resident_graphs_;
    }
    resp.support = seq;
    resp.text = "infeasible seq=" + std::to_string(seq) +
                " label=" + std::to_string(req.label);
    return resp;
  } else {
    GVEX_COUNTER_INC("ingest.errors");
    std::lock_guard<std::mutex> lock(mu_);
    ++errors_;
    return ErrorResponse(req, st);
  }
  resp.support = seq;
  std::ostringstream text;
  text << "ingested seq=" << seq << " label=" << req.label
       << " resident=" << solver->resident_graphs()
       << " drift=" << FormatDriftBp() << "bp";
  if (published) {
    text << " published generation=" << generation
         << " fingerprint=" << registry_->fingerprint(options_.route);
  }
  resp.text = text.str();
  return resp;
}

Result<uint64_t> IngestManager::Publish() {
  GVEX_FAILPOINT_RETURN("ingest.publish");
  const auto now = std::chrono::steady_clock::now();
  double drift_at_swap, influence_at_swap;
  std::chrono::steady_clock::time_point last;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drift_at_swap = drift_;
    influence_at_swap = influence_delta_;
    last = last_publish_;
  }

  cluster::ViewBundle bundle;
  bundle.route = options_.route;
  bundle.model = model_;
  for (const auto& [label, solver] : solvers_) {  // sorted by label
    if (!solver->in_progress()) continue;
    GVEX_ASSIGN_OR_RETURN(ExplanationView view, solver->ResidentView());
    if (view.subgraphs.empty()) continue;
    bundle.views.views.push_back(std::move(view));
  }
  if (bundle.views.views.empty()) {
    return Status::FailedPrecondition("no resident views to publish");
  }

  GVEX_RETURN_NOT_OK(registry_->InstallBundle(bundle));
  registry_->WarmMatchCache(options_.route);
  const uint64_t generation = registry_->generation(options_.route);
  GVEX_COUNTER_INC("ingest.publishes");
  const uint64_t staleness_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - last)
          .count());
  GVEX_HISTOGRAM_RECORD("ingest.staleness_at_swap_ms", staleness_ms);
  GVEX_HISTOGRAM_RECORD("ingest.drift_at_swap_bp",
                        DriftBasisPoints(drift_at_swap));
  GVEX_HISTOGRAM_RECORD(
      "ingest.influence_at_swap_u",
      static_cast<uint64_t>(std::max(0.0, influence_at_swap) * 1e6));
  accepted_since_publish_ = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++published_;
    last_generation_ = generation;
    last_publish_ = now;
  }
  // The served generation just became the resident one; refresh the
  // freshness signal so Info() and the next trigger see reality.
  UpdateDrift();

  // Optional follower fan-out, after (and never instead of) the local
  // swap. A failed or partial fan-out is an SLO event, not a rollback.
  if (options_.shard_map != nullptr || !options_.targets.empty()) {
    bundle.generation = generation;
    Result<std::string> fp = cluster::BundleFingerprint(bundle);
    if (fp.ok()) bundle.fingerprint = *fp;
    cluster::PublishOptions popts = options_.publish;
    popts.targets = options_.targets;
    Result<cluster::PublishReport> report =
        options_.shard_map != nullptr
            ? cluster::ShardedPublish(bundle, *options_.shard_map, popts)
            : cluster::FanOutPublish(bundle, popts);
    Status agg = report.ok() ? report->Aggregate() : report.status();
    if (!agg.ok()) {
      GVEX_COUNTER_INC("ingest.fanout_failures");
      GVEX_LOG(Warning) << "ingest: follower fan-out for generation "
                        << generation << " failed: " << agg.ToString();
    }
  }
  return generation;
}

serve::Response IngestManager::ProcessPublish(const serve::Request& req) {
  serve::Response resp;
  resp.id = req.id;
  Result<uint64_t> gen = Publish();
  if (!gen.ok()) {
    GVEX_COUNTER_INC("ingest.publish_failures");
    return ErrorResponse(req, gen.status());
  }
  resp.support = *gen;
  resp.text = "published generation=" + std::to_string(*gen) +
              " fingerprint=" + registry_->fingerprint(options_.route) +
              " drift=" + FormatDriftBp() + "bp";
  return resp;
}

serve::Response IngestManager::ProcessStatus(const serve::Request& req) {
  serve::Response resp;
  resp.id = req.id;
  IngestInfo info = Info();
  std::ostringstream text;
  text << "ingesting route=" << options_.route << " pending=" << info.pending
       << " accepted=" << info.accepted << " duplicates=" << info.duplicates
       << " infeasible=" << info.infeasible << " errors=" << info.errors
       << " published=" << info.published << " replayed=" << info.replayed
       << " resident=" << info.resident_graphs
       << " next_seq=" << info.next_seq << " generation=" << info.generation
       << " drift=" << DriftBasisPoints(info.drift)
       << "bp staleness_ms=" << info.staleness_ms;
  resp.text = text.str();
  return resp;
}

Result<uint64_t> IngestManager::PublishNow() {
  serve::Request req;
  req.type = serve::RequestType::kIngest;
  req.text = "publish";
  serve::Response resp = Submit(std::move(req)).get();
  GVEX_RETURN_NOT_OK(resp.ToStatus());
  return resp.support;
}

std::string IngestManager::FormatDriftBp() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::to_string(DriftBasisPoints(drift_));
}

IngestInfo IngestManager::Info() const {
  std::lock_guard<std::mutex> lock(mu_);
  IngestInfo info;
  info.running = started_ && !stopping_;
  info.pending = queue_.size();
  info.accepted = accepted_;
  info.duplicates = duplicates_;
  info.infeasible = infeasible_;
  info.errors = errors_;
  info.published = published_;
  info.replayed = replayed_;
  info.resident_graphs = resident_graphs_;
  info.next_seq = next_seq_;
  info.generation = last_generation_;
  info.drift = drift_;
  info.influence_delta = influence_delta_;
  if (info.running) {
    info.staleness_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - last_publish_)
            .count());
  }
  return info;
}

}  // namespace ingest
}  // namespace gvex
