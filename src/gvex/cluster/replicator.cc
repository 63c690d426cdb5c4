#include "gvex/cluster/replicator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "gvex/common/failpoint.h"
#include "gvex/common/rng.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace cluster {

uint32_t RetryBackoffMs(int attempt, uint32_t base_ms, uint32_t max_ms) {
  if (attempt < 1) attempt = 1;
  if (base_ms == 0) return 0;
  if (max_ms < base_ms) max_ms = base_ms;
  uint64_t delay = base_ms;
  // Shift with overflow guard: stop doubling once past the cap.
  for (int i = 1; i < attempt && delay < max_ms; ++i) delay *= 2;
  return static_cast<uint32_t>(std::min<uint64_t>(delay, max_ms));
}

uint32_t JitteredBackoffMs(int attempt, uint32_t base_ms, uint32_t max_ms,
                           uint64_t seed) {
  const uint32_t delay = RetryBackoffMs(attempt, base_ms, max_ms);
  if (delay == 0) return 0;
  // Deterministic per (seed, attempt): delay * [0.75, 1.25).
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(attempt));
  const uint64_t half = std::max<uint64_t>(1, delay / 2);
  return static_cast<uint32_t>(delay - delay / 4 + rng.NextBounded(half));
}

Replicator::Replicator(serve::ViewRegistry* registry, ReplicatorOptions options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.poll_interval_ms == 0) options_.poll_interval_ms = 1;
  if (options_.backoff_base_ms == 0) options_.backoff_base_ms = 1;
}

Replicator::~Replicator() { Stop(); }

Status Replicator::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::OK();
  started_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void Replicator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  client_.Close();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

void Replicator::Loop() {
  int attempt = 0;
  for (;;) {
    const Status st = SyncOnce();
    uint32_t sleep_ms;
    if (st.ok()) {
      attempt = 0;
      sleep_ms = options_.poll_interval_ms;
    } else {
      ++attempt;
      sleep_ms = JitteredBackoffMs(attempt, options_.backoff_base_ms,
                                   options_.backoff_max_ms,
                                   options_.jitter_seed);
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(sleep_ms),
                 [this] { return stopping_; });
    if (stopping_) return;
  }
}

Status Replicator::SyncOnce() {
  GVEX_COUNTER_INC("cluster.polls");
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.polls;
  }
  Status st = DoSync();
  std::lock_guard<std::mutex> lock(mu_);
  if (st.ok()) {
    stats_.consecutive_failures = 0;
    stats_.last_error.clear();
  } else {
    GVEX_COUNTER_INC("cluster.poll_failures");
    ++stats_.poll_failures;
    ++stats_.consecutive_failures;
    stats_.last_error = st.message();
    client_.Close();  // reconnect from scratch next round
  }
  return st;
}

Status Replicator::DoSync() {
  if (!client_.connected()) {
    GVEX_RETURN_NOT_OK(client_.Connect(options_.primary));
  }
  serve::Request poll;
  poll.type = serve::RequestType::kHealth;
  poll.id = next_id_++;
  GVEX_ASSIGN_OR_RETURN(serve::Response table, client_.Call(poll));
  GVEX_RETURN_NOT_OK(table.ToStatus());
  for (const serve::RouteInfo& remote : table.routes) {
    // Sync on content fingerprint, never the generation counter: a
    // restarted primary restarts counting at 1 but identical content
    // re-derives the identical fingerprint, so no spurious resync — and
    // genuinely different content always differs.
    if (!remote.fingerprint.empty() &&
        registry_->fingerprint(remote.route) == remote.fingerprint) {
      continue;
    }
    GVEX_RETURN_NOT_OK(SyncRoute(remote.route));
  }
  return Status::OK();
}

Status Replicator::SyncRoute(const std::string& route) {
  GVEX_FAILPOINT_RETURN("cluster.fetch");
  serve::Request fetch;
  fetch.type = serve::RequestType::kFetch;
  fetch.route = route;
  fetch.id = next_id_++;
  GVEX_ASSIGN_OR_RETURN(serve::Response resp, client_.Call(fetch));
  GVEX_RETURN_NOT_OK(resp.ToStatus());
  GVEX_ASSIGN_OR_RETURN(ViewBundle bundle, DecodeBundle(resp.bundle));
  Status installed = registry_->InstallBundle(bundle);
  if (!installed.ok()) {
    GVEX_COUNTER_INC("cluster.install_failures");
    return installed;
  }
  GVEX_COUNTER_INC("cluster.resyncs");
  if (options_.warm_after_install) {
    registry_->WarmMatchCache(route);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.installs;
  return Status::OK();
}

ReplicatorStats Replicator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cluster
}  // namespace gvex
