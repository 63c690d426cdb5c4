// Replicator — the standby half of primary/standby replication.
//
// A standby (`gvex serve --follow <primary>`) runs one Replicator next
// to its own ExplanationServer. The loop is poll + fetch:
//
//   1. kHealth: ask the primary for its per-route generation/fingerprint
//      table. Health is answered inline, never queued, so a primary whose
//      admission queue is full still answers the poll — overload is not
//      mistaken for lag.
//   2. For every route whose *fingerprint* differs from the local one
//      (never the generation counter — a restarted primary restarts its
//      counters but re-derives identical fingerprints from identical
//      content), kFetch the route's bundle, decode + verify it, install
//      it through the registry's atomic hot-swap, and pre-warm the
//      MatchCache so a failover serves its first query on warm shards.
//
// A torn or corrupt bundle fails in DecodeBundle / InstallBundle and the
// standby keeps serving its previous generation — replication can lag,
// never regress. On primary loss the loop retries with jittered
// exponential backoff (deterministic given `jitter_seed`) and resumes
// the moment the primary answers again.
//
// Failpoints: "cluster.fetch" (injected before each route fetch),
// "cluster.install" (inside ViewRegistry::InstallBundle),
// "cluster.bundle_read" (inside ReadBundle). Obs: "cluster.polls",
// "cluster.poll_failures", "cluster.resyncs", "cluster.install_failures".
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "gvex/common/result.h"
#include "gvex/serve/socket.h"
#include "gvex/serve/view_registry.h"

namespace gvex {
namespace cluster {

/// Exponential backoff schedule: base_ms << (attempt-1), capped at
/// max_ms. `attempt` is 1-based; values < 1 are treated as 1. Pure —
/// unit-tested directly, and shared with `gvex client --retry`.
uint32_t RetryBackoffMs(int attempt, uint32_t base_ms, uint32_t max_ms);

/// RetryBackoffMs with a deterministic ±25% jitter derived from
/// (seed, attempt), so a fleet of standbys does not reconnect in
/// lockstep while tests stay reproducible.
uint32_t JitteredBackoffMs(int attempt, uint32_t base_ms, uint32_t max_ms,
                           uint64_t seed);

struct ReplicatorOptions {
  serve::Endpoint primary;
  /// Steady-state delay between generation polls.
  uint32_t poll_interval_ms = 200;
  /// Backoff schedule applied while the primary is unreachable.
  uint32_t backoff_base_ms = 100;
  uint32_t backoff_max_ms = 5000;
  uint64_t jitter_seed = 0;
  /// Pre-warm the MatchCache after every install (the point of a warm
  /// standby; the bench's cold leg turns it off to measure the gap).
  bool warm_after_install = true;
};

struct ReplicatorStats {
  uint64_t polls = 0;
  uint64_t poll_failures = 0;
  uint64_t installs = 0;
  uint64_t consecutive_failures = 0;
  std::string last_error;
};

class Replicator {
 public:
  Replicator(serve::ViewRegistry* registry, ReplicatorOptions options);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Spawn the poll loop thread. Idempotent.
  Status Start();

  /// Stop the loop, close the primary connection, join. Idempotent.
  void Stop();

  /// One poll + fetch round, usable without Start() (tests drive the
  /// whole replication path synchronously through this).
  Status SyncOnce();

  ReplicatorStats stats() const;

 private:
  void Loop();
  Status DoSync();
  Status SyncRoute(const std::string& route);

  serve::ViewRegistry* registry_;
  ReplicatorOptions options_;
  serve::SocketClient client_;
  uint64_t next_id_ = 1;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool started_ = false;
  bool stopping_ = false;
  ReplicatorStats stats_;
};

}  // namespace cluster
}  // namespace gvex
