// Deterministic chaos scenarios over a primary/standby/publisher
// topology — the robustness proof of gvex::cluster.
//
// RunChaosScenario spins up a primary and a standby (each a full
// ViewRegistry + ExplanationServer + loopback SocketServer), then drives
// a seeded schedule of steps from ONE thread: fan-out publishes
// (publisher.h), synchronous replication rounds (Replicator::SyncOnce),
// wire queries, and health probes. Before a step it may arm one
// failpoint — the cluster-level sites (cluster.fetch / install /
// bundle_read / publish_probe / publish_send) or the socket-level fault
// shim (connection refusal, mid-frame disconnect, stalled read/write;
// socket.h) — always with limit(1) so exactly that step is hit.
//
// Determinism: the schedule, the fault choices, and every retry/backoff
// jitter derive from `seed`; at most one wire operation is in flight at
// a time, each step opens its own connections and closes them, and a
// step arms its fault only once both servers' connection handlers have
// exited (SocketServer::WaitIdle), so thread scheduling cannot reorder
// observable events or hand a fault to the wrong connection. The
// canonical event log (step, action, fault, outcome code) is therefore
// a pure function of (seed, options) — same seed, same log, replayable
// under a debugger.
//
// Invariants asserted after every step (violations are collected, not
// thrown, so a run reports them all):
//   1. Torn installs never publish: a target whose publish row failed
//      still serves its exact pre-publish fingerprint; a succeeded row
//      serves the published bundle's fingerprint.
//   2. Replication lags, never regresses: the standby's fingerprint is
//      always its previous one, the primary's, or a directly published
//      bundle's — never empty-after-nonempty, never foreign content.
//   3. Failover answers byte-identically: whenever primary and standby
//      fingerprints agree, the full query set answers with
//      byte-identical encoded responses on both.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gvex/cluster/bundle.h"
#include "gvex/common/result.h"
#include "gvex/serve/protocol.h"

namespace gvex {
namespace cluster {

struct ChaosOptions {
  /// Seeds the schedule, the fault picks, and the publish jitter.
  uint64_t seed = 0;
  /// Steps in the schedule (each one publish / sync / query / probe).
  int steps = 30;
  /// Probability that a step runs with one armed fault.
  double fault_probability = 0.4;
  /// Bundle contents the publisher rotates through. Needs >= 1 entry;
  /// route names are overridden to the default route.
  std::vector<ViewBundle> generations;
  /// Queries replayed against both servers for the byte-identity check.
  std::vector<serve::Request> queries;
};

/// \brief One schedule entry, in execution order.
struct ChaosEvent {
  int step = 0;
  std::string action;   ///< "publish1" | "publish2" | "sync" | "query" | "probe"
  std::string fault;    ///< "<site>:<spec>" or "" when the step ran clean
  std::string outcome;  ///< StatusCode name ("Ok", "IoError", ...)
};

struct ChaosReport {
  std::vector<ChaosEvent> events;
  /// Human-readable invariant violations; empty == the run held.
  std::vector<std::string> violations;
  uint64_t publishes = 0;
  uint64_t publish_failures = 0;
  uint64_t syncs = 0;
  uint64_t sync_failures = 0;
  uint64_t queries = 0;
  uint64_t faults_armed = 0;

  /// Canonical text form of `events`, one line per event — what the
  /// determinism check compares across same-seed runs.
  std::string EventLog() const;
};

/// Run one seeded scenario. The error arm covers only setup problems
/// (no generations, server start failure); faults during the schedule
/// are the point and land in the report.
Result<ChaosReport> RunChaosScenario(const ChaosOptions& options);

/// Generations + queries ready to drop into ChaosOptions: a small GCN
/// trained on the synthetic Mutagenicity set, two view generations with
/// genuinely different content, and one query of every wire type.
/// Deterministic and moderately expensive (trains a model) — build once,
/// share across scenarios. Used by tools/chaos_harness and the chaos
/// tests so both drive the exact same topology content.
struct ChaosFixture {
  std::vector<ViewBundle> generations;
  std::vector<serve::Request> queries;
};
Result<ChaosFixture> MakeChaosFixture();

}  // namespace cluster
}  // namespace gvex
