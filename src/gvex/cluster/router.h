// ShardRouter: the stateless front-end of a sharded explanation fleet.
//
// One router + N shard servers answer exactly what one server holding
// the union of the shards' views would answer (pinned byte-identical in
// tests/shard_test.cc):
//
//   * Point queries — classify, or a pattern query restricted to one
//     corpus graph (Request::graph_index) — go to the owning shard per
//     the ShardMap.
//   * Corpus-wide queries scatter to every shard and the router merges:
//     support sums; hits merge ascending by graph index; contains
//     translates shard-local subgraph positions to corpus-global ranks
//     via a cached per-route shard-info table built from the covered
//     graph ids of one complete coverage scatter;
//     discriminative intersects pattern-tier position sets (a pattern
//     discriminates globally iff it discriminates on every shard);
//     coverage rows sum per label, then rank and cap like one server.
//
// Tail-latency control follows the tail-at-scale recipe: when a shard
// has a standby (the PR 5 replication follower), the router hedges — if
// the primary has not answered within hedge_ms the same request is
// fired at the standby and the first answer wins. Fingerprint-synced
// replicas answer byte-identically, so a hedge win changes latency,
// never content. A primary that fails fast (connection refused) fails
// over to the standby immediately.
//
// Failure accounting is explicit: a scatter answered by only some
// shards returns the merged partial payload with code kPartialResult
// (exit 15) and the missing shards named in the message — flagged,
// never a silently wrong aggregate.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gvex/cluster/shard_map.h"
#include "gvex/common/result.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"
#include "gvex/serve/socket.h"

namespace gvex {
namespace cluster {

/// Parse an endpoint spec — "unix:PATH", "tcp:PORT", or a bare port
/// number — the same grammar `serve --follow` accepts.
Result<serve::Endpoint> ParseEndpointSpec(const std::string& spec);

/// \brief Transport to one shard: a primary and an optional standby.
/// Implementations must be safe for concurrent Call/CallStandby from
/// different threads (hedge legs overlap).
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;
  virtual Result<serve::Response> Call(const serve::Request& req) = 0;
  virtual Result<serve::Response> CallStandby(const serve::Request& req) = 0;
  virtual bool has_standby() const = 0;
};

/// Socket-backed channel; every call opens a fresh connection so hedge
/// legs never serialize on a shared stream.
class SocketShardChannel : public ShardChannel {
 public:
  SocketShardChannel(serve::Endpoint primary, bool standby_set,
                     serve::Endpoint standby);
  Result<serve::Response> Call(const serve::Request& req) override;
  Result<serve::Response> CallStandby(const serve::Request& req) override;
  bool has_standby() const override { return has_standby_; }

 private:
  serve::Endpoint primary_;
  serve::Endpoint standby_;
  bool has_standby_ = false;
};

/// In-process channel: the `client --shard-map` library mode and the
/// fleet tests drive ExplanationServers directly through this.
class LocalShardChannel : public ShardChannel {
 public:
  explicit LocalShardChannel(serve::ExplanationServer* primary,
                             serve::ExplanationServer* standby = nullptr)
      : primary_(primary), standby_(standby) {}
  Result<serve::Response> Call(const serve::Request& req) override;
  Result<serve::Response> CallStandby(const serve::Request& req) override;
  bool has_standby() const override { return standby_ != nullptr; }

 private:
  serve::ExplanationServer* primary_;
  serve::ExplanationServer* standby_;
};

struct RouterOptions {
  /// Fire the standby after this long without a primary answer.
  /// 0 disables hedging (fast-fail failover still applies).
  uint32_t hedge_ms = 0;
  /// Per-shard wall bound for one scatter leg (also stamped into the
  /// sub-request's deadline_ms). 0 = wait for the shard indefinitely.
  uint32_t shard_deadline_ms = 0;
};

struct RouterStats {
  uint64_t point_queries = 0;
  uint64_t scatter_queries = 0;
  uint64_t hedges_fired = 0;   ///< standby launched after hedge_ms silence
  uint64_t hedge_wins = 0;     ///< standby answer used
  uint64_t failovers = 0;      ///< standby tried after a fast primary error
  uint64_t partial_results = 0;
  uint64_t shard_errors = 0;   ///< legs that returned no usable answer
};

class ShardRouter {
 public:
  ShardRouter(ShardMap map, std::vector<std::unique_ptr<ShardChannel>> channels,
              RouterOptions options = {});
  ~ShardRouter();  ///< joins every straggler hedge leg

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Answer one request against the fleet. Never throws; failures come
  /// back as an error-coded Response like ExplanationServer::Call.
  serve::Response Call(const serve::Request& req);

  /// Drop the cached per-route shard-info tables (after a republish
  /// that changes corpus coverage).
  void InvalidateShardInfo();

  RouterStats stats() const;
  std::string StatsJson() const;
  const ShardMap& map() const { return map_; }

 private:
  struct Leg;          // one shard's in-flight scatter leg
  struct RouteIndex;   // per-route contains-translation table

  serve::Response PointQuery(const serve::Request& req, size_t shard);
  serve::Response Scatter(const serve::Request& req);
  /// Send `req` to every shard at once, one hedged leg per shard.
  std::vector<Result<serve::Response>> FanOut(const serve::Request& req);
  Result<serve::Response> HedgedCall(size_t shard, serve::Request req);
  Result<std::shared_ptr<const RouteIndex>> ShardInfoFor(
      const std::string& route);
  void Detach(std::function<void()> fn);

  ShardMap map_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  RouterOptions options_;

  mutable std::mutex stats_mu_;
  RouterStats stats_;

  std::mutex info_mu_;
  std::map<std::string, std::shared_ptr<const RouteIndex>> route_info_;

  // Hedge losers keep running after their call returns; they are
  // tracked here and joined on destruction, never detached for real.
  std::mutex tasks_mu_;
  struct Task {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::vector<std::unique_ptr<Task>> tasks_;
};

/// Build a socket-backed router from a shard map (one channel per map
/// entry; standbys hedge when present).
Result<std::unique_ptr<ShardRouter>> MakeSocketRouter(ShardMap map,
                                                      RouterOptions options);

}  // namespace cluster
}  // namespace gvex
