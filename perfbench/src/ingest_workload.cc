// ingest_mix: trials of fixed work, kIngestGraphs graphs and kTrialReads
// reads. Each trial builds a fresh stack (ViewRegistry + ExplanationServer +
// IngestManager with its write-ahead journal + SocketServer on a Unix
// socket), feeds the seeded corpus through kIngest from one closed-loop
// writer that publishes every kPublishEvery graphs, and reads beside it
// from an open-loop generator that follows a seeded schedule and times each
// read from when it was due. Every read must equal the direct answer of a
// generation that was live while it was in flight.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "gvex/common/rng.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/query.h"
#include "gvex/ingest/ingest.h"
#include "gvex/matching/match_cache.h"
#include "gvex/matching/vf2.h"
#include "gvex/obs/obs.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"
#include "gvex/serve/socket.h"
#include "gvex/serve/view_registry.h"

namespace perfbench {

using namespace gvex;
using serve::Endpoint;
using serve::ExplanationServer;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::SocketClient;
using serve::SocketServer;
using serve::ViewRegistry;

namespace {

constexpr size_t kUl = 12;
constexpr size_t kServeWorkers = 2;
/// Share of pattern reads that carry a pattern sampled from a corpus graph
/// rather than one from the view's own pattern tier. Without it the
/// MatchCache answers 99.5% of lookups and VF2 hardly runs.
constexpr double kFreshShare = 0.3;
/// An open-loop run whose generator woke more than this late (p99) fell
/// behind its schedule and reports no latency: over 20 times the median
/// read.
constexpr double kLateLimitMs = 5.0;
constexpr size_t kIngestGraphs = 200;
constexpr size_t kPublishEvery = 25;
/// Reads per second: a quarter of the closed-loop capacity of this read
/// mix over kReaders connections on an idle stack (read.closed_loop_per_s
/// of the traced run: median 8,060/s over six seeds on 4 vCPUs). The host
/// can run twice as slow for minutes; a quarter keeps the reads under the
/// capacity left then (README.md).
constexpr double kReadRate = 2000;
/// Reader connections; with the writer's, nproc (4) connections in all.
constexpr size_t kReaders = 3;
/// Reads per trial: kReadRate over 0.3 s, about the writer's time for
/// kIngestGraphs on a quiet host (640 graphs/s). Fixed in number, not in
/// time, so that a trial's CPU seconds measure the same work however fast
/// the host runs.
constexpr size_t kTrialReads = 600;
/// Reads in the sequential socket-versus-Call pass of the traced run.
constexpr size_t kWireReads = 500;
/// Reads in the closed-loop capacity pass of the traced run.
constexpr size_t kCapacityReads = 4000;

// ---- reads --------------------------------------------------------------------

/// A connected pattern of 5-8 nodes cut from a random corpus graph by BFS,
/// carrying node and edge types only (patterns have no features).
Graph FreshPattern(Rng& rng, const GraphDatabase& db) {
  const Graph& g = db.graph(rng.NextBounded(db.size()));
  const size_t want = 5 + rng.NextBounded(4);
  std::vector<NodeId> order = {static_cast<NodeId>(rng.NextBounded(g.num_nodes()))};
  std::vector<bool> seen(g.num_nodes(), false);
  seen[order[0]] = true;
  for (size_t head = 0; head < order.size() && order.size() < want; ++head) {
    for (const Neighbor& nb : g.neighbors(order[head])) {
      if (order.size() == want) break;
      if (!seen[nb.node]) {
        seen[nb.node] = true;
        order.push_back(nb.node);
      }
    }
  }
  std::vector<NodeId> local(g.num_nodes(), kInvalidNode);
  Graph pattern;
  for (NodeId v : order) local[v] = pattern.AddNode(g.node_type(v));
  for (NodeId v : order) {
    for (const Neighbor& nb : g.neighbors(v)) {
      if (local[nb.node] != kInvalidNode && v < nb.node) {
        (void)pattern.AddEdge(local[v], local[nb.node], nb.edge_type);
      }
    }
  }
  return pattern;
}

/// What the reads are drawn from.
struct ReadSource {
  const GraphDatabase* db = nullptr;
  std::vector<Graph> patterns;  ///< view pattern tiers + the NO2 group
};

/// One seeded read of one of the five read types.
Request MakeRead(Rng& rng, const ReadSource& src) {
  Request req;
  // Even over the five types, as bench_serve's closed loop is even over
  // its three pattern types.
  constexpr RequestType kTypes[] = {
      RequestType::kSupport, RequestType::kSubgraphsContaining,
      RequestType::kFindHits, RequestType::kDiscriminativePatterns,
      RequestType::kClassifyExplain};
  req.type = kTypes[rng.NextBounded(std::size(kTypes))];
  req.label = static_cast<ClassLabel>(rng.NextBounded(2));
  req.max_embeddings = 4;
  if (req.type == RequestType::kDiscriminativePatterns) {
    req.against = 1 - req.label;
  } else if (req.type == RequestType::kClassifyExplain) {
    req.graph = src.db->graph(rng.NextBounded(src.db->size()));
    req.has_graph = true;
  } else {
    req.graph = rng.NextDouble() < kFreshShare
                    ? FreshPattern(rng, *src.db)
                    : src.patterns[rng.NextBounded(src.patterns.size())];
    req.has_graph = true;
  }
  return req;
}

std::vector<Request> MakeReads(uint64_t seed, size_t n, const ReadSource& src) {
  Rng rng(seed);
  std::vector<Request> reads;
  reads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    reads.push_back(MakeRead(rng, src));
    reads.back().id = i + 1;
  }
  return reads;
}

/// The first `n` Poisson arrivals at `rate` per second.
std::vector<double> PoissonSchedule(uint64_t seed, double rate, size_t n) {
  Rng rng(seed);
  std::vector<double> due;
  double t = 0.0;
  while (due.size() < n) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    due.push_back(t);
  }
  return due;
}

/// The answer the server must give, computed without it: ViewQuery with
/// the MatchCache off for pattern reads, the model and VF2 for classify.
/// Error texts mirror the server's so whole encodings compare.
Response DirectAnswer(const Request& req, const ExplanationViewSet& views,
                      const GcnClassifier* model) {
  Response resp;
  resp.id = req.id;
  MatchOptions match;
  match.semantics = req.semantics;
  ViewQuery query(match, /*use_cache=*/false);
  if (req.type == RequestType::kClassifyExplain) {
    resp.predicted = model->Predict(req.graph);
    resp.probabilities = model->PredictProba(req.graph);
    if (const ExplanationView* view = views.ForLabel(resp.predicted)) {
      for (size_t i = 0; i < view->patterns.size(); ++i) {
        if (Vf2Matcher::HasMatch(view->patterns[i], req.graph, match)) {
          resp.indices.push_back(i);
          resp.patterns.push_back(view->patterns[i]);
        }
      }
    }
    return resp;
  }
  const ExplanationView* view = views.ForLabel(req.label);
  if (view == nullptr) {
    resp.code = StatusCode::kNotFound;
    resp.message = "no view for label " + std::to_string(req.label);
    return resp;
  }
  switch (req.type) {
    case RequestType::kDiscriminativePatterns: {
      const ExplanationView* against = views.ForLabel(req.against);
      if (against == nullptr) {
        resp.code = StatusCode::kNotFound;
        resp.message =
            "no view for against-label " + std::to_string(req.against);
        return resp;
      }
      for (size_t i : query.DiscriminativePatternIndices(*view, *against)) {
        resp.indices.push_back(i);
        resp.patterns.push_back(view->patterns[i]);
      }
      break;
    }
    case RequestType::kSupport:
      resp.support = query.Support(*view, req.graph);
      break;
    case RequestType::kSubgraphsContaining:
      for (size_t i : query.SubgraphsContaining(*view, req.graph)) {
        resp.indices.push_back(i);
      }
      resp.support = resp.indices.size();
      break;
    case RequestType::kFindHits:
      for (const auto& h :
           query.FindHits(*view, req.graph, req.max_embeddings)) {
        resp.hits.push_back({h.graph_index, h.embeddings});
      }
      break;
    default:
      break;
  }
  return resp;
}

bool SameAnswer(const Response& a, const Response& b) {
  return serve::EncodeResponseBody(a) == serve::EncodeResponseBody(b);
}

const char* ReadTypeName(RequestType type) {
  switch (type) {
    case RequestType::kSupport: return "support";
    case RequestType::kSubgraphsContaining: return "contains";
    case RequestType::kFindHits: return "hits";
    case RequestType::kDiscriminativePatterns: return "discriminative";
    default: return "classify";
  }
}

// ---- load generators -----------------------------------------------------------

struct OpenLoopResult {
  std::vector<double> latency_ms;  ///< per sent request, in due order
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Quantile late;  ///< generator oversleep, over the sends that slept
  bool valid = false;
};

std::vector<std::unique_ptr<SocketClient>> Connect(const Endpoint& endpoint,
                                                   size_t n) {
  std::vector<std::unique_ptr<SocketClient>> clients;
  for (size_t c = 0; c < n; ++c) {
    auto client = std::make_unique<SocketClient>();
    Status st = client->Connect(endpoint);
    if (!st.ok()) {
      std::fprintf(stderr, "connect %s: %s\n", endpoint.ToString().c_str(),
                   st.ToString().c_str());
      std::exit(1);
    }
    clients.push_back(std::move(client));
  }
  return clients;
}

/// Sends reads[i] at due[i] seconds after the start over `connections`
/// connections. A request waiting for a free connection stays in the
/// generator's queue, and that wait counts in its latency; only a thread
/// that slept to the due time and woke late counts as generator lateness.
/// Every read is sent, however late, so a backlog is timed and not
/// dropped. `before(i)` runs just ahead of each send and `after(i, answer)`
/// on each successful answer, both on the connection thread.
OpenLoopResult RunOpenLoop(
    const Endpoint& endpoint, const std::vector<Request>& reads,
    const std::vector<double>& due, size_t connections,
    const std::function<void(size_t)>& before,
    const std::function<void(size_t, const Response&)>& after) {
  using Clock = std::chrono::steady_clock;
  const size_t n = std::min(reads.size(), due.size());
  std::vector<double> latency(n, -1.0);
  std::vector<double> late(n, -1.0);
  std::vector<uint8_t> failed(n, 0);
  auto clients = Connect(endpoint, connections);
  std::atomic<size_t> next{0};
  std::atomic<int> reported_failures{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  auto at = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due[i]));
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      SocketClient* client = clients[c].get();
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= n) break;
        const Clock::time_point due_at = at(i);
        if (Clock::now() < due_at) {
          std::this_thread::sleep_until(due_at);
          late[i] = std::chrono::duration<double, std::milli>(Clock::now() -
                                                              due_at)
                        .count();
        }
        before(i);
        Result<Response> resp = [&] {
          GVEX_SPAN("bench.read");
          return client->Call(reads[i]);
        }();
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - due_at)
                .count();
        if (!resp.ok() || !resp->ok()) {
          failed[i] = 1;
          latency[i] = kMissed;
          if (reported_failures.fetch_add(1) < 3) {
            std::fprintf(stderr, "read %s failed: %s\n",
                         ReadTypeName(reads[i].type),
                         resp.ok() ? resp->ToStatus().ToString().c_str()
                                   : resp.status().ToString().c_str());
          }
          if (!resp.ok()) {
            // A transport error leaves the connection unusable.
            client->Close();
            (void)client->Connect(endpoint);
          }
          continue;
        }
        latency[i] = ms;
        after(i, *resp);
      }
    });
  }
  for (auto& t : threads) t.join();
  OpenLoopResult out;
  std::vector<double> late_ms;
  for (size_t i = 0; i < n; ++i) {
    ++out.attempted;
    out.failed += failed[i];
    out.latency_ms.push_back(latency[i]);
    if (late[i] >= 0) late_ms.push_back(late[i]);
  }
  // Too few sleeps for a p99: judge by the worst one.
  out.late = TailOf(late_ms);
  const double worst =
      late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end());
  out.valid = (out.late.reported() ? out.late.value : worst) <= kLateLimitMs;
  return out;
}

// ---- the served stack ------------------------------------------------------------

/// Registry + ExplanationServer + IngestManager + SocketServer on a Unix
/// socket in the working directory. Members are destroyed in
/// reverse order, so the socket closes before the server stops.
struct Stack {
  std::unique_ptr<ViewRegistry> registry;
  std::unique_ptr<ingest::IngestManager> ingest;
  std::unique_ptr<ExplanationServer> server;
  std::unique_ptr<SocketServer> socket;
  Endpoint endpoint;
  std::string journal;

  ~Stack() {
    if (socket != nullptr) socket->Stop();
    if (server != nullptr) {
      server->SetIngestHandler(nullptr);
      server->Stop();
    }
    if (ingest != nullptr) ingest->Stop();
    std::remove(journal.c_str());
  }
};

void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

/// Starts a stack serving `views` and `model`, with an IngestManager and
/// its own write-ahead journal taking kIngest requests. The process-wide
/// MatchCache is emptied first, so every stack starts alike.
std::unique_ptr<Stack> StartStack(const ExplanationViewSet& views,
                                  std::shared_ptr<const GcnClassifier> model) {
  static int instance = 0;
  ++instance;
  MatchCache::Global().Clear();
  auto stack = std::make_unique<Stack>();
  stack->registry = std::make_unique<ViewRegistry>();
  Check(stack->registry->InstallViews(views), "install views");
  stack->registry->InstallModel(model);
  stack->registry->WarmMatchCache();
  serve::ServerOptions so;
  so.num_workers = kServeWorkers;
  so.use_match_cache = true;
  stack->server =
      std::make_unique<ExplanationServer>(stack->registry.get(), so);
  Check(stack->server->Start(), "server start");
  ingest::IngestOptions io;
  io.journal_path = "wal-" + std::to_string(instance) + ".bin";
  io.config = ExplainConfig(kUl);
  // Generations change only at the writer's explicit publishes (a drift
  // above 1 never happens), so every read can be checked against the
  // generations live while it was in flight.
  io.drift_threshold = 2.0;
  stack->journal = io.journal_path;
  stack->ingest =
      std::make_unique<ingest::IngestManager>(stack->registry.get(), model, io);
  Check(stack->ingest->Start(), "ingest start");
  ingest::IngestManager* manager = stack->ingest.get();
  stack->server->SetIngestHandler(
      [manager](Request req) { return manager->Submit(std::move(req)); });
  stack->endpoint =
      Endpoint::Unix("serve-" + std::to_string(instance) + ".sock");
  stack->socket = std::make_unique<SocketServer>(stack->server.get());
  Check(stack->socket->Start(stack->endpoint), "socket start");
  return stack;
}

/// Corpus + ApproxGVEX views over labels {0, 1} (2 threads, as explain_mut).
struct Built {
  Corpus corpus;
  ExplanationViewSet views;
};

Built BuildViews(uint64_t seed) {
  Built b;
  b.corpus = MakeCorpus("MUT", 1.0, seed);
  ParallelExplainOptions po;
  po.num_threads = 2;
  Result<ExplanationViewSet> views =
      ParallelApproxExplain(*b.corpus.model, b.corpus.db, b.corpus.assigned,
                            {0, 1}, ExplainConfig(kUl), po);
  Check(views.status(), "view build");
  b.views = std::move(*views);
  return b;
}

ReadSource SourceFor(const Built& b) {
  ReadSource src;
  src.db = &b.corpus.db;
  src.patterns.push_back(datasets::NitroGroupPattern());
  for (const ExplanationView& view : b.views.views) {
    for (const Graph& p : view.patterns) src.patterns.push_back(p);
  }
  return src;
}

/// Per read type, the mean socket round trip minus the mean in-process
/// ExplanationServer::Call round trip over the same reads, plus the mean
/// codec time per read (request + response). A read that fails on either
/// path is a failed operation.
void MeasureWire(Stack* stack, const std::vector<Request>& reads,
                 LayerExtras* extras, RunResult* result) {
  auto client = Connect(stack->endpoint, 1);
  std::map<std::string, double> overhead_us;
  std::map<std::string, double> count;
  double encode_us = 0.0;
  double decode_us = 0.0;
  for (const Request& req : reads) {
    const std::string type = ReadTypeName(req.type);
    const double t0 = NowSeconds();
    Result<Response> wire = client[0]->Call(req);
    const double t1 = NowSeconds();
    const Response local = stack->server->Call(req);
    const double t2 = NowSeconds();
    ++result->attempted;
    if (!wire.ok() || !wire->ok() || !local.ok()) ++result->failed;
    overhead_us[type] += ((t1 - t0) - (t2 - t1)) * 1e6;
    count[type] += 1;

    const double e0 = NowSeconds();
    const std::string req_body = serve::EncodeRequestBody(req);
    const std::string resp_body = serve::EncodeResponseBody(local);
    const double e1 = NowSeconds();
    const bool decoded = serve::DecodeRequestBody(req_body).ok() &&
                         serve::DecodeResponseBody(resp_body).ok();
    const double e2 = NowSeconds();
    if (!decoded) result->Mismatch("a read does not survive its own codec");
    encode_us += (e1 - e0) * 1e6;
    decode_us += (e2 - e1) * 1e6;
  }
  for (const auto& [type, n] : count) {
    (*extras)["wire.overhead_us." + type] = overhead_us[type] / n;
  }
  (*extras)["wire.encode_us"] = encode_us / static_cast<double>(reads.size());
  (*extras)["wire.decode_us"] = decode_us / static_cast<double>(reads.size());
}

/// Closed-loop capacity: `connections` threads send `reads` back to back,
/// each on its own connection; returns reads per second.
double MeasureCapacity(const Endpoint& endpoint,
                       const std::vector<Request>& reads, size_t connections,
                       RunResult* result) {
  auto clients = Connect(endpoint, connections);
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> failed{0};
  const double start = NowSeconds();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i; (i = next.fetch_add(1)) < reads.size();) {
        Result<Response> resp = clients[c]->Call(reads[i]);
        if (!resp.ok() || !resp->ok()) failed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = NowSeconds() - start;
  result->attempted += reads.size();
  result->failed += failed.load();
  return static_cast<double>(reads.size()) / seconds;
}

}  // namespace

// ---- ingest_mix ------------------------------------------------------------------

void RunIngestMix(const Options& options, RunResult* result) {
  struct Setup {
    Built built;
    std::unique_ptr<Stack> stack;  ///< ready for the first trial
  };
  int trial = 0;
  SetupTimer timer;
  std::unique_ptr<Setup> s = timer.First<std::unique_ptr<Setup>>([&] {
    auto setup = std::make_unique<Setup>();
    setup->built = BuildViews(options.seed);
    setup->stack = StartStack(setup->built.views, setup->built.corpus.model);
    return setup;
  });
  const Corpus& corpus = s->built.corpus;
  const ReadSource src = SourceFor(s->built);
  const size_t feeds = std::min(kIngestGraphs, corpus.db.size());
  // The feed alternates the two labels (corpus order within each), so every
  // published generation holds a view for both and no read is refused for
  // a missing label.
  std::vector<size_t> feed_order;
  {
    std::vector<size_t> by_label[2];
    for (size_t i = 0; i < corpus.db.size(); ++i) {
      by_label[corpus.assigned[i] == 0 ? 0 : 1].push_back(i);
    }
    for (size_t k = 0; feed_order.size() < feeds; ++k) {
      for (const std::vector<size_t>& group : by_label) {
        if (k < group.size() && feed_order.size() < feeds) {
          feed_order.push_back(group[k]);
        }
      }
    }
  }

  std::vector<double> untraced_cpu_s, untraced_wall_s, traced_cpu_s, read_ms;
  uint64_t reads_attempted = 0, reads_failed = 0;
  uint64_t writes_attempted = 0, writes_failed = 0;
  double worst_late_ms = 0.0;
  ExplanationViewSet last_views;
  const double start = NowSeconds();
  for (;; ++trial) {
    const double elapsed = NowSeconds() - start;
    const bool traced = options.trace && elapsed >= options.seconds / 2;
    if (elapsed >= options.seconds && trial >= 3 &&
        (!options.trace || traced_cpu_s.size() >= 2)) {
      break;
    }
    timer.Between(elapsed, options.seconds);
    if (traced && !obs::TraceEnabled()) {
      obs::Registry::Global().Reset();
      obs::SetTraceEnabled(true);
    }
    std::unique_ptr<Stack> stack;
    if (trial == 0) {
      stack = std::move(s->stack);
    } else {
      ObsPause pause;
      stack = StartStack(s->built.views, corpus.model);
    }
    ViewRegistry* registry = stack->registry.get();

    // Every generation the reads may see, by number.
    std::map<uint64_t, std::shared_ptr<const serve::LoadedViewSet>> gens;
    std::mutex gens_mu;
    auto remember = [&](std::shared_ptr<const serve::LoadedViewSet> snap) {
      std::lock_guard<std::mutex> lock(gens_mu);
      gens.emplace(snap->generation, snap);
      return snap->generation;
    };
    remember(registry->Snapshot());

    // kTrialReads reads at a fixed rate, starting with the writer.
    const uint64_t trial_seed = options.seed * 1000 + 500 + trial;
    const std::vector<double> due =
        PoissonSchedule(trial_seed, kReadRate, kTrialReads);
    const std::vector<Request> reads = MakeReads(trial_seed, due.size(), src);
    std::vector<uint64_t> gen_before(due.size(), 0), gen_after(due.size(), 0);
    std::vector<Response> answers(due.size());

    // Writer: closed loop over one connection. It publishes every
    // kPublishEvery graphs once both labels have an accepted graph (a
    // label whose first graphs are all infeasible would otherwise vanish
    // from the served views), and once more at the end.
    double writer_s = 0.0;
    uint64_t publishes_sent = 0;
    // The trial's CPU seconds: the whole process from here until both the
    // writer and the reader are done (server, ingest and client threads).
    const Stopwatch watch;
    std::thread writer([&] {
      auto client = Connect(stack->endpoint, 1);
      auto call = [&](const Request& r) {
        Result<Response> resp = [&] {
          GVEX_SPAN("bench.ingest");
          return client[0]->Call(r);
        }();
        ++writes_attempted;
        if (!resp.ok() || !resp->ok()) {
          ++writes_failed;
          std::fprintf(stderr, "ingest %s: %s\n", r.text.c_str(),
                       resp.ok() ? resp->message.c_str()
                                 : resp.status().ToString().c_str());
          return std::string();
        }
        return resp->text;
      };
      bool accepted[2] = {false, false};
      size_t since_publish = 0;
      const double t0 = NowSeconds();
      for (size_t i = 0; i < feeds; ++i) {
        Request req;
        req.type = RequestType::kIngest;
        req.label = corpus.assigned[feed_order[i]];
        req.graph = corpus.db.graph(feed_order[i]);
        req.has_graph = true;
        if (call(req).rfind("ingested", 0) == 0) {
          accepted[req.label == 0 ? 0 : 1] = true;
        }
        ++since_publish;
        const bool due_now = since_publish >= kPublishEvery || i + 1 == feeds;
        if (due_now && accepted[0] && accepted[1]) {
          Request publish;
          publish.type = RequestType::kIngest;
          publish.text = "publish";
          if (!call(publish).empty()) remember(registry->Snapshot());
          ++publishes_sent;
          since_publish = 0;
        }
      }
      writer_s = NowSeconds() - t0;
    });

    OpenLoopResult run = RunOpenLoop(
        stack->endpoint, reads, due, kReaders,
        [&](size_t i) { gen_before[i] = remember(registry->Snapshot()); },
        [&](size_t i, const Response& resp) {
          gen_after[i] = remember(registry->Snapshot());
          answers[i] = resp;
        });
    writer.join();
    if (traced) {
      traced_cpu_s.push_back(watch.CpuSecondsUsed());
    } else {
      untraced_cpu_s.push_back(watch.CpuSecondsUsed());
      untraced_wall_s.push_back(writer_s);
    }
    reads_attempted += run.attempted;
    reads_failed += run.failed;
    if (run.late.reported()) {
      worst_late_ms = std::max(worst_late_ms, run.late.value);
    }
    // A trial whose reader fell behind its schedule reports no latency.
    if (run.valid) {
      read_ms.insert(read_ms.end(), run.latency_ms.begin(),
                     run.latency_ms.end());
    } else {
      Note("trial %d: reader fell behind its schedule (late p%g %.3f ms); "
           "its latencies are not reported", trial, run.late.q * 100,
           run.late.value);
    }

    // Each answered read must equal the direct answer of a generation live
    // while it was in flight.
    ObsPause pause;
    for (size_t i = 0; i < due.size(); ++i) {
      if (gen_after[i] == 0) continue;  // not sent, or failed
      bool match = false;
      bool known = true;
      for (uint64_t g = gen_before[i]; g <= gen_after[i] && !match; ++g) {
        auto it = gens.find(g);
        if (it == gens.end()) {
          known = false;
          continue;
        }
        match = SameAnswer(DirectAnswer(reads[i], it->second->views,
                                        it->second->model.get()),
                           answers[i]);
      }
      if (!match) {
        ++reads_failed;
        result->Mismatch(known ? "ingest_mix read matches neither generation"
                               : "ingest_mix read spans an unseen generation");
      }
    }
    last_views = registry->Snapshot()->views;
    const uint64_t publishes = stack->ingest->Info().published;
    if (publishes != publishes_sent || publishes == 0) {
      result->Mismatch("ingest_mix published " + std::to_string(publishes) +
                       " generations for " + std::to_string(publishes_sent) +
                       " publish requests");
    }
    stack.reset();
  }
  timer.Finish(result);
  LayerExtras extras;
  if (options.trace) {
    // The wire figures: the same reads over the socket and through
    // ExplanationServer::Call, on an idle stack. Then, untraced, the
    // closed-loop capacity of the read mix on that stack, the figure
    // kReadRate is set against.
    std::unique_ptr<Stack> stack;
    {
      ObsPause pause;
      stack = StartStack(s->built.views, corpus.model);
    }
    MeasureWire(stack.get(),
                MakeReads(options.seed * 1000 + 900, kWireReads, src), &extras,
                result);
    ObsPause pause;
    extras["read.closed_loop_per_s"] = MeasureCapacity(
        stack->endpoint,
        MakeReads(options.seed * 1000 + 901, kCapacityReads, src), kReaders,
        result);
    stack.reset();
  }
  obs::SetTraceEnabled(false);
  const LayerSnapshot layers = SnapshotLayers();

  // Resident views name graphs by feed sequence number (1-based); map them
  // back to corpus indices for the quality read-out.
  for (ExplanationView& view : last_views.views) {
    for (ExplanationSubgraph& sub : view.subgraphs) {
      sub.graph_index = feed_order[sub.graph_index - 1];
    }
  }
  const Quality q =
      MeasureQuality(last_views, corpus.db, *corpus.model, ExplainConfig(kUl));
  result->Add("fidelity_plus", q.fidelity_plus, "ratio");
  result->Add("sparsity", q.sparsity, "ratio");
  extras["quality.fidelity_minus"] = q.fidelity_minus;
  extras["quality.edge_loss"] = q.edge_loss;

  result->attempted += reads_attempted + writes_attempted;
  result->failed += reads_failed + writes_failed;
  const double trial_cpu_s = Median(untraced_cpu_s);
  const double writer_wall_s = Median(untraced_wall_s);
  const Quantile p50 = QuantileOf(read_ms, 0.5);
  const Quantile p99 = QuantileOf(read_ms, 0.99);
  result->Add("graphs_per_cpu_s", static_cast<double>(feeds) / trial_cpu_s,
              "1/s");
  extras["wall.graphs_per_s"] = static_cast<double>(feeds) / writer_wall_s;
  extras["read.p50_ms"] = p50.reported() ? p50.value : 0.0;
  extras["read.p99_ms"] = p99.reported() ? p99.value : 0.0;
  extras["read.p99_samples"] = static_cast<double>(p99.samples);
  extras["read.fail_frac"] = FailFraction(reads_failed, reads_attempted);
  extras["read.generator_late_p99_ms"] = worst_late_ms;
  extras["ingest.fail_frac"] = FailFraction(writes_failed, writes_attempted);
  if (options.trace) {
    extras["trace.overhead_pct"] =
        (Median(traced_cpu_s) / trial_cpu_s - 1.0) * 100.0;
  }
  Note("ingest: %d trials of %zu graphs and %zu reads, median %.0f CPU ms "
       "and %.0f graphs/s wall; reads at %.0f/s: p50 %.3f ms (n=%zu), p99 "
       "%.3f ms (%zu beyond), %llu failed",
       trial, feeds, kTrialReads, trial_cpu_s * 1e3, feeds / writer_wall_s,
       kReadRate, p50.value, p50.samples, p99.value, p99.beyond,
       static_cast<unsigned long long>(reads_failed));
  if (options.trace) AddLayerMetrics(layers, extras, result);
}

}  // namespace perfbench
