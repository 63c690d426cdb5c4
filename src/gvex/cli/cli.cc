#include "gvex/cli/cli.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "gvex/cluster/bundle.h"
#include "gvex/cluster/publisher.h"
#include "gvex/cluster/replicator.h"
#include "gvex/cluster/router.h"
#include "gvex/cluster/shard_map.h"

#include "gvex/common/failpoint.h"
#include "gvex/common/stopwatch.h"
#include "gvex/common/string_util.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/approx_gvex.h"
#include "gvex/explain/checkpoint.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/query.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/explain/verifier.h"
#include "gvex/explain/view_io.h"
#include "gvex/gnn/serialize.h"
#include "gvex/gnn/trainer.h"
#include "gvex/graph/graph_io.h"
#include "gvex/ingest/ingest.h"
#include "gvex/metrics/metrics.h"
#include "gvex/obs/obs.h"
#include "gvex/obs/report.h"
#include "gvex/serve/socket.h"
#include "gvex/zoo/zoo.h"

namespace gvex {
namespace cli {
namespace {

// ---- flag parsing -------------------------------------------------------------

class Flags {
 public:
  static Result<Flags> Parse(const std::vector<std::string>& args) {
    // Boolean flags take no value; their presence means "true".
    static const std::set<std::string> kBoolFlags = {"resume",
                                                     "no-health-gate",
                                                     "describe",
                                                     "ingest",
                                                     "publish",
                                                     "status"};
    Flags flags;
    for (size_t i = 0; i < args.size(); ++i) {
      if (!StartsWith(args[i], "--")) {
        return Status::InvalidArgument("unexpected argument: " + args[i]);
      }
      std::string key = args[i].substr(2);
      if (kBoolFlags.count(key) > 0) {
        flags.values_[key] = "1";
        continue;
      }
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("flag --" + key + " needs a value");
      }
      flags.values_[key] = args[++i];
    }
    return flags;
  }

  std::optional<std::string> Get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  Result<std::string> Require(const std::string& key) const {
    auto v = Get(key);
    if (!v) return Status::InvalidArgument("missing required flag --" + key);
    return *v;
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto v = Get(key);
    return v ? std::atof(v->c_str()) : fallback;
  }

  long GetInt(const std::string& key, long fallback) const {
    auto v = Get(key);
    return v ? std::atol(v->c_str()) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

void Usage() {
  std::fprintf(stderr,
               "usage: gvex_tool <gen|stats|train|explain|verify|fidelity|"
               "query|serve|client|publish|ingest|evaluate|shardmap|frontend> "
               "[--flags]\n"
               "zoo: serve --zoo routes.txt binds explainer configs to "
               "routes; evaluate scores one against planted-motif ground "
               "truth and gates on --min-fidelity/--min-accuracy "
               "(docs/SERVING.md \"Explainer zoo\")\n"
               "cluster: serve --follow unix:<path>|tcp:<port> tails a "
               "primary; publish ships a view bundle to a running server "
               "(--targets a,b,c fans out with a health gate; --shard-map "
               "map.bin partitions it across a fleet)\n"
               "live ingest: serve --ingest keeps a resident StreamGVEX "
               "behind the server (journaled, drift-triggered auto-publish); "
               "ingest streams a graph database into it "
               "(docs/SERVING.md \"Live ingest\")\n"
               "fleet: shardmap creates/describes a gvexshardmap-v1 "
               "topology; frontend serves scatter-gather queries for the "
               "whole fleet behind one socket (docs/WIRE_PROTOCOL.md)\n"
               "admission: serve --route-quota name=depth[:share] sheds a "
               "route's overflow without touching other routes\n"
               "observability: --metrics-out <file> (PerfReport JSON), "
               "--trace-out <file> (chrome://tracing)\n"
               "see src/gvex/cli/cli.h for the full synopsis\n");
}

// ---- shared loaders -----------------------------------------------------------

Result<GraphDatabase> LoadDb(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(std::string path, flags.Require("db"));
  return LoadDatabase(path);
}

Result<GcnClassifier> LoadModel(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(std::string path, flags.Require("model"));
  return GcnSerializer::Load(path);
}

Configuration ConfigFromFlags(const Flags& flags) {
  Configuration config;
  config.theta = static_cast<float>(flags.GetDouble("theta", 0.08));
  config.radius = static_cast<float>(flags.GetDouble("radius", 0.25));
  config.gamma = static_cast<float>(flags.GetDouble("gamma", 0.5));
  config.default_coverage.lower =
      static_cast<size_t>(flags.GetInt("bl", 0));
  config.default_coverage.upper =
      static_cast<size_t>(flags.GetInt("ul", 15));
  return config;
}

Result<std::vector<ClassLabel>> ParseLabels(const std::string& spec) {
  std::vector<ClassLabel> labels;
  for (const std::string& part : SplitString(spec, ',')) {
    labels.push_back(static_cast<ClassLabel>(std::atoi(part.c_str())));
  }
  if (labels.empty()) return Status::InvalidArgument("no labels in " + spec);
  return labels;
}

// ---- subcommands --------------------------------------------------------------

Status CmdGen(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(std::string dataset, flags.Require("dataset"));
  GVEX_ASSIGN_OR_RETURN(std::string out, flags.Require("out"));
  double scale = flags.GetDouble("scale", 1.0);
  // --seed offsets the generator so repeated runs can produce distinct
  // but reproducible databases (default 0 keeps historic output).
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  GVEX_ASSIGN_OR_RETURN(GraphDatabase db,
                        datasets::MakeByName(dataset, scale, seed));
  GVEX_RETURN_NOT_OK(SaveDatabase(db, out));
  std::printf("wrote %zu graphs to %s\n", db.size(), out.c_str());
  return Status::OK();
}

Status CmdStats(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDb(flags));
  auto s = db.ComputeStats();
  std::printf("graphs %zu, classes %zu, avg nodes %.1f, avg edges %.1f, "
              "features/node %zu\n",
              s.num_graphs, s.num_classes, s.avg_nodes, s.avg_edges,
              s.feature_dim);
  return Status::OK();
}

Status CmdTrain(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDb(flags));
  GVEX_ASSIGN_OR_RETURN(std::string out, flags.Require("out"));
  GcnConfig mc;
  mc.input_dim = db.feature_dim();
  mc.hidden_dim = static_cast<size_t>(flags.GetInt("hidden", 32));
  mc.num_layers = static_cast<size_t>(flags.GetInt("layers", 3));
  mc.num_classes = db.num_classes();
  std::string agg = flags.Get("aggregator").value_or("gcn");
  if (agg == "mean") {
    mc.propagation = Graph::PropagationKind::kMeanNeighbor;
  } else if (agg == "sum") {
    mc.propagation = Graph::PropagationKind::kSumNeighbor;
  } else if (agg != "gcn") {
    return Status::InvalidArgument("unknown aggregator: " + agg);
  }
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model, GcnClassifier::Create(mc));
  DataSplit split = SplitDatabase(db, 0.8, 0.1,
                                  static_cast<uint64_t>(flags.GetInt("seed", 42)));
  TrainerConfig tc;
  tc.epochs = static_cast<size_t>(flags.GetInt("epochs", 150));
  tc.patience = tc.epochs / 2;
  tc.adam.learning_rate =
      static_cast<float>(flags.GetDouble("lr", 5e-3));
  TrainReport report = Trainer(tc).Fit(&model, db, split);
  GVEX_RETURN_NOT_OK(GcnSerializer::Save(model, out));
  std::printf("trained %zu epochs, val acc %.3f, test acc %.3f; model -> %s\n",
              report.epochs_run, report.best_validation_accuracy,
              report.test_accuracy, out.c_str());
  return Status::OK();
}

Status CmdExplain(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDb(flags));
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model, LoadModel(flags));
  GVEX_ASSIGN_OR_RETURN(std::string out, flags.Require("out"));
  GVEX_ASSIGN_OR_RETURN(std::string label_spec, flags.Require("labels"));
  GVEX_ASSIGN_OR_RETURN(std::vector<ClassLabel> labels,
                        ParseLabels(label_spec));
  Configuration config = ConfigFromFlags(flags);
  std::vector<ClassLabel> assigned = AssignLabels(model, db);

  // Fault-tolerance knobs (see README "Long jobs" section).
  std::unique_ptr<ExplanationCheckpoint> checkpoint;
  if (auto ckpt_path = flags.Get("checkpoint")) {
    GVEX_ASSIGN_OR_RETURN(
        checkpoint,
        ExplanationCheckpoint::Open(*ckpt_path, flags.Has("resume")));
    if (checkpoint->loaded_count() > 0) {
      std::printf("resuming: %zu journaled subgraphs from %s\n",
                  checkpoint->loaded_count(), ckpt_path->c_str());
    }
  } else if (flags.Has("resume")) {
    return Status::InvalidArgument("--resume requires --checkpoint <path>");
  }
  double budget = flags.GetDouble("budget", 0.0);
  Deadline deadline(budget);
  size_t threads = static_cast<size_t>(flags.GetInt("threads", 1));

  std::string algorithm = flags.Get("algorithm").value_or("approx");
  ExplanationViewSet set;
  if (algorithm == "approx") {
    ParallelExplainOptions options;
    options.num_threads = threads == 0 ? 1 : threads;
    options.deadline = budget > 0.0 ? &deadline : nullptr;
    options.checkpoint = checkpoint.get();
    ParallelExplainReport report;
    options.report = &report;
    GVEX_ASSIGN_OR_RETURN(
        set, ParallelApproxExplain(model, db, assigned, labels, config,
                                   options));
    for (const auto& [label, stats] : report.per_view) {
      std::printf("label %d: %zu/%zu explained (%zu resumed, %zu infeasible, "
                  "%zu invalid)\n",
                  label, stats.explained, stats.attempted, stats.resumed,
                  stats.infeasible, stats.invalid);
    }
  } else if (algorithm == "stream") {
    if (checkpoint != nullptr) {
      return Status::InvalidArgument(
          "--checkpoint applies to --algorithm approx (stream uses in-process "
          "Snapshot/Restore)");
    }
    StreamGvex solver(&model, config);
    uint64_t order_seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
    GVEX_ASSIGN_OR_RETURN(set, solver.Explain(db, assigned, labels,
                                              budget > 0.0 ? &deadline
                                                           : nullptr,
                                              order_seed));
  } else {
    return Status::InvalidArgument("unknown algorithm: " + algorithm);
  }
  GVEX_RETURN_NOT_OK(SaveViewSet(set, out));
  for (const auto& view : set.views) {
    std::printf("%s\n", view.Summary().c_str());
  }
  std::printf("views -> %s\n", out.c_str());
  return Status::OK();
}

Status CmdVerify(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDb(flags));
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model, LoadModel(flags));
  GVEX_ASSIGN_OR_RETURN(std::string views_path, flags.Require("views"));
  GVEX_ASSIGN_OR_RETURN(ExplanationViewSet set, LoadViewSet(views_path));
  Configuration config = ConfigFromFlags(flags);
  bool all_ok = true;
  for (const auto& view : set.views) {
    ViewVerification check =
        VerifyExplanationView(view, db, model, config);
    std::printf("label %d: C1=%d C2=%d C3=%d %s\n", view.label,
                check.c1_graph_view ? 1 : 0, check.c2_explanation ? 1 : 0,
                check.c3_coverage ? 1 : 0, check.detail.c_str());
    all_ok = all_ok && check.ok();
  }
  return all_ok ? Status::OK()
                : Status::FailedPrecondition("verification failed");
}

Status CmdFidelity(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDb(flags));
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model, LoadModel(flags));
  GVEX_ASSIGN_OR_RETURN(std::string views_path, flags.Require("views"));
  GVEX_ASSIGN_OR_RETURN(ExplanationViewSet set, LoadViewSet(views_path));
  for (const auto& view : set.views) {
    FidelityReport fid =
        EvaluateFidelity(model, db, ToGraphExplanations(view));
    std::printf("label %d: fidelity+ %.3f, fidelity- %.3f, sparsity %.3f, "
                "compression %.3f (%zu graphs)\n",
                view.label, fid.fidelity_plus, fid.fidelity_minus,
                fid.sparsity, view.Compression(), fid.num_graphs);
  }
  return Status::OK();
}

Status CmdQuery(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(std::string views_path, flags.Require("views"));
  GVEX_ASSIGN_OR_RETURN(ExplanationViewSet set, LoadViewSet(views_path));
  GVEX_ASSIGN_OR_RETURN(std::string pattern_path, flags.Require("pattern"));
  std::ifstream pattern_in(pattern_path);
  if (!pattern_in.is_open()) {
    return Status::IoError("cannot open " + pattern_path);
  }
  GVEX_ASSIGN_OR_RETURN(Graph pattern, ReadGraph(&pattern_in));
  ClassLabel label = static_cast<ClassLabel>(flags.GetInt("label", -1));

  MatchOptions loose;
  loose.semantics = MatchSemantics::kSubgraph;
  ViewQuery query(loose);
  for (const auto& view : set.views) {
    if (label >= 0 && view.label != label) continue;
    auto hits = query.FindHits(view, pattern);
    std::printf("label %d: pattern matches %zu/%zu explanation subgraphs\n",
                view.label, hits.size(), view.subgraphs.size());
    for (const auto& hit : hits) {
      std::printf("  graph %zu: %zu embeddings\n", hit.graph_index,
                  hit.embeddings);
    }
  }
  return Status::OK();
}

// ---- serving ------------------------------------------------------------------

Result<serve::Endpoint> EndpointFromFlags(const Flags& flags) {
  if (auto path = flags.Get("socket")) return serve::Endpoint::Unix(*path);
  if (flags.Has("port")) {
    return serve::Endpoint::Tcp(
        static_cast<uint16_t>(flags.GetInt("port", 0)));
  }
  return Status::InvalidArgument("need --socket <path> or --port <n>");
}

// --follow targets: "unix:<path>", "tcp:<port>", a bare port, or
// "<host>:<port>" (the host part is ignored — connections are loopback
// only, like everything else in the transport).
Result<serve::Endpoint> ParseFollowTarget(const std::string& spec) {
  if (StartsWith(spec, "unix:")) {
    return serve::Endpoint::Unix(spec.substr(5));
  }
  std::string port = spec;
  if (StartsWith(port, "tcp:")) port = port.substr(4);
  const size_t colon = port.rfind(':');
  if (colon != std::string::npos) port = port.substr(colon + 1);
  const long n = std::atol(port.c_str());
  if (n <= 0 || n > 65535) {
    return Status::InvalidArgument("bad --follow target '" + spec +
                                   "' (want unix:<path> or tcp:<port>)");
  }
  return serve::Endpoint::Tcp(static_cast<uint16_t>(n));
}

Status CmdServe(const Flags& flags) {
  serve::ViewRegistry registry;
  const std::string route =
      flags.Get("route").value_or(cluster::kDefaultRoute);
  GVEX_RETURN_NOT_OK(cluster::CheckRouteName(route));
  // --exact-fp32 a,b: pin routes to full-precision models. The policy
  // sits in the registry's publish funnel, so wire installs, fetched
  // bundles, and local loads are all covered by the same rejection.
  if (auto exact_spec = flags.Get("exact-fp32")) {
    for (const std::string& entry : SplitString(*exact_spec, ',')) {
      if (entry.empty()) continue;
      if (!cluster::IsValidRouteName(entry)) {
        return Status::InvalidArgument("--exact-fp32: invalid route name '" +
                                       entry + "'");
      }
      registry.SetExactFp32(entry, true);
    }
  }
  const auto views_path = flags.Get("views");
  const auto follow = flags.Get("follow");
  const bool live_ingest = flags.Has("ingest");
  if (!views_path && !follow && !live_ingest) {
    return Status::InvalidArgument(
        "need --views <file> (or --follow <primary> for a standby, or "
        "--ingest to bootstrap from the live write path)");
  }
  size_t warm = 0;
  if (views_path) {
    GVEX_RETURN_NOT_OK(registry.LoadViews(route, *views_path));
    if (auto model_path = flags.Get("model")) {
      if (route != cluster::kDefaultRoute) {
        return Status::InvalidArgument(
            "--model loads into the default route; publish a bundle to put "
            "a model on route '" + route + "'");
      }
      GVEX_RETURN_NOT_OK(registry.LoadModel(*model_path));
    }
    warm = registry.WarmMatchCache(route);
  }

  std::unique_ptr<cluster::Replicator> replicator;
  if (follow) {
    cluster::ReplicatorOptions ropts;
    GVEX_ASSIGN_OR_RETURN(ropts.primary, ParseFollowTarget(*follow));
    ropts.poll_interval_ms =
        static_cast<uint32_t>(flags.GetInt("poll-ms", 200));
    ropts.jitter_seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
    replicator = std::make_unique<cluster::Replicator>(&registry, ropts);
  }

  // --ingest: a resident StreamGVEX behind this server (gvex::ingest).
  // kIngest requests bypass the query queue into the manager's dedicated
  // worker; drift past --drift-threshold cuts a bundle and hot-swaps it
  // into the registry (and fans out to --targets / --shard-map followers,
  // reusing the publish grammar). --ingest-journal + --resume give
  // crash-exact restart (docs/SERVING.md "Live ingest & freshness SLO").
  std::unique_ptr<ingest::IngestManager> ingester;
  if (live_ingest) {
    GVEX_ASSIGN_OR_RETURN(std::string model_path, flags.Require("model"));
    GVEX_ASSIGN_OR_RETURN(GcnClassifier ingest_model,
                          GcnSerializer::Load(model_path));
    ingest::IngestOptions iopts;
    iopts.route = route;
    iopts.max_pending = static_cast<size_t>(flags.GetInt("ingest-queue", 64));
    iopts.drift_threshold = flags.GetDouble("drift-threshold", 0.25);
    iopts.drift_window =
        static_cast<size_t>(flags.GetInt("drift-window", 16));
    iopts.checkpoint_cadence =
        static_cast<size_t>(flags.GetInt("ingest-cadence", 8));
    iopts.journal_path = flags.Get("ingest-journal").value_or("");
    iopts.resume = flags.Has("resume");
    iopts.config = ConfigFromFlags(flags);
    if (auto targets_spec = flags.Get("targets")) {
      for (const std::string& entry : SplitString(*targets_spec, ',')) {
        if (entry.empty()) continue;
        GVEX_ASSIGN_OR_RETURN(serve::Endpoint target,
                              ParseFollowTarget(entry));
        iopts.targets.push_back(std::move(target));
      }
    }
    if (auto map_path = flags.Get("shard-map")) {
      GVEX_ASSIGN_OR_RETURN(cluster::ShardMap map,
                            cluster::ShardMap::Load(*map_path));
      iopts.shard_map =
          std::make_shared<const cluster::ShardMap>(std::move(map));
    }
    iopts.publish.retries = static_cast<int>(flags.GetInt("retry", 2));
    iopts.publish.backoff_base_ms =
        static_cast<uint32_t>(flags.GetInt("retry-backoff-ms", 50));
    iopts.publish.jitter_seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
    iopts.publish.health_gate = !flags.Has("no-health-gate");
    ingester = std::make_unique<ingest::IngestManager>(
        &registry,
        std::make_shared<const GcnClassifier>(std::move(ingest_model)),
        std::move(iopts));
  }

  // --zoo FILE: the explainer zoo (gvex::zoo). The gvexzoo-v1 artifact
  // binds routes to explainer configs; kEvaluate requests score them
  // against planted-motif ground truth on the shared query queue (so
  // admission, quotas, deadlines, and cancellation apply unchanged).
  std::unique_ptr<zoo::ZooManager> zoo_manager;
  if (auto zoo_path = flags.Get("zoo")) {
    zoo_manager = std::make_unique<zoo::ZooManager>(&registry);
    GVEX_RETURN_NOT_OK(zoo_manager->ConfigureFromFile(*zoo_path));
  }

  serve::ServerOptions options;
  options.num_workers = static_cast<size_t>(flags.GetInt("workers", 4));
  options.max_queue = static_cast<size_t>(flags.GetInt("queue", 256));
  options.batch_max = static_cast<size_t>(flags.GetInt("batch", 8));
  options.default_deadline_ms =
      static_cast<uint32_t>(flags.GetInt("deadline-ms", 0));
  // --route-quota a=16:0.25,b=8 — comma-separated name=depth[:share]
  // specs; each caps one route's queue slots (and optionally its share
  // of the workers) so a bursty route sheds before starving the rest.
  if (auto quota_spec = flags.Get("route-quota")) {
    for (const std::string& entry : SplitString(*quota_spec, ',')) {
      if (entry.empty()) continue;
      GVEX_ASSIGN_OR_RETURN(auto quota, serve::ParseRouteQuotaSpec(entry));
      options.route_quotas[quota.first] = quota.second;
    }
  }
  serve::ExplanationServer server(&registry, options);
  cluster::Replicator* repl = replicator.get();
  ingest::IngestManager* live = ingester.get();
  if (repl != nullptr || live != nullptr) {
    // kHealth reports replication lag and ingest freshness next to
    // admission state; the hook keeps serve/ free of cluster/ and
    // ingest/ dependencies.
    server.SetHealthHook([repl, live](serve::HealthInfo* health) {
      if (repl != nullptr) {
        const cluster::ReplicatorStats stats = repl->stats();
        health->following = true;
        health->replication_installs = stats.installs;
        health->replication_lag_polls = stats.consecutive_failures;
        health->replication_error = stats.last_error;
      }
      if (live != nullptr) {
        const ingest::IngestInfo info = live->Info();
        health->ingesting = info.running;
        health->ingest_pending = info.pending;
        health->ingest_accepted = info.accepted;
        health->ingest_published = info.published;
        health->ingest_drift_bp = static_cast<uint64_t>(
            std::lround(std::max(0.0, info.drift) * 10000.0));
        health->ingest_staleness_ms = info.staleness_ms;
      }
    });
  }
  if (live != nullptr) {
    // Start before the socket accepts: journal replay must finish before
    // the first kIngest frame can land on the dedicated worker.
    GVEX_RETURN_NOT_OK(ingester->Start());
    server.SetIngestHandler([live](serve::Request req) {
      return live->Submit(std::move(req));
    });
  }
  if (zoo_manager != nullptr) {
    zoo::ZooManager* z = zoo_manager.get();
    server.SetEvaluateHandler(
        [z](const serve::Request& req, const CancellationToken* cancel) {
          return z->Handle(req, cancel);
        });
  }
  GVEX_RETURN_NOT_OK(server.Start());

  GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
  serve::SocketServer socket(&server);
  Status started = socket.Start(endpoint);
  if (!started.ok()) {
    server.Stop();
    return started;
  }
  if (!endpoint.is_unix()) endpoint.tcp_port = socket.bound_port();
  // Readiness line: smoke scripts poll for it before sending requests.
  std::printf("serving on %s (generation %llu, %zu workers, %zu warm pairs)\n",
              endpoint.ToString().c_str(),
              static_cast<unsigned long long>(registry.generation(route)),
              options.num_workers, warm);
  std::fflush(stdout);
  if (replicator != nullptr) {
    Status following = replicator->Start();
    if (!following.ok()) {
      socket.Stop();
      server.Stop();
      if (ingester != nullptr) ingester->Stop();
      return following;
    }
    std::printf("following %s\n", follow->c_str());
    std::fflush(stdout);
  }
  if (zoo_manager != nullptr) {
    // Smoke scripts poll this line before evaluating.
    std::printf("zoo serving %zu explainer routes\n",
                zoo_manager->Configs().size());
    std::fflush(stdout);
  }
  if (ingester != nullptr) {
    // Smoke scripts poll this line before streaming: resident/next-seq
    // prove the journal replay landed (the crash-resume leg asserts it).
    const ingest::IngestInfo info = ingester->Info();
    std::printf("ingesting route %s (journal %s, resident %llu, "
                "next seq %llu)\n",
                route.c_str(),
                ingester->options().journal_path.empty()
                    ? "-"
                    : ingester->options().journal_path.c_str(),
                static_cast<unsigned long long>(info.resident_graphs),
                static_cast<unsigned long long>(info.next_seq));
    std::fflush(stdout);
  }

  socket.Wait();
  if (replicator != nullptr) replicator->Stop();
  if (ingester != nullptr) ingester->Stop();
  socket.Stop();
  server.Stop();
  std::printf("server stopped\n");
  return Status::OK();
}

Result<Graph> LoadGraphFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  return ReadGraph(&in);
}

Result<serve::Request> BuildClientRequest(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(std::string type_name, flags.Require("type"));
  serve::Request req;
  // Names resolve through the wire-name table; a retired number has no
  // name, so it cannot be requested.
  for (size_t i = 0;; ++i) {
    if (i == serve::kRequestTypeLimit) {
      return Status::InvalidArgument("unknown request type: " + type_name);
    }
    req.type = static_cast<serve::RequestType>(i);
    const char* name = serve::RequestTypeName(req.type);
    if (name != nullptr && type_name == name) break;
  }
  if (auto route = flags.Get("route")) req.route = *route;
  req.id = static_cast<uint64_t>(flags.GetInt("id", 1));
  req.label = static_cast<ClassLabel>(flags.GetInt("label", -1));
  req.against = static_cast<ClassLabel>(flags.GetInt("against", -1));
  req.deadline_ms = static_cast<uint32_t>(flags.GetInt("deadline-ms", 0));
  req.max_embeddings =
      static_cast<size_t>(flags.GetInt("max-embeddings", 64));
  std::string semantics = flags.Get("semantics").value_or("subgraph");
  if (semantics == "induced") {
    req.semantics = MatchSemantics::kInduced;
  } else if (semantics != "subgraph") {
    return Status::InvalidArgument("unknown semantics: " + semantics);
  }
  if (auto text = flags.Get("text")) req.text = *text;
  req.top_k = static_cast<uint32_t>(flags.GetInt("top-k", 0));

  // Pattern queries carry the pattern as the request graph; classify
  // carries the graph to classify (from a file or a database slot).
  if (auto pattern_path = flags.Get("pattern")) {
    GVEX_ASSIGN_OR_RETURN(req.graph, LoadGraphFile(*pattern_path));
    req.has_graph = true;
    // --graph-index on a pattern query restricts the scan to one corpus
    // graph's explanation subgraph — a point query the ShardRouter sends
    // to the owning shard alone.
    req.graph_index = flags.GetInt("graph-index", -1);
  } else if (auto graph_path = flags.Get("graph")) {
    GVEX_ASSIGN_OR_RETURN(req.graph, LoadGraphFile(*graph_path));
    req.has_graph = true;
  } else if (auto db_path = flags.Get("graph-db")) {
    GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDatabase(*db_path));
    const long index = flags.GetInt("graph-index", 0);
    if (index < 0 || static_cast<size_t>(index) >= db.size()) {
      return Status::OutOfRange("--graph-index " + std::to_string(index) +
                                " outside database of " +
                                std::to_string(db.size()) + " graphs");
    }
    req.graph = db.graph(static_cast<size_t>(index));
    req.has_graph = true;
  }
  return req;
}

// One deterministic output format per request type, shared by the socket
// and --local paths so the smoke test can diff them byte-for-byte.
void PrintClientResponse(const serve::Request& req,
                         const serve::Response& resp) {
  switch (req.type) {
    case serve::RequestType::kPing:
      std::printf("%s\n", resp.text.c_str());
      return;
    case serve::RequestType::kSupport:
      std::printf("support %llu\n",
                  static_cast<unsigned long long>(resp.support));
      return;
    case serve::RequestType::kSubgraphsContaining: {
      std::printf("subgraphs %zu (support %llu)\n", resp.indices.size(),
                  static_cast<unsigned long long>(resp.support));
      for (uint64_t index : resp.indices) {
        std::printf("  graph %llu\n", static_cast<unsigned long long>(index));
      }
      return;
    }
    case serve::RequestType::kFindHits: {
      std::printf("hits %zu\n", resp.hits.size());
      for (const auto& hit : resp.hits) {
        std::printf("  graph %llu: %llu embeddings\n",
                    static_cast<unsigned long long>(hit.graph_index),
                    static_cast<unsigned long long>(hit.embeddings));
      }
      return;
    }
    case serve::RequestType::kDiscriminativePatterns: {
      std::printf("discriminative %zu\n", resp.patterns.size());
      for (const Graph& pattern : resp.patterns) {
        std::printf("  pattern: %zu nodes, %zu edges\n", pattern.num_nodes(),
                    pattern.num_edges());
      }
      return;
    }
    case serve::RequestType::kClassifyExplain: {
      std::printf("predicted %d\n", resp.predicted);
      std::printf("probabilities");
      for (float p : resp.probabilities) std::printf(" %.6f", p);
      std::printf("\n");
      std::printf("explaining patterns %zu\n", resp.patterns.size());
      for (uint64_t index : resp.indices) {
        std::printf("  pattern %llu matches\n",
                    static_cast<unsigned long long>(index));
      }
      return;
    }
    case serve::RequestType::kFetch: {
      std::printf("bundle %zu bytes", resp.bundle.size());
      for (const serve::RouteInfo& r : resp.routes) {
        std::printf(" (route %s generation %llu fingerprint %s)",
                    r.route.c_str(),
                    static_cast<unsigned long long>(r.generation),
                    r.fingerprint.empty() ? "-" : r.fingerprint.c_str());
      }
      std::printf("\n");
      return;
    }
    case serve::RequestType::kHealth: {
      const serve::HealthInfo& h = resp.health;
      std::printf("serving %d queue %llu/%llu workers %llu\n",
                  h.serving ? 1 : 0,
                  static_cast<unsigned long long>(h.queue_depth),
                  static_cast<unsigned long long>(h.max_queue),
                  static_cast<unsigned long long>(h.workers));
      std::printf("route_load %zu\n", h.loads.size());
      for (const serve::RouteLoad& load : h.loads) {
        std::printf("  %s queued %llu active %llu quota %llu:%llu shed %llu\n",
                    load.route.c_str(),
                    static_cast<unsigned long long>(load.queued),
                    static_cast<unsigned long long>(load.active),
                    static_cast<unsigned long long>(load.quota_depth),
                    static_cast<unsigned long long>(load.quota_workers),
                    static_cast<unsigned long long>(load.quota_shed));
      }
      std::printf("following %d installs %llu lag_polls %llu%s%s\n",
                  h.following ? 1 : 0,
                  static_cast<unsigned long long>(h.replication_installs),
                  static_cast<unsigned long long>(h.replication_lag_polls),
                  h.replication_error.empty() ? "" : " error ",
                  h.replication_error.c_str());
      std::printf("routes %zu\n", resp.routes.size());
      for (const serve::RouteInfo& r : resp.routes) {
        std::printf("  %s generation %llu source %llu fingerprint %s "
                    "warmed %d warm_pairs %llu\n",
                    r.route.c_str(),
                    static_cast<unsigned long long>(r.generation),
                    static_cast<unsigned long long>(r.source_generation),
                    r.fingerprint.empty() ? "-" : r.fingerprint.c_str(),
                    r.warmed ? 1 : 0,
                    static_cast<unsigned long long>(r.warm_pairs));
      }
      return;
    }
    case serve::RequestType::kCoverageStats: {
      // Explainability prints with fixed precision so a scatter-gathered
      // answer diffs byte-for-byte against a single union server's
      // (per-shard summation agrees well past six decimals).
      std::printf("coverage %zu\n", resp.coverage.size());
      for (const serve::ViewCoverage& c : resp.coverage) {
        std::printf("  label %d patterns %llu subgraphs %llu nodes %llu "
                    "edges %llu explainability %.6f\n",
                    c.label, static_cast<unsigned long long>(c.patterns),
                    static_cast<unsigned long long>(c.subgraphs),
                    static_cast<unsigned long long>(c.nodes),
                    static_cast<unsigned long long>(c.edges),
                    c.explainability);
        std::printf("    graphs %zu:", c.graph_indices.size());
        for (uint64_t gi : c.graph_indices) {
          std::printf(" %llu", static_cast<unsigned long long>(gi));
        }
        std::printf("\n");
      }
      return;
    }
    case serve::RequestType::kStats:
    case serve::RequestType::kShutdown:
    case serve::RequestType::kInstall:
    case serve::RequestType::kIngest:
    case serve::RequestType::kEvaluate:
      std::printf("%s\n", resp.text.c_str());
      return;
  }
}

/// `client --retry` re-issues load-shed responses: kOverloaded (global
/// queue full) and kQuotaExceeded (per-route budget) both mean "try
/// later, the server is healthy". kTimeout is deliberately NOT retried —
/// the deadline already charged the server for the work once, and a
/// retry would double-spend it (SERVING.md "overload and retries").
bool RetryableShed(StatusCode code) {
  return code == StatusCode::kOverloaded || code == StatusCode::kQuotaExceeded;
}

/// Issues `req` through `call`; with --retry N, re-issues a load-shed
/// response (RetryableShed) up to N more times, sleeping the shared
/// exponential backoff schedule (--retry-backoff-ms) between attempts.
/// A transport error from `call` is returned at once.
Result<serve::Response> CallWithRetry(
    const Flags& flags,
    const std::function<Result<serve::Response>(const serve::Request&)>& call,
    const serve::Request& req) {
  const int retries = static_cast<int>(flags.GetInt("retry", 0));
  const uint32_t backoff_ms =
      static_cast<uint32_t>(flags.GetInt("retry-backoff-ms", 100));
  for (int attempt = 1;; ++attempt) {
    GVEX_ASSIGN_OR_RETURN(serve::Response resp, call(req));
    if (!RetryableShed(resp.code) || attempt > retries) return resp;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        cluster::RetryBackoffMs(attempt, backoff_ms, 10000)));
  }
}

Status CmdClient(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(serve::Request req, BuildClientRequest(flags));

  // Each mode binds `call`; --retry N re-issues a request shed with
  // kOverloaded (exit 12) or kQuotaExceeded (exit 13) through it (see
  // CallWithRetry and SERVING.md "overload and retries").
  std::function<Result<serve::Response>(const serve::Request&)> call;
  serve::ViewRegistry registry;
  std::optional<serve::ExplanationServer> server;  // stopped on return
  std::unique_ptr<cluster::ShardRouter> router;
  serve::SocketClient client;
  if (auto local_views = flags.Get("local")) {
    // In-process mode: the exact same Execute path as a remote server,
    // minus the wire. The smoke test diffs this against the socket path.
    GVEX_RETURN_NOT_OK(registry.LoadViews(*local_views));
    if (auto model_path = flags.Get("model")) {
      GVEX_RETURN_NOT_OK(registry.LoadModel(*model_path));
    }
    serve::ServerOptions options;
    options.num_workers = static_cast<size_t>(flags.GetInt("workers", 1));
    server.emplace(&registry, options);
    GVEX_RETURN_NOT_OK(server->Start());
    call = [&](const serve::Request& r) -> Result<serve::Response> {
      return server->Call(r);
    };
  } else if (auto map_path = flags.Get("shard-map")) {
    // Library mode of the frontend: an in-process ShardRouter over the
    // fleet in the map — the same scatter-gather the `frontend` verb
    // serves behind a socket, without the extra hop.
    GVEX_ASSIGN_OR_RETURN(cluster::ShardMap map,
                          cluster::ShardMap::Load(*map_path));
    cluster::RouterOptions ropts;
    ropts.hedge_ms = static_cast<uint32_t>(flags.GetInt("hedge-ms", 0));
    ropts.shard_deadline_ms =
        static_cast<uint32_t>(flags.GetInt("shard-deadline-ms", 0));
    GVEX_ASSIGN_OR_RETURN(router,
                          cluster::MakeSocketRouter(std::move(map), ropts));
    call = [&](const serve::Request& r) -> Result<serve::Response> {
      return router->Call(r);
    };
  } else {
    GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
    GVEX_RETURN_NOT_OK(client.Connect(endpoint));
    call = [&](const serve::Request& r) { return client.Call(r); };
  }
  GVEX_ASSIGN_OR_RETURN(serve::Response resp, CallWithRetry(flags, call, req));
  if (resp.code == StatusCode::kPartialResult) {
    // Print the merged partial payload, then exit with the distinct
    // partial-result code — the caller sees both what answered and that
    // the aggregate is incomplete (never a silently wrong total).
    PrintClientResponse(req, resp);
    return resp.ToStatus();
  }
  if (!resp.ok()) return resp.ToStatus();
  if (req.type == serve::RequestType::kFetch) {
    if (auto out = flags.Get("out")) {
      std::ofstream file(*out, std::ios::binary | std::ios::trunc);
      if (!file.is_open() || !file.write(resp.bundle.data(),
                                         static_cast<std::streamsize>(
                                             resp.bundle.size()))) {
        return Status::IoError("cannot write bundle to " + *out);
      }
    }
  }
  PrintClientResponse(req, resp);
  return Status::OK();
}

// `publish --zoo FILE` — fan a gvexzoo-v1 route-config artifact out to
// running servers as kEvaluate installs (the zoo counterpart of a view
// bundle publish). The artifact is validated locally before anything
// ships; a mixed outcome exits with the same distinct kPartialFailure
// code (14) as a bundle fan-out.
Status PublishZoo(const Flags& flags, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string artifact = buf.str();
  GVEX_ASSIGN_OR_RETURN(std::vector<zoo::ExplainerRouteConfig> configs,
                        zoo::ParseZooArtifact(artifact));

  std::vector<serve::Endpoint> targets;
  if (auto targets_spec = flags.Get("targets")) {
    for (const std::string& entry : SplitString(*targets_spec, ',')) {
      if (entry.empty()) continue;
      GVEX_ASSIGN_OR_RETURN(serve::Endpoint target, ParseFollowTarget(entry));
      targets.push_back(std::move(target));
    }
    if (targets.empty()) {
      return Status::InvalidArgument("--targets named no endpoints");
    }
  } else {
    GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
    targets.push_back(std::move(endpoint));
  }

  size_t succeeded = 0;
  Status first_error = Status::OK();
  for (const serve::Endpoint& target : targets) {
    serve::Request req;
    req.type = serve::RequestType::kEvaluate;
    req.id = static_cast<uint64_t>(flags.GetInt("id", 1));
    req.text = artifact;
    serve::SocketClient client;
    Status st = client.Connect(target);
    if (st.ok()) {
      auto resp = client.Call(req);
      st = resp.ok() ? resp->ToStatus() : resp.status();
      if (st.ok()) {
        std::printf("target %s: %s\n", target.ToString().c_str(),
                    resp->text.c_str());
      }
    }
    if (st.ok()) {
      ++succeeded;
    } else {
      std::printf("target %s: %s\n", target.ToString().c_str(),
                  st.ToString().c_str());
      if (first_error.ok()) first_error = st;
    }
  }
  std::printf("published %zu zoo routes to %zu/%zu targets\n", configs.size(),
              succeeded, targets.size());
  if (succeeded == targets.size()) return Status::OK();
  if (succeeded == 0) return first_error;
  return Status::PartialFailure(
      "zoo config reached " + std::to_string(succeeded) + "/" +
      std::to_string(targets.size()) + " targets");
}

Status CmdPublish(const Flags& flags) {
  // --zoo FILE ships explainer-route configs instead of a view bundle.
  if (auto zoo_path = flags.Get("zoo")) {
    return PublishZoo(flags, *zoo_path);
  }
  GVEX_ASSIGN_OR_RETURN(std::string views_path, flags.Require("views"));
  cluster::ViewBundle bundle;
  GVEX_ASSIGN_OR_RETURN(bundle.views, LoadViewSet(views_path));
  if (auto model_path = flags.Get("model")) {
    GVEX_ASSIGN_OR_RETURN(GcnClassifier model,
                          GcnSerializer::Load(*model_path));
    bundle.model = std::make_shared<const GcnClassifier>(std::move(model));
  }
  // --quantize fp16|int8: ship the model in reduced precision (bundle
  // v2). Receivers dequantize on load; routes pinned `--exact-fp32`
  // refuse the install (gnn/quantize.h).
  if (auto quantize = flags.Get("quantize")) {
    if (bundle.model == nullptr) {
      return Status::InvalidArgument("--quantize needs --model");
    }
    GVEX_ASSIGN_OR_RETURN(WeightPrecision precision,
                          ParseWeightPrecision(*quantize));
    if (precision == WeightPrecision::kFp32) {
      return Status::InvalidArgument(
          "--quantize fp32 is a no-op; omit the flag to ship fp32");
    }
    GVEX_ASSIGN_OR_RETURN(QuantizedModel qm,
                          QuantizeModel(*bundle.model, precision));
    bundle.qmodel = std::make_shared<const QuantizedModel>(std::move(qm));
  }
  bundle.route = flags.Get("route").value_or(cluster::kDefaultRoute);
  bundle.generation = static_cast<uint64_t>(flags.GetInt("generation", 0));

  // --out writes the bundle artifact instead of shipping it (debugging,
  // or staging a bundle for later publication).
  if (auto out = flags.Get("out")) {
    GVEX_RETURN_NOT_OK(cluster::SaveBundle(bundle, *out));
    GVEX_ASSIGN_OR_RETURN(std::string fingerprint,
                          cluster::BundleFingerprint(bundle));
    if (bundle.qmodel != nullptr) {
      std::printf("bundle -> %s (route %s, precision %s, fingerprint %s)\n",
                  out->c_str(), bundle.route.c_str(),
                  WeightPrecisionName(bundle.qmodel->precision),
                  fingerprint.c_str());
    } else {
      std::printf("bundle -> %s (route %s, fingerprint %s)\n", out->c_str(),
                  bundle.route.c_str(), fingerprint.c_str());
    }
    return Status::OK();
  }

  // --shard-map map.bin: partition the bundle by the map and ship each
  // slice to its owning shard's primary — same health gate / install /
  // fingerprint-verify protocol per shard, same kPartialFailure exit on
  // a mixed outcome (publisher.h ShardedPublish).
  if (auto map_path = flags.Get("shard-map")) {
    GVEX_ASSIGN_OR_RETURN(cluster::ShardMap map,
                          cluster::ShardMap::Load(*map_path));
    cluster::PublishOptions popts;
    popts.retries = static_cast<int>(flags.GetInt("retry", 2));
    popts.backoff_base_ms =
        static_cast<uint32_t>(flags.GetInt("retry-backoff-ms", 50));
    popts.jitter_seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
    popts.health_gate = !flags.Has("no-health-gate");
    GVEX_ASSIGN_OR_RETURN(cluster::PublishReport report,
                          cluster::ShardedPublish(bundle, map, popts));
    for (const cluster::TargetReport& row : report.targets) {
      if (row.status.ok()) {
        std::printf("shard %s: ok (attempts %d, fingerprint %s)\n",
                    row.target.c_str(), row.attempts,
                    row.fingerprint.c_str());
      } else {
        std::printf("shard %s: %s (attempts %d%s)\n", row.target.c_str(),
                    row.status.ToString().c_str(), row.attempts,
                    row.probed ? "" : ", never probed healthy");
      }
    }
    std::printf("published %zu/%zu shards\n", report.succeeded,
                report.targets.size());
    return report.Aggregate();
  }

  // --targets a,b,c: health-gated fan-out to several servers at once
  // (publisher.h). Each entry takes the --follow grammar. Mixed outcomes
  // exit with the distinct partial-failure code; failed targets keep
  // serving their previous generation untouched.
  if (auto targets_spec = flags.Get("targets")) {
    cluster::PublishOptions popts;
    for (const std::string& entry : SplitString(*targets_spec, ',')) {
      if (entry.empty()) continue;
      GVEX_ASSIGN_OR_RETURN(serve::Endpoint target, ParseFollowTarget(entry));
      popts.targets.push_back(std::move(target));
    }
    popts.retries = static_cast<int>(flags.GetInt("retry", 2));
    popts.backoff_base_ms =
        static_cast<uint32_t>(flags.GetInt("retry-backoff-ms", 50));
    popts.jitter_seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
    popts.health_gate = !flags.Has("no-health-gate");
    GVEX_ASSIGN_OR_RETURN(cluster::PublishReport report,
                          cluster::FanOutPublish(bundle, popts));
    for (const cluster::TargetReport& row : report.targets) {
      if (row.status.ok()) {
        std::printf("target %s: ok (attempts %d, fingerprint %s)\n",
                    row.target.c_str(), row.attempts,
                    row.fingerprint.c_str());
      } else {
        std::printf("target %s: %s (attempts %d%s)\n", row.target.c_str(),
                    row.status.ToString().c_str(), row.attempts,
                    row.probed ? "" : ", never probed healthy");
      }
    }
    std::printf("published %zu/%zu targets\n", report.succeeded,
                report.targets.size());
    return report.Aggregate();
  }

  GVEX_ASSIGN_OR_RETURN(std::string encoded, cluster::EncodeBundle(bundle));
  GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
  serve::SocketClient client;
  GVEX_RETURN_NOT_OK(client.Connect(endpoint));
  serve::Request req;
  req.type = serve::RequestType::kInstall;
  req.id = static_cast<uint64_t>(flags.GetInt("id", 1));
  req.bundle = std::move(encoded);
  GVEX_ASSIGN_OR_RETURN(serve::Response resp, client.Call(req));
  if (!resp.ok()) return resp.ToStatus();
  std::printf("%s\n", resp.text.c_str());
  return Status::OK();
}

// `gvex_tool ingest` — stream a graph database into a live-ingest server
// (serve --ingest), one kIngest frame per graph over the ordinary
// gvexserve-v1 wire. Labels default to the database's ground truth;
// --label overrides them all. --id-base B assigns stable idempotency
// keys B, B+1, ... so a re-run after a client or server crash answers
// "duplicate" instead of double-feeding (the keys survive the server's
// journal). --publish forces a bundle cut after the stream; --status
// reports the manager's counters. --retry re-issues kOverloaded sheds
// with the shared backoff schedule, which is safe exactly because of the
// idempotency keys.
Status CmdIngest(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
  serve::SocketClient client;
  GVEX_RETURN_NOT_OK(client.Connect(endpoint));
  const std::string route =
      flags.Get("route").value_or(cluster::kDefaultRoute);
  auto call = [&](const serve::Request& req) {
    return CallWithRetry(
        flags, [&](const serve::Request& r) { return client.Call(r); }, req);
  };

  size_t sent = 0;
  if (auto db_path = flags.Get("graph-db")) {
    GVEX_ASSIGN_OR_RETURN(GraphDatabase db, LoadDatabase(*db_path));
    const long from_l = flags.GetInt("from", 0);
    if (from_l < 0 || static_cast<size_t>(from_l) > db.size()) {
      return Status::OutOfRange("--from " + std::to_string(from_l) +
                                " outside database of " +
                                std::to_string(db.size()) + " graphs");
    }
    const size_t from = static_cast<size_t>(from_l);
    size_t count = db.size() - from;
    if (flags.Has("count")) {
      const long count_l = flags.GetInt("count", 0);
      if (count_l < 0) {
        return Status::InvalidArgument("--count must be non-negative");
      }
      count = std::min(count, static_cast<size_t>(count_l));
    }
    const uint64_t id_base = static_cast<uint64_t>(flags.GetInt("id-base", 1));
    const long label_override = flags.GetInt("label", -1);
    const uint32_t deadline_ms =
        static_cast<uint32_t>(flags.GetInt("deadline-ms", 0));
    for (size_t i = from; i < from + count; ++i) {
      serve::Request req;
      req.type = serve::RequestType::kIngest;
      req.route = route;
      req.id = id_base + (i - from);
      req.label = label_override >= 0
                      ? static_cast<ClassLabel>(label_override)
                      : db.label(i);
      req.deadline_ms = deadline_ms;
      req.graph = db.graph(i);
      req.has_graph = true;
      GVEX_ASSIGN_OR_RETURN(serve::Response resp, call(req));
      if (!resp.ok()) return resp.ToStatus();
      std::printf("%s\n", resp.text.c_str());
      ++sent;
    }
  }
  if (flags.Has("publish") || flags.Has("status")) {
    for (const char* verb : {"publish", "status"}) {
      if (!flags.Has(verb)) continue;
      serve::Request req;
      req.type = serve::RequestType::kIngest;
      req.route = route;
      req.text = verb;
      GVEX_ASSIGN_OR_RETURN(serve::Response resp, call(req));
      if (!resp.ok()) return resp.ToStatus();
      std::printf("%s\n", resp.text.c_str());
    }
  } else if (sent == 0 && !flags.Has("graph-db")) {
    return Status::InvalidArgument(
        "ingest needs --graph-db, --publish, or --status");
  }
  if (sent > 0) std::printf("ingest done (%zu graphs sent)\n", sent);
  return Status::OK();
}

// `gvex_tool evaluate` — score a served explainer-zoo route (serve
// --zoo) against planted-motif ground truth and gate on the result. The
// request rides the ordinary wire as kEvaluate, so admission, quotas,
// and deadlines treat it like any read. The response streams per-graph
// rows followed by the canonical zoo-scorecard-v1 JSON line; the gate
// (--min-fidelity / --min-accuracy) is applied client-side and a
// regression exits with the distinct kEvaluationFailed code (16), so CI
// can fail a publish pipeline on explanation quality alone.
Status CmdEvaluate(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
  serve::Request req;
  req.type = serve::RequestType::kEvaluate;
  req.id = static_cast<uint64_t>(flags.GetInt("id", 1));
  req.route = flags.Get("route").value_or(cluster::kDefaultRoute);
  req.deadline_ms = static_cast<uint32_t>(flags.GetInt("deadline-ms", 0));
  zoo::EvalSpec spec;
  spec.dataset = flags.Get("dataset").value_or(spec.dataset);
  spec.scale = flags.GetDouble("scale", spec.scale);
  spec.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<long>(spec.seed)));
  spec.graphs = static_cast<uint64_t>(
      flags.GetInt("graphs", static_cast<long>(spec.graphs)));
  req.text = zoo::EvalSpecToString(spec);
  // Validate the spec locally so a usage error (exit 2) is not masked by
  // an unrelated connect failure.
  GVEX_RETURN_NOT_OK(zoo::ParseEvalSpec(req.text).status());

  serve::SocketClient client;
  GVEX_RETURN_NOT_OK(client.Connect(endpoint));
  GVEX_ASSIGN_OR_RETURN(
      serve::Response resp,
      CallWithRetry(
          flags, [&](const serve::Request& r) { return client.Call(r); },
          req));
  if (!resp.ok()) return resp.ToStatus();
  std::printf("%s", resp.text.c_str());

  // The scorecard is the last non-empty line; parsing it doubles as the
  // smoke test's "the JSON validates" assertion.
  std::string card_line;
  for (const std::string& line : SplitString(resp.text, '\n')) {
    if (!line.empty()) card_line = line;
  }
  GVEX_ASSIGN_OR_RETURN(zoo::Scorecard card,
                        zoo::ScorecardFromJson(card_line));
  if (flags.Has("min-fidelity")) {
    const double floor = flags.GetDouble("min-fidelity", 0.0);
    if (card.fidelity_plus < floor) {
      return Status::EvaluationFailed(
          "route " + card.route + " fidelity+ " +
          std::to_string(card.fidelity_plus) + " below the gate " +
          std::to_string(floor));
    }
  }
  if (flags.Has("min-accuracy")) {
    const double floor = flags.GetDouble("min-accuracy", 0.0);
    if (card.accuracy < floor) {
      return Status::EvaluationFailed(
          "route " + card.route + " motif accuracy " +
          std::to_string(card.accuracy) + " below the gate " +
          std::to_string(floor));
    }
  }
  return Status::OK();
}

// ---- sharded fleet ------------------------------------------------------------

// `gvex_tool shardmap` — create, describe, or interrogate a
// gvexshardmap-v1 topology file (the partitioning contract the
// publisher and the frontend share; shard_map.h).
Status CmdShardMap(const Flags& flags) {
  if (flags.Has("describe") || flags.Has("owner-of")) {
    GVEX_ASSIGN_OR_RETURN(std::string map_path, flags.Require("shard-map"));
    GVEX_ASSIGN_OR_RETURN(cluster::ShardMap map,
                          cluster::ShardMap::Load(map_path));
    if (flags.Has("owner-of")) {
      const uint64_t key =
          static_cast<uint64_t>(flags.GetInt("owner-of", 0));
      const std::string route =
          flags.Get("route").value_or(cluster::kDefaultRoute);
      const size_t owner = map.OwnerOf(route, key);
      std::printf("route %s graph %llu -> slot %zu shard %zu (%s)\n",
                  route.c_str(), static_cast<unsigned long long>(key),
                  cluster::ShardMap::SlotOf(route, key), owner,
                  map.shards()[owner].name.c_str());
      return Status::OK();
    }
    std::printf("gvexshardmap-v1 version %llu, %zu slots, %zu shards\n",
                static_cast<unsigned long long>(map.version()),
                cluster::kShardSlots, map.shards().size());
    for (size_t i = 0; i < map.shards().size(); ++i) {
      const cluster::ShardEntry& shard = map.shards()[i];
      std::printf("  shard %zu %s endpoint %s standby %s slots %zu\n", i,
                  shard.name.c_str(), shard.endpoint.c_str(),
                  shard.standby.empty() ? "-" : shard.standby.c_str(),
                  map.NumSlotsOwned(i));
    }
    return Status::OK();
  }

  // Create: --shards "unix:a,unix:b,tcp:9001" [--standbys "unix:s,-,-"]
  // [--names "left,mid,right"] --out map.bin. Standbys and names are
  // positional against --shards; "-" (or a short list) means none.
  GVEX_ASSIGN_OR_RETURN(std::string shards_spec, flags.Require("shards"));
  GVEX_ASSIGN_OR_RETURN(std::string out, flags.Require("out"));
  std::vector<std::string> endpoints = SplitString(shards_spec, ',');
  std::vector<std::string> standbys;
  if (auto spec = flags.Get("standbys")) standbys = SplitString(*spec, ',');
  std::vector<std::string> names;
  if (auto spec = flags.Get("names")) names = SplitString(*spec, ',');
  std::vector<cluster::ShardEntry> entries;
  for (size_t i = 0; i < endpoints.size(); ++i) {
    cluster::ShardEntry entry;
    entry.name = i < names.size() ? names[i] : "shard" + std::to_string(i);
    entry.endpoint = endpoints[i];
    if (i < standbys.size() && standbys[i] != "-") {
      entry.standby = standbys[i];
    }
    entries.push_back(std::move(entry));
  }
  GVEX_ASSIGN_OR_RETURN(cluster::ShardMap map,
                        cluster::ShardMap::Create(std::move(entries)));
  GVEX_RETURN_NOT_OK(map.Save(out));
  std::printf("shard map -> %s (%zu shards, %zu slots, version %llu)\n",
              out.c_str(), map.shards().size(), cluster::kShardSlots,
              static_cast<unsigned long long>(map.version()));
  return Status::OK();
}

// `gvex_tool frontend` — serve a whole fleet behind one socket: every
// request is answered by an in-process ShardRouter (point queries to the
// owning shard, corpus-wide queries scatter-gathered; router.h).
Status CmdFrontend(const Flags& flags) {
  GVEX_ASSIGN_OR_RETURN(std::string map_path, flags.Require("shard-map"));
  GVEX_ASSIGN_OR_RETURN(cluster::ShardMap map,
                        cluster::ShardMap::Load(map_path));
  cluster::RouterOptions ropts;
  ropts.hedge_ms = static_cast<uint32_t>(flags.GetInt("hedge-ms", 0));
  ropts.shard_deadline_ms =
      static_cast<uint32_t>(flags.GetInt("shard-deadline-ms", 0));
  GVEX_ASSIGN_OR_RETURN(std::unique_ptr<cluster::ShardRouter> router,
                        cluster::MakeSocketRouter(std::move(map), ropts));

  GVEX_ASSIGN_OR_RETURN(serve::Endpoint endpoint, EndpointFromFlags(flags));
  cluster::ShardRouter* raw = router.get();
  serve::SocketServer socket(serve::SocketServer::Handler(
      [raw](const serve::Request& req) { return raw->Call(req); }));
  GVEX_RETURN_NOT_OK(socket.Start(endpoint));
  if (!endpoint.is_unix()) endpoint.tcp_port = socket.bound_port();
  // Readiness line: smoke scripts poll for it before sending requests.
  std::printf("frontend serving on %s (%zu shards, map version %llu)\n",
              endpoint.ToString().c_str(), router->map().shards().size(),
              static_cast<unsigned long long>(router->map().version()));
  std::fflush(stdout);
  socket.Wait();
  socket.Stop();
  std::printf("frontend stopped %s\n", router->StatsJson().c_str());
  return Status::OK();
}

// Scripts dispatch on the exit code, so each StatusCode maps to a
// distinct one (documented in README.md "Exit codes"). 1 is reserved
// for crashes/signals, 2 doubles as usage error in the getopt tradition.
int ExitCodeForStatus(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 2;
    case StatusCode::kNotFound: return 3;
    case StatusCode::kOutOfRange: return 4;
    case StatusCode::kAlreadyExists: return 5;
    case StatusCode::kFailedPrecondition: return 6;
    case StatusCode::kInternal: return 7;
    case StatusCode::kIoError: return 8;
    case StatusCode::kTimeout: return 9;
    case StatusCode::kUnimplemented: return 10;
    case StatusCode::kInfeasible: return 11;
    case StatusCode::kOverloaded: return 12;
    case StatusCode::kQuotaExceeded: return 13;
    case StatusCode::kPartialFailure: return 14;
    case StatusCode::kPartialResult: return 15;
    case StatusCode::kEvaluationFailed: return 16;
  }
  return 7;
}

}  // namespace

int Run(const std::vector<std::string>& argv) {
  if (argv.empty()) {
    Usage();
    return 2;
  }
  const std::string& command = argv[0];
  auto flags_result =
      Flags::Parse(std::vector<std::string>(argv.begin() + 1, argv.end()));
  if (!flags_result.ok()) {
    std::fprintf(stderr, "%s\n", flags_result.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = *flags_result;

  // Global fault injection: --fail "name=spec[;name=spec...]". Applies to
  // any subcommand; see src/gvex/common/failpoint.h for the spec grammar.
  // Armed sites are cleared on return so embedded callers (tests) are not
  // left with live failpoints.
  bool armed_failpoints = false;
  if (auto fail_spec = flags.Get("fail")) {
    for (const std::string& entry : SplitString(*fail_spec, ';')) {
      if (entry.empty()) continue;
      Status armed = failpoint::ArmFromString(entry);
      if (!armed.ok()) {
        std::fprintf(stderr, "%s\n", armed.ToString().c_str());
        failpoint::DisarmAll();
        return 2;
      }
      armed_failpoints = true;
    }
  }

  // Span collection costs nothing until someone asks for the trace.
  const auto trace_out = flags.Get("trace-out");
  const auto metrics_out = flags.Get("metrics-out");
  if (trace_out) obs::SetTraceEnabled(true);
  Stopwatch command_watch;

  Status st;
  if (command == "gen") {
    st = CmdGen(flags);
  } else if (command == "stats") {
    st = CmdStats(flags);
  } else if (command == "train") {
    st = CmdTrain(flags);
  } else if (command == "explain") {
    st = CmdExplain(flags);
  } else if (command == "verify") {
    st = CmdVerify(flags);
  } else if (command == "fidelity") {
    st = CmdFidelity(flags);
  } else if (command == "query") {
    st = CmdQuery(flags);
  } else if (command == "serve") {
    st = CmdServe(flags);
  } else if (command == "client") {
    st = CmdClient(flags);
  } else if (command == "publish") {
    st = CmdPublish(flags);
  } else if (command == "ingest") {
    st = CmdIngest(flags);
  } else if (command == "evaluate") {
    st = CmdEvaluate(flags);
  } else if (command == "shardmap") {
    st = CmdShardMap(flags);
  } else if (command == "frontend") {
    st = CmdFrontend(flags);
  } else {
    Usage();
    return 2;
  }
  const double command_seconds = command_watch.ElapsedSeconds();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
  }
  // Metrics/trace emission is best-effort: a failed write warns but never
  // changes the exit code, which reports the command outcome alone.
  if (metrics_out) {
    obs::PerfReport report(command);
    report.SetParam("command", command);
    report.AddTiming("command", command_seconds);
    Status saved = report.WriteJson(*metrics_out);
    if (!saved.ok()) {
      std::fprintf(stderr, "warning: metrics report skipped: %s\n",
                   saved.ToString().c_str());
    }
  }
  if (trace_out) {
    Status saved = obs::WriteChromeTrace(*trace_out);
    if (!saved.ok()) {
      std::fprintf(stderr, "warning: trace export skipped: %s\n",
                   saved.ToString().c_str());
    }
  }
  // Disarm last so --fail also covers the best-effort emission above
  // (and embedded callers are never left with live failpoints).
  if (armed_failpoints) failpoint::DisarmAll();
  return ExitCodeForStatus(st);
}

}  // namespace cli
}  // namespace gvex
