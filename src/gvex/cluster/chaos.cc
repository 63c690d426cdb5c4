#include "gvex/cluster/chaos.h"

#include <memory>
#include <sstream>
#include <utility>

#include "gvex/cluster/publisher.h"
#include "gvex/cluster/replicator.h"
#include "gvex/common/failpoint.h"
#include "gvex/common/rng.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/parallel.h"
#include "gvex/gnn/trainer.h"
#include "gvex/serve/server.h"
#include "gvex/serve/socket.h"
#include "gvex/serve/view_registry.h"

namespace gvex {
namespace cluster {

namespace {

/// One process of the topology: registry + engine + loopback listener.
struct Node {
  serve::ViewRegistry registry;
  std::unique_ptr<serve::ExplanationServer> server;
  std::unique_ptr<serve::SocketServer> socket;
  uint16_t port = 0;

  Status Start() {
    server = std::make_unique<serve::ExplanationServer>(&registry);
    GVEX_RETURN_NOT_OK(server->Start());
    socket = std::make_unique<serve::SocketServer>(server.get());
    GVEX_RETURN_NOT_OK(socket->Start(serve::Endpoint::Tcp(0)));
    port = socket->bound_port();
    return Status::OK();
  }

  void Stop() {
    if (socket != nullptr) socket->Stop();
    if (server != nullptr) server->Stop();
  }
};

// Fault menus per action. Every spec carries limit(n) so exactly the
// scheduled step absorbs it; n == number of single-threaded hits we want
// the site to survive (sequential publish visits a site once per target
// attempt, everything else once).
struct FaultChoice {
  const char* site;
  const char* spec;
};

constexpr FaultChoice kPublishFaults[] = {
    {"socket.client.connect", "error(io),limit(2)"},
    {"socket.client.send", "error(io),limit(2)"},
    {"socket.client.recv", "error(io),limit(2)"},
    {"socket.server.send", "error(io),limit(2)"},
    {"cluster.publish_probe", "error(io),limit(2)"},
    {"cluster.publish_probe", "delay(2),limit(2)"},
    {"cluster.publish_send", "error(io),limit(2)"},
    {"cluster.install", "error(io),limit(2)"},
};

constexpr FaultChoice kSyncFaults[] = {
    {"socket.client.connect", "error(io),limit(1)"},
    {"socket.client.send", "error(io),limit(1)"},
    {"socket.client.recv", "error(io),limit(1)"},
    {"socket.server.send", "error(io),limit(1)"},
    {"socket.server.recv", "error(io),limit(1)"},
    {"cluster.fetch", "error(io),limit(1)"},
    {"cluster.install", "error(io),limit(1)"},
    {"cluster.bundle_read", "error(io),limit(1)"},
};

constexpr FaultChoice kQueryFaults[] = {
    {"socket.client.connect", "error(io),limit(1)"},
    {"socket.client.send", "error(io),limit(1)"},
    {"socket.client.recv", "error(io),limit(1)"},
    {"socket.server.send", "error(io),limit(1)"},
    {"socket.server.recv", "error(io),limit(1)"},
    {"socket.server.send", "delay(2),limit(1)"},
};

constexpr FaultChoice kProbeFaults[] = {
    {"socket.client.connect", "error(io),limit(1)"},
    {"socket.server.send", "error(io),limit(1)"},
    {"socket.client.recv", "delay(2),limit(1)"},
};

template <size_t N>
const FaultChoice& Pick(const FaultChoice (&menu)[N], Rng* rng) {
  return menu[rng->NextBounded(N)];
}

/// The scenario state + invariant bookkeeping, driven from one thread.
class ScenarioRunner {
 public:
  ScenarioRunner(const ChaosOptions& options, ChaosReport* report)
      : options_(options), report_(report), rng_(options.seed) {}

  Status Setup() {
    bundles_ = options_.generations;
    for (ViewBundle& b : bundles_) {
      b.route = kDefaultRoute;
      GVEX_ASSIGN_OR_RETURN(std::string fp, BundleFingerprint(b));
      fingerprints_.push_back(std::move(fp));
    }
    GVEX_RETURN_NOT_OK(primary_.Start());
    GVEX_RETURN_NOT_OK(standby_.Start());
    return Status::OK();
  }

  void Teardown() {
    standby_.Stop();
    primary_.Stop();
  }

  void RunStep(int step) {
    // Every connection of the previous step is closed; wait until the
    // servers' handlers have seen that, or one of them could consume the
    // fault this step arms.
    primary_.socket->WaitIdle();
    standby_.socket->WaitIdle();
    ChaosEvent event;
    event.step = step;

    const bool faulted = rng_.NextBool(options_.fault_probability);
    const uint64_t action = rng_.NextBounded(5);
    const std::string primary_before = PrimaryFp();
    const std::string standby_before = StandbyFp();

    switch (action) {
      case 0:
      case 1:
        Publish(action == 1, faulted, &event, primary_before, standby_before);
        break;
      case 2:
        Sync(faulted, &event, primary_before, standby_before);
        break;
      case 3:
        Query(faulted, &event, primary_before, standby_before);
        break;
      default:
        Probe(faulted, &event, primary_before, standby_before);
        break;
    }
    report_->events.push_back(std::move(event));
  }

 private:
  ReplicatorOptions FollowOptions() const {
    ReplicatorOptions options;
    options.primary = serve::Endpoint::Tcp(primary_.port);
    options.backoff_base_ms = 1;
    options.backoff_max_ms = 5;
    options.jitter_seed = options_.seed;
    return options;
  }

  std::string PrimaryFp() const {
    return primary_.registry.fingerprint(kDefaultRoute);
  }
  std::string StandbyFp() const {
    return standby_.registry.fingerprint(kDefaultRoute);
  }

  void Violation(int step, const std::string& what) {
    report_->violations.push_back("step " + std::to_string(step) + ": " +
                                  what);
  }

  /// Arm the event's fault for the duration of one step.
  std::unique_ptr<failpoint::ScopedFailpoint> ArmFault(
      const FaultChoice& choice, ChaosEvent* event) {
    event->fault = std::string(choice.site) + ":" + choice.spec;
    ++report_->faults_armed;
    return std::make_unique<failpoint::ScopedFailpoint>(choice.site,
                                                        choice.spec);
  }

  void Publish(bool fan_out, bool faulted, ChaosEvent* event,
               const std::string& primary_before,
               const std::string& standby_before) {
    const size_t gen = rng_.NextBounded(bundles_.size());
    const int retries = static_cast<int>(rng_.NextBounded(2));
    event->action = std::string(fan_out ? "publish2" : "publish1") + "(g" +
                    std::to_string(gen) + ",r" + std::to_string(retries) + ")";

    PublishOptions publish;
    publish.targets.push_back(serve::Endpoint::Tcp(primary_.port));
    if (fan_out) publish.targets.push_back(serve::Endpoint::Tcp(standby_.port));
    publish.retries = retries;
    publish.backoff_base_ms = 1;
    publish.backoff_max_ms = 4;
    publish.jitter_seed = options_.seed + static_cast<uint64_t>(event->step);
    publish.sequential = true;  // deterministic fault targeting

    std::unique_ptr<failpoint::ScopedFailpoint> fault;
    if (faulted) fault = ArmFault(Pick(kPublishFaults, &rng_), event);

    Result<PublishReport> published = FanOutPublish(bundles_[gen], publish);
    fault.reset();
    ++report_->publishes;
    Status outcome =
        published.ok() ? published->Aggregate() : published.status();
    if (!outcome.ok()) ++report_->publish_failures;
    event->outcome = StatusCodeToString(outcome.code());
    if (!published.ok()) return;

    // Invariant 1: per target, success serves exactly the published
    // fingerprint; failure serves exactly the pre-publish one.
    const std::string& expect = fingerprints_[gen];
    for (size_t i = 0; i < published->targets.size(); ++i) {
      const TargetReport& row = published->targets[i];
      const std::string before = i == 0 ? primary_before : standby_before;
      const std::string after = i == 0 ? PrimaryFp() : StandbyFp();
      if (row.status.ok() && after != expect) {
        Violation(event->step, "publish target " + row.target +
                                   " reported ok but serves '" + after +
                                   "' not '" + expect + "'");
      }
      if (!row.status.ok() && after != before) {
        Violation(event->step, "failed publish to " + row.target +
                                   " changed fingerprint '" + before +
                                   "' -> '" + after + "' (torn install)");
      }
    }
    if (!fan_out && StandbyFp() != standby_before) {
      Violation(event->step, "publish to primary moved the standby");
    }
  }

  void Sync(bool faulted, ChaosEvent* event,
            const std::string& primary_before,
            const std::string& standby_before) {
    event->action = "sync";
    std::unique_ptr<failpoint::ScopedFailpoint> fault;
    if (faulted) fault = ArmFault(Pick(kSyncFaults, &rng_), event);
    // One follower per round, so its connection closes with the step.
    Replicator replicator(&standby_.registry, FollowOptions());
    const Status outcome = replicator.SyncOnce();
    fault.reset();
    ++report_->syncs;
    if (!outcome.ok()) ++report_->sync_failures;
    event->outcome = StatusCodeToString(outcome.code());

    // Invariant 2: replication lags or converges, never regresses.
    const std::string standby_after = StandbyFp();
    if (standby_after != standby_before && standby_after != PrimaryFp()) {
      Violation(event->step, "sync moved standby to foreign fingerprint '" +
                                 standby_after + "' (primary serves '" +
                                 PrimaryFp() + "')");
    }
    if (PrimaryFp() != primary_before) {
      Violation(event->step, "sync mutated the primary");
    }
    if (!standby_before.empty() && standby_after.empty()) {
      Violation(event->step, "sync un-published the standby");
    }
  }

  void Query(bool faulted, ChaosEvent* event,
             const std::string& primary_before,
             const std::string& standby_before) {
    const size_t which = rng_.NextBounded(2);
    size_t qi = 0;
    if (!options_.queries.empty()) {
      qi = rng_.NextBounded(options_.queries.size());
    }
    event->action =
        "query(q" + std::to_string(qi) + ",s" + std::to_string(which) + ")";

    Status outcome = Status::OK();
    if (options_.queries.empty()) {
      outcome = Status::InvalidArgument("no queries configured");
    } else {
      Node& node = which == 0 ? primary_ : standby_;
      std::unique_ptr<failpoint::ScopedFailpoint> fault;
      if (faulted) fault = ArmFault(Pick(kQueryFaults, &rng_), event);
      serve::SocketClient client;
      outcome = client.Connect(serve::Endpoint::Tcp(node.port));
      if (outcome.ok()) {
        Result<serve::Response> resp = client.Call(options_.queries[qi]);
        outcome = resp.ok() ? resp->ToStatus() : resp.status();
      }
      fault.reset();
    }
    ++report_->queries;
    event->outcome = StatusCodeToString(outcome.code());

    // Queries are reads: neither registry may move.
    if (PrimaryFp() != primary_before || StandbyFp() != standby_before) {
      Violation(event->step, "query mutated a registry");
    }

    // Invariant 3: equal fingerprints answer byte-identically (the
    // failover contract), checked in-process so wire faults can't blur it.
    if (PrimaryFp() == StandbyFp()) {
      for (size_t i = 0; i < options_.queries.size(); ++i) {
        serve::Response a = primary_.server->Call(options_.queries[i]);
        serve::Response b = standby_.server->Call(options_.queries[i]);
        if (serve::EncodeResponseBody(a) != serve::EncodeResponseBody(b)) {
          Violation(event->step,
                    "query " + std::to_string(i) +
                        " answers differ between converged primary/standby");
        }
      }
    }
  }

  void Probe(bool faulted, ChaosEvent* event,
             const std::string& primary_before,
             const std::string& standby_before) {
    const size_t which = rng_.NextBounded(2);
    event->action = "probe(s" + std::to_string(which) + ")";
    Node& node = which == 0 ? primary_ : standby_;

    std::unique_ptr<failpoint::ScopedFailpoint> fault;
    if (faulted) fault = ArmFault(Pick(kProbeFaults, &rng_), event);
    serve::SocketClient client;
    serve::Request probe;
    probe.type = serve::RequestType::kHealth;
    probe.id = static_cast<uint64_t>(event->step);
    Status outcome = client.Connect(serve::Endpoint::Tcp(node.port));
    serve::Response resp;
    if (outcome.ok()) {
      Result<serve::Response> answer = client.Call(probe);
      if (answer.ok()) {
        resp = std::move(*answer);
        outcome = resp.ToStatus();
      } else {
        outcome = answer.status();
      }
    }
    fault.reset();
    event->outcome = StatusCodeToString(outcome.code());

    if (outcome.ok() && !resp.has_health) {
      Violation(event->step, "health probe answered without a payload");
    }
    // A probe that reached a published server must say "serving".
    const bool published = which == 0 ? !primary_before.empty()
                                      : !standby_before.empty();
    if (outcome.ok() && published && !resp.health.serving) {
      Violation(event->step, "published server reports serving=false");
    }
    if (PrimaryFp() != primary_before || StandbyFp() != standby_before) {
      Violation(event->step, "health probe mutated a registry");
    }
  }

  const ChaosOptions& options_;
  ChaosReport* report_;
  Rng rng_;
  std::vector<ViewBundle> bundles_;
  std::vector<std::string> fingerprints_;
  Node primary_;
  Node standby_;
};

}  // namespace

std::string ChaosReport::EventLog() const {
  std::ostringstream out;
  for (const ChaosEvent& e : events) {
    out << "step=" << e.step << " action=" << e.action
        << " fault=" << (e.fault.empty() ? "none" : e.fault)
        << " outcome=" << e.outcome << "\n";
  }
  return out.str();
}

Result<ChaosFixture> MakeChaosFixture() {
  datasets::MutagenicityOptions d;
  d.num_graphs = 48;
  GraphDatabase db = datasets::MakeMutagenicity(d);

  GcnConfig mc;
  mc.input_dim = db.feature_dim();
  mc.hidden_dim = 24;
  mc.num_layers = 3;
  mc.num_classes = 2;
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model, GcnClassifier::Create(mc));
  DataSplit split = SplitDatabase(db, 0.8, 0.1, 42);
  TrainerConfig tc;
  tc.epochs = 60;
  tc.adam.learning_rate = 5e-3f;
  Trainer(tc).Fit(&model, db, split);
  const std::vector<ClassLabel> assigned = AssignLabels(model, db);
  auto shared_model = std::make_shared<const GcnClassifier>(std::move(model));

  ChaosFixture fixture;
  // Two generations whose coverage bounds differ, so their views — and
  // therefore their bundle fingerprints — genuinely differ.
  for (size_t upper : {size_t{12}, size_t{8}}) {
    Configuration config;
    config.theta = 0.08f;
    config.default_coverage = {0, upper};
    ViewBundle bundle;
    GVEX_ASSIGN_OR_RETURN(bundle.views,
                          ParallelApproxExplain(*shared_model, db, assigned,
                                                {0, 1}, config, {}));
    bundle.model = shared_model;
    bundle.generation = fixture.generations.size() + 1;
    fixture.generations.push_back(std::move(bundle));
  }

  serve::Request support;
  support.type = serve::RequestType::kSupport;
  support.label = 0;
  support.graph = datasets::NitroGroupPattern();
  support.has_graph = true;
  support.id = 1;
  fixture.queries.push_back(support);
  serve::Request contains = support;
  contains.type = serve::RequestType::kSubgraphsContaining;
  fixture.queries.push_back(contains);
  serve::Request hits = support;
  hits.type = serve::RequestType::kFindHits;
  fixture.queries.push_back(hits);
  serve::Request disc;
  disc.type = serve::RequestType::kDiscriminativePatterns;
  disc.label = 0;
  disc.against = 1;
  disc.id = 1;
  fixture.queries.push_back(disc);
  serve::Request classify;
  classify.type = serve::RequestType::kClassifyExplain;
  classify.graph = db.graph(0);
  classify.has_graph = true;
  classify.id = 1;
  fixture.queries.push_back(classify);
  return fixture;
}

Result<ChaosReport> RunChaosScenario(const ChaosOptions& options) {
  if (options.generations.empty()) {
    return Status::InvalidArgument("chaos scenario needs >= 1 generation");
  }
  ChaosReport report;
  ScenarioRunner runner(options, &report);
  Status up = runner.Setup();
  if (!up.ok()) {
    runner.Teardown();
    return up;
  }
  for (int step = 0; step < options.steps; ++step) {
    runner.RunStep(step);
  }
  runner.Teardown();
  return report;
}

}  // namespace cluster
}  // namespace gvex
