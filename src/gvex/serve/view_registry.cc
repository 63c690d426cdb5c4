#include "gvex/serve/view_registry.h"

#include <set>
#include <utility>

#include "gvex/common/failpoint.h"
#include "gvex/explain/view_io.h"
#include "gvex/gnn/serialize.h"
#include "gvex/matching/match_cache.h"
#include "gvex/obs/obs.h"

namespace gvex {
namespace serve {

Status ViewRegistry::Validate(const ExplanationViewSet& set) {
  if (set.views.empty()) {
    return Status::InvalidArgument("view set has no views");
  }
  std::set<ClassLabel> labels;
  for (const auto& view : set.views) {
    if (!labels.insert(view.label).second) {
      return Status::InvalidArgument("duplicate view for label " +
                                     std::to_string(view.label));
    }
    if (view.patterns.empty() && !view.subgraphs.empty()) {
      return Status::InvalidArgument(
          "view for label " + std::to_string(view.label) +
          " has subgraphs but no pattern tier");
    }
    for (const auto& sub : view.subgraphs) {
      if (sub.nodes.size() != sub.subgraph.num_nodes()) {
        return Status::InvalidArgument(
            "view for label " + std::to_string(view.label) + ": subgraph of " +
            "graph " + std::to_string(sub.graph_index) +
            " disagrees with its node list");
      }
    }
  }
  return Status::OK();
}

Status ViewRegistry::Publish(const std::string& route, ExplanationViewSet views,
                             std::string source_path,
                             std::shared_ptr<const GcnClassifier> model,
                             uint64_t source_generation,
                             std::shared_ptr<const QuantizedModel> qmodel) {
  GVEX_RETURN_NOT_OK(cluster::CheckRouteName(route));
  if (qmodel != nullptr && IsExactFp32(route)) {
    return Status::FailedPrecondition(
        "route '" + route + "' is pinned exact-fp32; refusing " +
        WeightPrecisionName(qmodel->precision) + " install");
  }
  GVEX_RETURN_NOT_OK(Validate(views));
  auto next = std::make_shared<LoadedViewSet>();
  next->route = route;
  next->views = std::move(views);
  next->source_path = std::move(source_path);
  next->model = std::move(model);
  next->qmodel = std::move(qmodel);
  next->source_generation = source_generation;
  {
    // Local publishes stamp the same content fingerprint a bundle would
    // carry, so a standby comparing fingerprints against this primary
    // sees local installs and wire installs identically.
    cluster::ViewBundle probe;
    probe.route = route;
    probe.views = next->views;
    probe.model = next->model;
    probe.qmodel = next->qmodel;
    GVEX_ASSIGN_OR_RETURN(next->fingerprint, cluster::BundleFingerprint(probe));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    RouteState& state = routes_[route];
    next->generation = state.next_generation++;
    state.current = std::move(next);  // atomic swap: readers see old or new
    state.warmed = false;             // the new generation is cold until
    state.warm_pairs = 0;             // WarmMatchCache touches it
  }
  GVEX_COUNTER_INC("serve.registry_swaps");
  return Status::OK();
}

Status ViewRegistry::LoadViews(const std::string& path) {
  return LoadViews(cluster::kDefaultRoute, path);
}

Status ViewRegistry::LoadViews(const std::string& route,
                               const std::string& path) {
  GVEX_FAILPOINT_RETURN("serve.registry_load");
  GVEX_ASSIGN_OR_RETURN(ExplanationViewSet set, LoadViewSet(path));
  // Carry the current model (and its quantized payload, if any) forward
  // so a view refresh does not drop the classifier half of the snapshot.
  std::shared_ptr<const GcnClassifier> model;
  std::shared_ptr<const QuantizedModel> qmodel;
  if (auto snap = Snapshot(route)) {
    model = snap->model;
    qmodel = snap->qmodel;
  }
  return Publish(route, std::move(set), path, std::move(model),
                 /*source_generation=*/0, std::move(qmodel));
}

Status ViewRegistry::LoadModel(const std::string& path) {
  GVEX_FAILPOINT_RETURN("serve.registry_load");
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model, GcnSerializer::Load(path));
  auto snap = Snapshot();
  if (snap == nullptr) {
    return Status::FailedPrecondition("load views before the model");
  }
  return Publish(cluster::kDefaultRoute, snap->views, snap->source_path,
                 std::make_shared<const GcnClassifier>(std::move(model)),
                 /*source_generation=*/0);
}

Status ViewRegistry::InstallViews(ExplanationViewSet set) {
  return InstallViews(cluster::kDefaultRoute, std::move(set));
}

Status ViewRegistry::InstallViews(const std::string& route,
                                  ExplanationViewSet set) {
  std::shared_ptr<const GcnClassifier> model;
  std::shared_ptr<const QuantizedModel> qmodel;
  if (auto snap = Snapshot(route)) {
    model = snap->model;
    qmodel = snap->qmodel;
  }
  return Publish(route, std::move(set), "", std::move(model),
                 /*source_generation=*/0, std::move(qmodel));
}

void ViewRegistry::InstallModel(std::shared_ptr<const GcnClassifier> model) {
  auto next = std::make_shared<LoadedViewSet>();
  if (auto snap = Snapshot()) {
    next->views = snap->views;
    next->source_path = snap->source_path;
  }
  next->model = std::move(model);
  {
    cluster::ViewBundle probe;
    probe.views = next->views;
    probe.model = next->model;
    auto fp = cluster::BundleFingerprint(probe);
    if (fp.ok()) next->fingerprint = *std::move(fp);
  }
  std::lock_guard<std::mutex> lock(mu_);
  RouteState& state = routes_[cluster::kDefaultRoute];
  next->generation = state.next_generation++;
  state.current = std::move(next);
  state.warmed = false;
  state.warm_pairs = 0;
}

Status ViewRegistry::InstallBundle(const cluster::ViewBundle& bundle) {
  GVEX_FAILPOINT_RETURN("cluster.install");
  GVEX_RETURN_NOT_OK(Publish(bundle.route, bundle.views, "", bundle.model,
                             bundle.generation, bundle.qmodel));
  GVEX_COUNTER_INC("cluster.installs");
  return Status::OK();
}

Result<cluster::ViewBundle> ViewRegistry::MakeBundle(
    const std::string& route) const {
  auto snap = Snapshot(route);
  if (snap == nullptr) {
    return Status::NotFound("route '" + route + "' has no published views");
  }
  cluster::ViewBundle bundle;
  bundle.route = route;
  bundle.generation = snap->generation;
  bundle.fingerprint = snap->fingerprint;
  bundle.views = snap->views;
  bundle.model = snap->model;
  bundle.qmodel = snap->qmodel;
  return bundle;
}

std::shared_ptr<const LoadedViewSet> ViewRegistry::Snapshot() const {
  return Snapshot(cluster::kDefaultRoute);
}

std::shared_ptr<const LoadedViewSet> ViewRegistry::Snapshot(
    const std::string& route) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = routes_.find(route);
  return it == routes_.end() ? nullptr : it->second.current;
}

uint64_t ViewRegistry::generation() const {
  return generation(cluster::kDefaultRoute);
}

uint64_t ViewRegistry::generation(const std::string& route) const {
  auto snap = Snapshot(route);
  return snap == nullptr ? 0 : snap->generation;
}

std::string ViewRegistry::fingerprint(const std::string& route) const {
  auto snap = Snapshot(route);
  return snap == nullptr ? std::string() : snap->fingerprint;
}

size_t ViewRegistry::WarmMatchCache() {
  return WarmMatchCache(cluster::kDefaultRoute);
}

size_t ViewRegistry::WarmMatchCache(const std::string& route) {
  auto snap = Snapshot(route);
  if (snap == nullptr) return 0;
  MatchOptions options;
  options.semantics = MatchSemantics::kSubgraph;
  size_t touched = 0;
  for (const auto& view : snap->views.views) {
    for (const Graph& pattern : view.patterns) {
      for (const auto& sub : view.subgraphs) {
        (void)MatchCache::Global().HasMatch(pattern, sub.subgraph, options);
        ++touched;
      }
    }
  }
  GVEX_COUNTER_ADD("serve.warm_pairs", touched);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = routes_.find(route);
    // Record the warm state only if the generation we warmed is still the
    // live one; a concurrent publish means the new generation is cold.
    if (it != routes_.end() && it->second.current == snap) {
      it->second.warmed = true;
      it->second.warm_pairs = touched;
    }
  }
  return touched;
}

void ViewRegistry::SetExactFp32(const std::string& route, bool exact) {
  std::lock_guard<std::mutex> lock(mu_);
  if (exact) {
    exact_fp32_routes_.insert(route);
  } else {
    exact_fp32_routes_.erase(route);
  }
}

bool ViewRegistry::IsExactFp32(const std::string& route) const {
  std::lock_guard<std::mutex> lock(mu_);
  return exact_fp32_routes_.count(route) != 0;
}

std::vector<std::string> ViewRegistry::Routes() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : routes_) {
    if (entry.second.current != nullptr) names.push_back(entry.first);
  }
  return names;  // std::map iteration order is already sorted
}

std::vector<RouteStatus> ViewRegistry::RouteStatuses() const {
  std::vector<RouteStatus> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : routes_) {
    const RouteState& state = entry.second;
    if (state.current == nullptr) continue;
    RouteStatus status;
    status.route = entry.first;
    status.generation = state.current->generation;
    status.source_generation = state.current->source_generation;
    status.fingerprint = state.current->fingerprint;
    status.warmed = state.warmed;
    status.warm_pairs = state.warm_pairs;
    status.views = state.current->views.views.size();
    for (const auto& view : state.current->views.views) {
      status.patterns += view.patterns.size();
      status.subgraphs += view.subgraphs.size();
    }
    out.push_back(std::move(status));
  }
  return out;
}

}  // namespace serve
}  // namespace gvex
