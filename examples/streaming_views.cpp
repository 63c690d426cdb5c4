// Streaming / anytime explanation maintenance (§5 of the paper): process
// graphs as node streams with StreamGVEX, inspect the views after each
// batch, and compare against the batch algorithm — demonstrating the
// anytime property and the incremental pattern maintenance.
//
//   ./build/examples/streaming_views [num_molecules]
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "gvex/common/stopwatch.h"
#include "gvex/datasets/datasets.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/gnn/trainer.h"

using namespace gvex;

int main(int argc, char** argv) {
  size_t num_molecules = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 100;

  datasets::MutagenicityOptions data_opts;
  data_opts.num_graphs = num_molecules;
  GraphDatabase db = datasets::MakeMutagenicity(data_opts);

  GcnConfig mc;
  mc.input_dim = db.feature_dim();
  mc.hidden_dim = 32;
  mc.num_layers = 3;
  mc.num_classes = 2;
  auto model = GcnClassifier::Create(mc);
  if (!model.ok()) return 1;
  DataSplit split = SplitDatabase(db, 0.8, 0.1, 42);
  TrainerConfig tc;
  tc.epochs = 150;
  tc.adam.learning_rate = 5e-3f;
  Trainer(tc).Fit(&*model, db, split);
  std::vector<ClassLabel> assigned = AssignLabels(*model, db);

  Configuration config;
  config.theta = 0.08f;
  config.default_coverage = {0, 12};

  // Process the mutagen group graph-by-graph as arriving node streams.
  // The view is inspectable after every graph — the "anytime" access the
  // streaming algorithm provides (users can interrupt and query).
  StreamGvex stream(&*model, config);
  std::vector<Graph> patterns;
  std::unordered_set<std::string> codes;
  ExplanationView view;
  view.label = 1;
  Stopwatch total;

  auto group = GraphDatabase::LabelGroup(assigned, 1);
  std::printf("streaming %zu mutagen graphs, snapshot every 25%%:\n",
              group.size());
  size_t next_snapshot = group.size() / 4;
  for (size_t idx = 0; idx < group.size(); ++idx) {
    size_t gi = group[idx];
    auto sub = stream.ExplainGraphStream(db.graph(gi), gi, 1, &patterns,
                                         &codes);
    if (sub.ok()) {
      view.explainability += sub->explainability;
      view.subgraphs.push_back(std::move(*sub));
    }
    if (idx + 1 == next_snapshot || idx + 1 == group.size()) {
      std::printf(
          "  after %3zu/%zu graphs: %3zu subgraphs, %2zu patterns, f=%.1f, "
          "%.2fs elapsed\n",
          idx + 1, group.size(), view.subgraphs.size(), patterns.size(),
          view.explainability, total.ElapsedSeconds());
      next_snapshot += group.size() / 4;
    }
  }
  std::printf("stream stats: %zu accepts, %zu swaps, %zu skips, %zu EVerify "
              "calls\n",
              stream.stats().accepts, stream.stats().swaps,
              stream.stats().skips, stream.stats().everify_calls);

  // Final pattern reduction (the batched Procedure-5 swap).
  std::vector<Graph> raw;
  for (const auto& s : view.subgraphs) raw.push_back(s.subgraph);
  PatternReduction reduced = ReducePatterns(patterns, raw, config);
  std::printf("pattern reduction: %zu mined -> %zu kept, edge loss %.1f%%\n",
              patterns.size(), reduced.patterns.size(),
              100.0 * reduced.edge_loss);

  // Compare against the batch algorithm on the same group.
  Stopwatch batch_watch;
  auto batch = ParallelApproxExplain(*model, db, assigned, {1}, config, {});
  if (batch.ok()) {
    const ExplanationView* batch_view = &batch->views[0];
    std::printf(
        "\nbatch ApproxGVEX:  %zu subgraphs, f=%.1f in %.2fs\n"
        "stream StreamGVEX: %zu subgraphs, f=%.1f in %.2fs  "
        "(anytime, 1/4-approx)\n",
        batch_view->subgraphs.size(), batch_view->explainability,
        batch_watch.ElapsedSeconds(), view.subgraphs.size(),
        view.explainability, total.ElapsedSeconds());
  }
  return 0;
}
