// Umbrella header: the full public API of the GVEX library.
//
// Typical usage:
//   #include "gvex/gvex.h"
//
//   gvex::GraphDatabase db = gvex::datasets::MakeMutagenicity({});
//   auto model = gvex::GcnClassifier::Create({...});
//   gvex::Trainer().Fit(&*model, db, gvex::SplitDatabase(db, .8, .1, 42));
//   auto assigned = gvex::AssignLabels(*model, db);
//
//   gvex::Configuration config;
//   config.default_coverage = {0, 15};
//   gvex::ParallelExplainOptions options;  // num_threads = 1 by default
//   auto views = gvex::ParallelApproxExplain(*model, db, assigned, {0, 1},
//                                            config, options);
#pragma once

#include "gvex/baselines/explainer.h"
#include "gvex/baselines/gcf_explainer.h"
#include "gvex/baselines/gnn_explainer.h"
#include "gvex/baselines/gstarx.h"
#include "gvex/baselines/subgraphx.h"
#include "gvex/cli/cli.h"
#include "gvex/common/bitset.h"
#include "gvex/common/logging.h"
#include "gvex/common/result.h"
#include "gvex/common/rng.h"
#include "gvex/common/status.h"
#include "gvex/common/stopwatch.h"
#include "gvex/common/string_util.h"
#include "gvex/common/thread_pool.h"
#include "gvex/datasets/datasets.h"
#include "gvex/datasets/generator_util.h"
#include "gvex/explain/approx_gvex.h"
#include "gvex/explain/config.h"
#include "gvex/explain/everify.h"
#include "gvex/explain/node_classification.h"
#include "gvex/explain/parallel.h"
#include "gvex/explain/psum.h"
#include "gvex/explain/query.h"
#include "gvex/explain/stream_gvex.h"
#include "gvex/explain/verifier.h"
#include "gvex/explain/view.h"
#include "gvex/explain/view_io.h"
#include "gvex/gnn/model.h"
#include "gvex/gnn/optimizer.h"
#include "gvex/gnn/serialize.h"
#include "gvex/gnn/trainer.h"
#include "gvex/graph/graph.h"
#include "gvex/graph/graph_db.h"
#include "gvex/graph/graph_io.h"
#include "gvex/influence/influence.h"
#include "gvex/matching/vf2.h"
#include "gvex/metrics/metrics.h"
#include "gvex/mining/canonical.h"
#include "gvex/mining/pgen.h"
#include "gvex/tensor/csr.h"
#include "gvex/tensor/matrix.h"
#include "gvex/tensor/ops.h"
