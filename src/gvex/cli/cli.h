// Command-line front end: generate datasets, train classifiers, produce
// explanation views, verify, query, and evaluate — the full pipeline as
// shippable artifacts (dataset / model / view files).
//
//   gvex_tool gen     --dataset MUT --scale 0.5 --out db.txt
//   gvex_tool stats   --db db.txt
//   gvex_tool train   --db db.txt --out model.txt [--hidden 32 --layers 3
//                     --epochs 150 --aggregator gcn|mean|sum]
//   gvex_tool explain --db db.txt --model model.txt --labels 0,1
//                     [--algorithm approx|stream --ul 15 --bl 0
//                      --threads N --budget SECONDS
//                      --checkpoint ckpt.txt --resume] --out views.txt
//   gvex_tool verify  --db db.txt --model model.txt --views views.txt
//   gvex_tool fidelity --db db.txt --model model.txt --views views.txt
//   gvex_tool query   --views views.txt --label 1 --pattern pattern.txt
//   gvex_tool serve   --views views.txt [--model model.txt]
//                     (--socket /tmp/gvex.sock | --port N)
//                     [--workers 4 --queue 256 --batch 8 --deadline-ms 0
//                      --route NAME --route-quota "exp=8:0.25,canary=16"
//                      --exact-fp32 "routeA,routeB" --zoo routes.txt
//                      --follow (unix:PATH|tcp:PORT) --poll-ms 200]
//                     [--ingest --model model.txt
//                      --ingest-journal wal.bin --resume
//                      --drift-threshold 0.25 --drift-window 16
//                      --ingest-queue 64 --ingest-cadence 8
//                      --targets "unix:A,tcp:PORT" | --shard-map map.bin]
//   gvex_tool ingest  (--socket PATH | --port N) [--graph-db db.txt]
//                     [--from 0 --count N --label L --id-base 1
//                      --deadline-ms MS --route NAME
//                      --retry N --retry-backoff-ms MS]
//                     [--publish] [--status]
//   gvex_tool client  (--socket PATH | --port N | --local views.txt
//                      [--model model.txt] | --shard-map map.bin)
//                     --type ping|support|contains|hits|discriminative|
//                            classify|stats|health|fetch|shutdown|
//                            coverage|ingest|evaluate
//                     [--label L --against L2 --pattern p.txt
//                      --graph g.txt | --graph-db db.txt --graph-index I
//                      --semantics subgraph|induced --max-embeddings 64
//                      --deadline-ms MS --text STR --route NAME
//                      --retry N --retry-backoff-ms MS --top-k 0
//                      --hedge-ms MS --shard-deadline-ms MS]
//   gvex_tool publish --views views.txt [--model model.txt] [--route NAME]
//                     [--quantize fp16|int8]
//                     (--socket PATH | --port N | --out bundle.bin |
//                      --targets "unix:A,unix:B,tcp:PORT" |
//                      --shard-map map.bin
//                      [--retry 2 --retry-backoff-ms 50 --no-health-gate])
//                     | --zoo routes.txt (--socket PATH | --port N |
//                        --targets "unix:A,tcp:PORT")
//   gvex_tool evaluate (--socket PATH | --port N) [--route NAME]
//                     [--dataset SYN --scale 0.15 --seed 0 --graphs N]
//                     [--min-fidelity X --min-accuracy Y]
//                     [--deadline-ms MS --retry N --retry-backoff-ms MS]
//   gvex_tool shardmap --shards "unix:A,unix:B" [--standbys "unix:S,-"]
//                     [--names "left,right"] --out map.bin
//                     | --shard-map map.bin (--describe |
//                        --owner-of I [--route NAME])
//   gvex_tool frontend --shard-map map.bin (--socket PATH | --port N)
//                     [--hedge-ms MS --shard-deadline-ms MS]
//
// `serve` answers explanation queries over a Unix or loopback TCP socket
// (docs/SERVING.md); `client --local` runs the identical request path
// in-process, so socket and local outputs diff byte-for-byte. `client
// --retry` retries shed requests (kOverloaded and kQuotaExceeded; never
// kTimeout). `publish --targets` fan-outs one bundle to N servers with
// health-gated installs and per-target status rows; a mixed outcome
// exits with the distinct kPartialFailure code (14).
//
// Live ingest (docs/SERVING.md "Live ingest & freshness SLO"): `serve
// --ingest` keeps one resident StreamGVEX per label behind the server;
// `ingest` streams a graph database into it as kIngest frames. Accepted
// graphs are journaled (--ingest-journal) before they touch the solver,
// so `--resume` after a crash replays to byte-identical resident views.
// When the sliding-window drift (--drift-window) against the served
// generation crosses --drift-threshold, the manager cuts a bundle and
// hot-swaps it locally — and fans it out to --targets or a --shard-map
// fleet with the same health-gated publish protocol. `ingest --publish`
// forces a cut; `ingest --status` reports freshness counters.
//
// The explainer zoo (docs/SERVING.md "Explainer zoo & evaluation
// gate"): `serve --zoo routes.txt` binds named routes to explainer
// configs (the four baselines plus GVEX, each with seed/budget/max_nodes
// in a gvexzoo-v1 artifact); `evaluate` scores a route's answers against
// planted-motif ground truth over the ordinary wire (fidelity+/-,
// sparsity, motif-recovery accuracy) and exits with the distinct
// kEvaluationFailed code (16) when a --min-fidelity/--min-accuracy gate
// trips. `publish --zoo` fans the artifact out to running servers.
//
// The sharded fleet (docs/ARCHITECTURE.md, docs/WIRE_PROTOCOL.md):
// `shardmap` writes the gvexshardmap-v1 topology, `publish --shard-map`
// partitions one bundle into per-shard slices, and `frontend` (or
// `client --shard-map`, the same router in-process) serves the fleet —
// point queries routed to the owning shard, corpus-wide queries
// scatter-gathered with optional hedging (--hedge-ms) against each
// shard's standby. A scatter missing shards exits with the distinct
// kPartialResult code (15), never a silently wrong aggregate.
//
// Every subcommand accepts --fail "site=spec[;site=spec...]" to arm
// fault-injection failpoints (see gvex/common/failpoint.h), plus
// --metrics-out FILE to dump a PerfReport JSON (counters, histograms,
// command wall time) and --trace-out FILE to dump a chrome://tracing
// span file (see docs/OBSERVABILITY.md). Both are best-effort: an I/O
// failure warns on stderr without changing the exit code. Exit codes
// map StatusCodes one-to-one; see README.md "Exit codes".
#pragma once

#include <string>
#include <vector>

namespace gvex {
namespace cli {

/// Run the tool; argv excludes the program name. Output goes to stdout,
/// diagnostics to stderr. Returns a process exit code.
int Run(const std::vector<std::string>& argv);

}  // namespace cli
}  // namespace gvex
