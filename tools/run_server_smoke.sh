#!/usr/bin/env bash
# End-to-end smoke for the serving subsystem (docs/SERVING.md): build a
# small dataset/model/view pipeline with gvex_tool, start `gvex_tool
# serve` on a Unix socket, round-trip every request type with `gvex_tool
# client`, and diff each socket answer byte-for-byte against `client
# --local` (the identical request engine run in-process). Two armed-
# failpoint legs then check fault behavior over the wire: an injected
# service delay must not change any byte of the answers, and an injected
# admission failure must surface as a clean kOverloaded exit (code 12).
# A route-quota leg bursts a quota'd secondary route until it sheds with
# the distinct kQuotaExceeded exit (code 13) while the default route's
# answers stay byte-identical to --local, and checks that `client
# --retry` rides out a quota shed.
#
# A cluster leg (docs/SERVING.md "Replication & routes") then proves the
# primary -> standby story end to end: a standby started with --follow
# tails the primary, `gvex_tool publish` pushes a new bundle, the standby
# installs + pre-warms it, and after `kill -9` of the primary the standby
# answers every query type byte-identically to `client --local` with zero
# MatchCache re-warm (asserted on the serve.warm_pairs counter). An armed
# cluster.install failpoint checks that a failed install surfaces to the
# publisher as a clean kIoError exit (code 8) without touching the live
# generation. Fan-out legs then publish with --targets to both nodes
# (exit 0, one fingerprint everywhere) and with one dead target (partial
# failure, exit 14, per-target diagnosis).
#
# An ingest leg (docs/SERVING.md "Live ingest & freshness SLO") proves
# the write path end to end: `serve --ingest` bootstraps a generation
# from the live feed (drift-triggered auto-publish against the empty
# route), and a crash-exact resume run feeds the same graphs, takes a
# `kill -9` mid-stream, restarts with --resume, blindly re-sends the
# whole range under the same idempotency keys (journaled ids answer
# `duplicate`), and asserts the forced cut's fingerprint is
# byte-identical to an uninterrupted run's.
#
# A fleet leg (docs/ARCHITECTURE.md "Sharded fleet") shards one view set
# across three servers with `shardmap` + `publish --shard-map`, fronts
# them with `gvex_tool frontend`, and diffs every query type — including
# the scatter-gathered coverage verb, uncapped and --top-k 2 — byte-for-byte
# against `client --local` over the unsharded views. It then kills one
# shard mid-fleet and asserts a scatter comes back flagged with the
# distinct kPartialResult exit (15) — merged-but-incomplete, never a
# silently wrong aggregate — and kills the shard that has a standby to
# prove a point query fails over and still answers byte-identically.
#
# A zoo leg (docs/SERVING.md "Explainer zoo & evaluation gate") trains a
# SYN model, serves it with two `--zoo` explainer routes (a healthy one
# and one deliberately crippled to max_nodes 1), and proves the served
# evaluation gate end to end: `gvex_tool evaluate` streams per-graph rows
# plus a scorecard line that must parse as canonical zoo-scorecard-v1
# JSON, two runs of the same evaluation diff byte-for-byte, the
# `--min-accuracy` gate trips on the crippled route with the distinct
# kEvaluationFailed exit (16), `publish --zoo` hot-swaps the route table
# over the wire, and the server's stats report live zoo.* counters.
#
# Usage: tools/run_server_smoke.sh [path-to-gvex_tool] [leg]
#   default tool: ./build/tools/gvex_tool
#   leg: all (default) | serve | cluster | ingest | fleet | zoo
set -euo pipefail

cd "$(dirname "$0")/.."

TOOL="${1:-./build/tools/gvex_tool}"
LEG="${2:-all}"
case "$LEG" in all|serve|cluster|ingest|fleet|zoo) ;; *)
  echo "unknown leg '$LEG' (want all, serve, cluster, ingest, fleet," \
       "or zoo)" >&2
  exit 2 ;;
esac
if [[ ! -x "$TOOL" ]]; then
  echo "gvex_tool not found at $TOOL (build first)" >&2
  exit 1
fi
TOOL="$(cd "$(dirname "$TOOL")" && pwd)/$(basename "$TOOL")"

WORK="$(mktemp -d)"
SERVER_PID=""
PRIMARY_PID=""
STANDBY_PID=""
SHARD0_PID=""
SHARD1_PID=""
SHARD2_PID=""
FRONT_PID=""
INGEST_PID=""
cleanup() {
  for pid in "$SERVER_PID" "$PRIMARY_PID" "$STANDBY_PID" \
             "$SHARD0_PID" "$SHARD1_PID" "$SHARD2_PID" "$FRONT_PID" \
             "$INGEST_PID"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"

fail() { echo "SMOKE FAILED: $*" >&2; exit 1; }

echo "== pipeline: gen -> train -> explain"
"$TOOL" gen --dataset MUT --scale 0.2 --seed 7 --out db.txt
"$TOOL" train --db db.txt --out model.txt --epochs 40
"$TOOL" explain --db db.txt --model model.txt --labels 0,1 --out views.txt

# The planted NO2 toxicophore (README "Querying views").
cat > pattern.txt <<'EOF'
gvexgraph-v1
meta 4 3 0 0
n 0
n 1
n 2
n 2
e 0 1 0
e 1 2 1
e 1 3 1
EOF

SOCK="$WORK/gvex.sock"

start_server() {  # start_server [extra serve flags...]
  "$TOOL" serve --views views.txt --model model.txt --socket "$SOCK" \
    "$@" > serve.log 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    grep -q "serving on" serve.log && return 0
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
  done
  cat serve.log >&2
  fail "server did not become ready"
}

stop_server() {
  "$TOOL" client --socket "$SOCK" --type shutdown > /dev/null
  wait "$SERVER_PID" || fail "server exited non-zero after shutdown"
  SERVER_PID=""
}

# The five query types, as client argument lists.
QUERIES=(
  "--type support --label 1 --pattern pattern.txt"
  "--type contains --label 1 --pattern pattern.txt"
  "--type hits --label 1 --pattern pattern.txt --max-embeddings 5"
  "--type discriminative --label 1 --against 0"
  "--type classify --graph-db db.txt --graph-index 3"
)

wait_for_line() {  # wait_for_line <log> <pid> <pattern>
  local log="$1" pid="$2" pattern="$3"
  for _ in $(seq 1 100); do
    grep -q "$pattern" "$log" && return 0
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  cat "$log" >&2
  fail "did not see '$pattern' in $log"
}

check_queries() {  # check_queries <leg-name>
  local leg="$1"
  for q in "${QUERIES[@]}"; do
    # shellcheck disable=SC2086
    "$TOOL" client --socket "$SOCK" $q > socket.out
    # shellcheck disable=SC2086
    "$TOOL" client --local views.txt --model model.txt $q > local.out
    if ! diff -u local.out socket.out > /dev/null; then
      diff -u local.out socket.out >&2 || true
      fail "$leg: socket answer differs from in-process answer for: $q"
    fi
  done
  echo "   $leg: all ${#QUERIES[@]} query types byte-identical to --local"
}

if [[ "$LEG" == "all" || "$LEG" == "serve" ]]; then

echo "== serve + client round-trip (clean server)"
start_server
[[ "$("$TOOL" client --socket "$SOCK" --type ping)" == "pong" ]] \
  || fail "ping did not answer pong"
check_queries "clean"
"$TOOL" client --socket "$SOCK" --type stats > stats.json
grep -q '"generation"' stats.json || fail "stats dump missing generation"
stop_server

echo "== armed failpoint: injected service delay (answers must not change)"
start_server --fail "serve.exec_delay=delay(30)"
check_queries "delayed"
stop_server

echo "== route quota: bursty route sheds (exit 13), default goodput intact"
# A 1-deep admission budget on route "exp" plus ~100ms of injected
# service time: a 10-client burst on that route must shed most of its
# requests with the distinct quota exit code, while the default route —
# which has no quota — keeps answering byte-identically to --local.
start_server --route-quota "exp=1" --workers 2 --queue 64 \
  --fail "serve.exec_delay=delay(100)"
declare -a BURST_PIDS=()
for _ in $(seq 1 10); do
  "$TOOL" client --socket "$SOCK" --type ping --route exp \
    > /dev/null 2>&1 &
  BURST_PIDS+=("$!")
done
check_queries "quota-burst"   # default route, while the burst is in flight
QUOTA_SHED=0
QUOTA_OK=0
for pid in "${BURST_PIDS[@]}"; do
  set +e
  wait "$pid"
  rc=$?
  set -e
  case "$rc" in
    0)  QUOTA_OK=$((QUOTA_OK + 1)) ;;
    13) QUOTA_SHED=$((QUOTA_SHED + 1)) ;;
    *)  fail "quota burst: unexpected exit $rc (want 0 or 13)" ;;
  esac
done
[[ "$QUOTA_SHED" -ge 1 ]] \
  || fail "quota burst never shed (expected at least one exit 13)"
echo "   quota burst: $QUOTA_SHED shed with exit 13, $QUOTA_OK served"
"$TOOL" client --socket "$SOCK" --type stats > stats.json
grep -q '"serve.quota_shed.exp":[1-9]' stats.json \
  || fail "stats missing a non-zero serve.quota_shed.exp counter"
stop_server

echo "== client --retry: a quota shed is retried, a bare client exits 13"
# limit(2): the first (bare) client consumes one injected shed and must
# exit 13; the retrying client consumes the second on its first attempt
# and lands on the retry.
start_server --fail "serve.admit=error(quota),limit(2)"
set +e
"$TOOL" client --socket "$SOCK" --type ping > /dev/null 2> quota.err
rc=$?
set -e
[[ "$rc" -eq 13 ]] || fail "expected exit 13 (kQuotaExceeded), got $rc"
grep -qi "quota" quota.err || fail "stderr does not name the quota shed"
"$TOOL" client --socket "$SOCK" --type ping --retry 3 \
  --retry-backoff-ms 10 > /dev/null \
  || fail "client --retry did not recover from a quota shed"
stop_server

echo "== armed failpoint: injected admission overload (clean exit 12)"
start_server --fail "serve.admit=error(overloaded),limit(1)"
set +e
"$TOOL" client --socket "$SOCK" --type support --label 1 \
  --pattern pattern.txt > /dev/null 2> overload.err
rc=$?
set -e
[[ "$rc" -eq 12 ]] || fail "expected exit 12 (kOverloaded), got $rc"
grep -qi "overloaded" overload.err || fail "stderr does not name the overload"
# The failpoint was limit(1): the very next request must succeed.
"$TOOL" client --socket "$SOCK" --type support --label 1 \
  --pattern pattern.txt > /dev/null || fail "server unhealthy after shed"
stop_server

fi  # serve leg

if [[ "$LEG" == "all" || "$LEG" == "cluster" ]]; then

echo "== cluster: publish -> standby sync -> primary loss -> warm failover"
# A second, genuinely different generation to publish (higher support
# threshold => different patterns => different content fingerprint).
"$TOOL" explain --db db.txt --model model.txt --labels 0,1 --theta 0.15 \
  --out views2.txt
cmp -s views.txt views2.txt && fail "views2.txt is not a new generation"

PRIMARY_SOCK="$WORK/primary.sock"
STANDBY_SOCK="$WORK/standby.sock"

# Primary serves the first generation; its armed cluster.install
# failpoint (limit 1) makes the FIRST published install tear.
"$TOOL" serve --views views.txt --model model.txt --socket "$PRIMARY_SOCK" \
  --fail "cluster.install=error(io),limit(1)" > primary.log 2>&1 &
PRIMARY_PID=$!
wait_for_line primary.log "$PRIMARY_PID" "serving on"

# Standby: no local views at all, it bootstraps entirely over the wire.
"$TOOL" serve --follow "unix:$PRIMARY_SOCK" --socket "$STANDBY_SOCK" \
  --poll-ms 50 > standby.log 2>&1 &
STANDBY_PID=$!
wait_for_line standby.log "$STANDBY_PID" "following"

gen1_fp() {  # fingerprint of the primary's live generation
  "$TOOL" client --socket "$PRIMARY_SOCK" --type health \
    | sed -n 's/.*fingerprint \([0-9a-f]\{16\}\).*/\1/p'
}
FP1="$(gen1_fp)"
[[ -n "$FP1" ]] || fail "primary did not report a fingerprint"

standby_stats() { "$TOOL" client --socket "$STANDBY_SOCK" --type stats; }
wait_for_fp() {  # wait_for_fp <fingerprint>
  for _ in $(seq 1 100); do
    standby_stats > standby_stats.json
    grep -q "\"fingerprint\":\"$1\"" standby_stats.json && return 0
    sleep 0.1
  done
  cat standby_stats.json >&2
  fail "standby never converged on fingerprint $1"
}
wait_for_fp "$FP1"
echo "   standby synced generation 1 ($FP1)"

echo "== cluster: torn install surfaces as clean publisher error"
set +e
"$TOOL" publish --views views2.txt --model model.txt \
  --socket "$PRIMARY_SOCK" > publish.out 2> publish.err
rc=$?
set -e
[[ "$rc" -eq 8 ]] || fail "expected publish exit 8 (kIoError), got $rc"
"$TOOL" client --socket "$PRIMARY_SOCK" --type health | grep -q "$FP1" \
  || fail "torn install replaced the live generation"

echo "== cluster: clean publish replicates to the standby"
"$TOOL" publish --views views2.txt --model model.txt \
  --socket "$PRIMARY_SOCK" > publish.out
grep -q "installed route=default" publish.out \
  || fail "publish did not confirm install: $(cat publish.out)"
FP2="$(sed -n 's/.*fingerprint=\([0-9a-f]\{16\}\).*/\1/p' publish.out)"
[[ -n "$FP2" && "$FP2" != "$FP1" ]] \
  || fail "published fingerprint missing or unchanged"
wait_for_fp "$FP2"
grep -q '"warmed":1' standby_stats.json \
  || fail "standby installed generation 2 but is not warm"

echo "== cluster: fan-out publish converges both nodes (exit 0)"
"$TOOL" publish --views views2.txt --model model.txt \
  --targets "unix:$PRIMARY_SOCK,unix:$STANDBY_SOCK" \
  --retry 1 --retry-backoff-ms 10 > fanout.out
grep -q "published 2/2 targets" fanout.out \
  || fail "fan-out did not confirm 2/2: $(cat fanout.out)"
[[ "$(grep -c "fingerprint $FP2" fanout.out)" -eq 2 ]] \
  || fail "fan-out targets did not converge on $FP2: $(cat fanout.out)"

echo "== cluster: fan-out with one dead target -> partial failure exit 14"
set +e
"$TOOL" publish --views views2.txt --model model.txt \
  --targets "unix:$PRIMARY_SOCK,unix:$WORK/nobody-home.sock" \
  --retry 1 --retry-backoff-ms 10 > fanout.out 2> fanout.err
rc=$?
set -e
[[ "$rc" -eq 14 ]] || fail "expected exit 14 (kPartialFailure), got $rc"
grep -q "published 1/2 targets" fanout.out \
  || fail "partial fan-out did not report 1/2: $(cat fanout.out)"
grep -q "never probed healthy" fanout.out \
  || fail "dead target row missing probe diagnosis: $(cat fanout.out)"

echo "== cluster: primary loss -> standby serves warm, byte-identical"
kill -9 "$PRIMARY_PID" 2>/dev/null || true
wait "$PRIMARY_PID" 2>/dev/null || true
PRIMARY_PID=""

warm_pairs() {
  sed -n 's/.*"serve\.warm_pairs":\([0-9]*\).*/\1/p' standby_stats.json
}
standby_stats > standby_stats.json
WARM_BEFORE="$(warm_pairs)"
[[ -n "$WARM_BEFORE" ]] || fail "stats missing serve.warm_pairs counter"

for q in "${QUERIES[@]}"; do
  # shellcheck disable=SC2086
  "$TOOL" client --socket "$STANDBY_SOCK" $q > socket.out
  # shellcheck disable=SC2086
  "$TOOL" client --local views2.txt --model model.txt $q > local.out
  if ! diff -u local.out socket.out > /dev/null; then
    diff -u local.out socket.out >&2 || true
    fail "failover: standby answer differs from in-process answer for: $q"
  fi
done
echo "   failover: all ${#QUERIES[@]} query types byte-identical to --local"

standby_stats > standby_stats.json
WARM_AFTER="$(warm_pairs)"
[[ "$WARM_AFTER" == "$WARM_BEFORE" ]] \
  || fail "failover re-warmed the MatchCache ($WARM_BEFORE -> $WARM_AFTER)"
echo "   failover: zero MatchCache re-warm (serve.warm_pairs $WARM_AFTER)"

"$TOOL" client --socket "$STANDBY_SOCK" --type shutdown > /dev/null
wait "$STANDBY_PID" || fail "standby exited non-zero after shutdown"
STANDBY_PID=""

fi  # cluster leg

if [[ "$LEG" == "all" || "$LEG" == "ingest" ]]; then

echo "== ingest: live write path bootstraps a generation (auto-publish)"
# No --views at all: the server starts with an empty route, so drift
# begins at 1.0 and the first accepted graph must cut a generation.
ISOCK="$WORK/ingest.sock"
"$TOOL" serve --ingest --model model.txt --socket "$ISOCK" \
  --ingest-journal "$WORK/wal_boot.bin" > ingest_boot.log 2>&1 &
INGEST_PID=$!
wait_for_line ingest_boot.log "$INGEST_PID" "ingesting route"
"$TOOL" ingest --socket "$ISOCK" --graph-db db.txt --from 0 --count 6 \
  --id-base 100 > feed_boot.out
grep -q "published generation=" feed_boot.out \
  || fail "ingest: bootstrap feed never auto-published"
"$TOOL" ingest --socket "$ISOCK" --status > istatus.out
grep -q "ingesting route=default" istatus.out \
  || fail "ingest: status verb did not answer: $(cat istatus.out)"
"$TOOL" client --socket "$ISOCK" --type stats > stats.json
grep -q '"ingest.accepted":[1-9]' stats.json \
  || fail "ingest: stats missing a non-zero ingest.accepted counter"
grep -q '"ingest.publishes":[1-9]' stats.json \
  || fail "ingest: stats missing a non-zero ingest.publishes counter"
grep -q '"generation":[1-9]' stats.json \
  || fail "ingest: auto-publish left no live generation"
echo "   bootstrap feed auto-published a live generation"
"$TOOL" client --socket "$ISOCK" --type shutdown > /dev/null
wait "$INGEST_PID" || fail "ingesting server exited non-zero after shutdown"
INGEST_PID=""

echo "== ingest: crash-exact resume (kill -9 mid-stream, byte-identical cut)"
# Straight run: feed all 12 graphs, force a cut, remember its
# fingerprint. --drift-threshold 2 is unreachable (drift <= 1), so the
# forced cut is the only publish in both runs.
SOCK_A="$WORK/ingest_a.sock"
"$TOOL" serve --ingest --model model.txt --socket "$SOCK_A" \
  --ingest-journal "$WORK/wal_a.bin" --drift-threshold 2 \
  --ingest-cadence 3 > ingest_a.log 2>&1 &
INGEST_PID=$!
wait_for_line ingest_a.log "$INGEST_PID" "ingesting route"
"$TOOL" ingest --socket "$SOCK_A" --graph-db db.txt --from 0 --count 12 \
  --id-base 100 > /dev/null
"$TOOL" ingest --socket "$SOCK_A" --publish > pub_a.out
FP_A="$(sed -n 's/.*fingerprint=\([0-9a-f]*\).*/\1/p' pub_a.out)"
[[ -n "$FP_A" ]] || fail "straight run printed no fingerprint: $(cat pub_a.out)"
"$TOOL" client --socket "$SOCK_A" --type shutdown > /dev/null
wait "$INGEST_PID" || fail "straight-run server exited non-zero"
INGEST_PID=""

# Interrupted run: the armed ingest.feed delay slows each feed to
# ~80ms, so the kill -9 below lands mid-stream deterministically.
SOCK_B="$WORK/ingest_b.sock"
WAL_B="$WORK/wal_b.bin"
"$TOOL" serve --ingest --model model.txt --socket "$SOCK_B" \
  --ingest-journal "$WAL_B" --drift-threshold 2 --ingest-cadence 3 \
  --fail "ingest.feed=delay(80)" > ingest_b.log 2>&1 &
INGEST_PID=$!
wait_for_line ingest_b.log "$INGEST_PID" "ingesting route"
set +e
"$TOOL" ingest --socket "$SOCK_B" --graph-db db.txt --from 0 --count 12 \
  --id-base 100 > feed_b.out 2> /dev/null &
FEEDER=$!
sleep 0.4
kill -9 "$INGEST_PID" 2>/dev/null
wait "$INGEST_PID" 2>/dev/null
wait "$FEEDER" 2>/dev/null   # dies with an io error once the socket drops
set -e
INGEST_PID=""
LANDED="$(grep -c "^ingested seq=" feed_b.out || true)"
[[ "$LANDED" -ge 1 && "$LANDED" -lt 12 ]] \
  || fail "kill -9 was not mid-stream ($LANDED/12 acknowledged)"

# Restart with --resume: journal replay (checkpoint restore + tail
# replay) finishes before the socket opens; the readiness line reports
# what survived. Then blindly re-send the whole range under the same
# idempotency keys — journaled ids answer `duplicate`, everything the
# crash swallowed is fed.
"$TOOL" serve --ingest --model model.txt --socket "$SOCK_B" \
  --ingest-journal "$WAL_B" --resume --drift-threshold 2 \
  --ingest-cadence 3 > ingest_b2.log 2>&1 &
INGEST_PID=$!
wait_for_line ingest_b2.log "$INGEST_PID" "ingesting route"
grep -q "resident 0," ingest_b2.log \
  && fail "--resume restored nothing despite $LANDED journaled feeds"
"$TOOL" ingest --socket "$SOCK_B" --graph-db db.txt --from 0 --count 12 \
  --id-base 100 > refeed.out
DUP="$(grep -c "^duplicate id=" refeed.out || true)"
[[ "$DUP" -ge "$LANDED" ]] \
  || fail "resume forgot idempotency keys ($DUP duplicates, $LANDED landed)"
"$TOOL" ingest --socket "$SOCK_B" --publish > pub_b.out
FP_B="$(sed -n 's/.*fingerprint=\([0-9a-f]*\).*/\1/p' pub_b.out)"
[[ "$FP_B" == "$FP_A" ]] \
  || fail "resumed cut differs from uninterrupted run ($FP_B vs $FP_A)"
echo "   crash-resume cut byte-identical to uninterrupted run ($FP_A)"
echo "   ($LANDED fed pre-crash, $DUP deduplicated on blind re-send)"
"$TOOL" client --socket "$SOCK_B" --type shutdown > /dev/null
wait "$INGEST_PID" || fail "resumed server exited non-zero after shutdown"
INGEST_PID=""

fi  # ingest leg

if [[ "$LEG" == "all" || "$LEG" == "fleet" ]]; then

echo "== fleet: shard map create + describe + owner-of"
S0="$WORK/left.sock"
S1="$WORK/mid.sock"
S2="$WORK/right.sock"
SB0="$WORK/left-standby.sock"
FRONT="$WORK/front.sock"

"$TOOL" shardmap --shards "unix:$S0,unix:$S1,unix:$S2" \
  --standbys "unix:$SB0,-,-" --names "left,mid,right" --out map.bin
"$TOOL" shardmap --shard-map map.bin --describe > map.txt
grep -q "3 shards" map.txt || fail "describe missing shard count"
grep -q "shard 0 left" map.txt || fail "describe missing named shard row"
"$TOOL" shardmap --shard-map map.bin --owner-of 0 | grep -q "shard" \
  || fail "owner-of did not resolve an owner"

echo "== fleet: three shards + left standby, then sharded publish"
# Every shard boots on the full (unsharded) view set; the sharded
# publish below must replace each with its slice — if a slice failed to
# install, the scatter-gathered aggregates would triple-count and the
# byte-diffs against --local would catch it. The left shard carries a
# permanent armed exec delay far above the frontend's hedge budget, so
# every query leg that lands on it must be won by the standby (the
# hedge-win path), yet answers stay byte-identical.
"$TOOL" serve --views views.txt --model model.txt --socket "$S0" \
  --fail "serve.exec_delay=delay(300)" > left.log 2>&1 &
SHARD0_PID=$!
"$TOOL" serve --views views.txt --model model.txt --socket "$S1" \
  > mid.log 2>&1 &
SHARD1_PID=$!
"$TOOL" serve --views views.txt --model model.txt --socket "$S2" \
  > right.log 2>&1 &
SHARD2_PID=$!
wait_for_line left.log "$SHARD0_PID" "serving on"
wait_for_line mid.log "$SHARD1_PID" "serving on"
wait_for_line right.log "$SHARD2_PID" "serving on"

"$TOOL" serve --follow "unix:$S0" --socket "$SB0" --poll-ms 50 \
  > left-standby.log 2>&1 &
STANDBY_PID=$!
wait_for_line left-standby.log "$STANDBY_PID" "following"

"$TOOL" publish --views views.txt --model model.txt --shard-map map.bin \
  --retry 1 --retry-backoff-ms 10 > shardpub.out
grep -q "published 3/3 shards" shardpub.out \
  || fail "sharded publish did not confirm 3/3: $(cat shardpub.out)"

# The standby must converge on left's slice before we lean on failover.
live_fp() {  # live_fp <socket>
  "$TOOL" client --socket "$1" --type stats \
    | sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p'
}
FP_LEFT="$(live_fp "$S0")"
[[ -n "$FP_LEFT" ]] || fail "left shard did not report a fingerprint"
for _ in $(seq 1 100); do
  [[ "$(live_fp "$SB0")" == "$FP_LEFT" ]] && break
  sleep 0.1
done
[[ "$(live_fp "$SB0")" == "$FP_LEFT" ]] \
  || fail "left standby never converged on slice fingerprint $FP_LEFT"
echo "   left standby synced slice $FP_LEFT"

echo "== fleet: frontend scatter-gather byte-identical to --local union"
"$TOOL" frontend --shard-map map.bin --socket "$FRONT" --hedge-ms 50 \
  > frontend.log 2>&1 &
FRONT_PID=$!
wait_for_line frontend.log "$FRONT_PID" "frontend serving on"

FLEET_QUERIES=("${QUERIES[@]}"
  "--type coverage"
  "--type coverage --top-k 2")
for q in "${FLEET_QUERIES[@]}"; do
  # shellcheck disable=SC2086
  "$TOOL" client --socket "$FRONT" $q > fleet.out
  # shellcheck disable=SC2086
  "$TOOL" client --local views.txt --model model.txt $q > local.out
  if ! diff -u local.out fleet.out > /dev/null; then
    diff -u local.out fleet.out >&2 || true
    fail "fleet: frontend answer differs from union --local for: $q"
  fi
  # Library mode: the same scatter-gather without the frontend hop.
  # shellcheck disable=SC2086
  "$TOOL" client --shard-map map.bin --hedge-ms 50 $q > lib.out
  if ! diff -u local.out lib.out > /dev/null; then
    diff -u local.out lib.out >&2 || true
    fail "fleet: client --shard-map answer differs from --local for: $q"
  fi
done
echo "   fleet: all ${#FLEET_QUERIES[@]} query types byte-identical to --local"

echo "== fleet: quantized publish serves through the sharded frontend"
# Re-publish the same views with int8 weights. Precision is content, so
# every shard must converge on a NEW fingerprint, and the view-only
# queries must keep answering byte-identically to the fp32 --local union
# (the views are untouched; only the model payload was quantized).
"$TOOL" publish --views views.txt --model model.txt --quantize int8 \
  --shard-map map.bin --retry 1 --retry-backoff-ms 10 > qpub.out
grep -q "published 3/3 shards" qpub.out \
  || fail "quantized sharded publish did not confirm 3/3: $(cat qpub.out)"
FP_LEFT_Q="$(live_fp "$S0")"
[[ -n "$FP_LEFT_Q" && "$FP_LEFT_Q" != "$FP_LEFT" ]] \
  || fail "quantized publish did not change left's fingerprint ($FP_LEFT_Q)"
for _ in $(seq 1 100); do
  [[ "$(live_fp "$SB0")" == "$FP_LEFT_Q" ]] && break
  sleep 0.1
done
[[ "$(live_fp "$SB0")" == "$FP_LEFT_Q" ]] \
  || fail "left standby never converged on quantized slice $FP_LEFT_Q"
"$TOOL" client --socket "$FRONT" --type coverage > fleet.out
"$TOOL" client --local views.txt --model model.txt --type coverage \
  > local.out
diff -u local.out fleet.out > /dev/null \
  || fail "fleet: coverage scatter changed after quantized publish"
# Model-backed queries keep working against the dequantized twin.
"$TOOL" client --socket "$FRONT" --type classify \
  --graph-db db.txt --graph-index 3 > /dev/null \
  || fail "fleet: classify failed on the quantized generation"
echo "   quantized slices live on all shards (fingerprint $FP_LEFT_Q)"

echo "== fleet: point query restricted to one covered graph"
"$TOOL" client --socket "$FRONT" --type contains --label 1 \
  --pattern pattern.txt > contains.out
GI_LEFT=""
while read -r gi; do
  if "$TOOL" shardmap --shard-map map.bin --owner-of "$gi" \
      | grep -q "(left)"; then
    GI_LEFT="$gi"
    break
  fi
done < <(sed -n 's/^  graph \([0-9]*\)$/\1/p' contains.out)
[[ -n "$GI_LEFT" ]] || fail "no covered graph is owned by shard 'left'"
PQ="--type support --label 1 --pattern pattern.txt --graph-index $GI_LEFT"
# shellcheck disable=SC2086
"$TOOL" client --socket "$FRONT" $PQ > fleet.out
# shellcheck disable=SC2086
"$TOOL" client --local views.txt --model model.txt $PQ > point_local.out
diff -u point_local.out fleet.out > /dev/null \
  || fail "fleet: point query to graph $GI_LEFT differs from --local"
echo "   point query (graph $GI_LEFT, owned by left) matches --local"

echo "== fleet: left primary loss -> standby failover, byte-identical"
kill -9 "$SHARD0_PID" 2>/dev/null || true
wait "$SHARD0_PID" 2>/dev/null || true
SHARD0_PID=""
# Point query to the dead shard's graph: the router fails over to the
# standby synchronously and the answer must not change a byte.
# shellcheck disable=SC2086
"$TOOL" client --socket "$FRONT" $PQ > fleet.out
diff -u point_local.out fleet.out > /dev/null \
  || fail "failover: point query answer changed after left died"
# Scatters stay complete too: the left leg is answered by its standby.
"$TOOL" client --socket "$FRONT" --type coverage > fleet.out
"$TOOL" client --local views.txt --model model.txt --type coverage \
  > local.out
diff -u local.out fleet.out > /dev/null \
  || fail "failover: coverage scatter changed after left died"
echo "   left died; standby kept point + scatter answers byte-identical"

echo "== fleet: shard loss without standby -> flagged partial, exit 15"
kill -9 "$SHARD2_PID" 2>/dev/null || true
wait "$SHARD2_PID" 2>/dev/null || true
SHARD2_PID=""
set +e
"$TOOL" client --socket "$FRONT" --type coverage > partial.out 2> partial.err
rc=$?
set -e
[[ "$rc" -eq 15 ]] || fail "expected exit 15 (kPartialResult), got $rc"
grep -q "^coverage " partial.out \
  || fail "partial scatter printed no merged payload: $(cat partial.out)"
grep -q "missing shards right" partial.err \
  || fail "stderr does not name the missing shard: $(cat partial.err)"
grep -q "(2/3 answered)" partial.err \
  || fail "stderr missing shard accounting: $(cat partial.err)"
# The live shards' point queries keep answering cleanly (exit 0).
# shellcheck disable=SC2086
"$TOOL" client --socket "$FRONT" $PQ > /dev/null \
  || fail "point query to a live shard failed after right died"
echo "   right died; scatter flagged partial (exit 15), never wrong"

echo "== fleet: shutdown + hedge accounting"
"$TOOL" client --socket "$FRONT" --type shutdown > /dev/null
wait "$FRONT_PID" || fail "frontend exited non-zero after shutdown"
FRONT_PID=""
wait_for_line frontend.log "$$" "frontend stopped"
grep -q '"hedge_wins":[1-9]' frontend.log \
  || fail "frontend stats report no hedge wins: $(grep stopped frontend.log)"
grep -q '"failovers":[1-9]' frontend.log \
  || fail "frontend stats report no failovers: $(grep stopped frontend.log)"
echo "   $(sed -n 's/^frontend stopped //p' frontend.log)"

"$TOOL" client --socket "$S1" --type shutdown > /dev/null
wait "$SHARD1_PID" || fail "mid shard exited non-zero after shutdown"
SHARD1_PID=""
"$TOOL" client --socket "$SB0" --type shutdown > /dev/null
wait "$STANDBY_PID" || fail "left standby exited non-zero after shutdown"
STANDBY_PID=""

fi  # fleet leg

if [[ "$LEG" == "all" || "$LEG" == "zoo" ]]; then

echo "== zoo: SYN pipeline + two explainer routes behind one server"
"$TOOL" gen --dataset SYN --scale 0.15 --seed 7 --out syn_db.txt
"$TOOL" train --db syn_db.txt --out syn_model.txt --epochs 120
cat > zoo_routes.txt <<'EOF'
gvexzoo-v1
route crippled kind GE seed 0 budget_ms 0 max_nodes 1
route ge kind GE seed 0 budget_ms 0 max_nodes 6
end
EOF
SOCK_Z="$WORK/zoo.sock"
"$TOOL" serve --views views.txt --model syn_model.txt --socket "$SOCK_Z" \
  --zoo zoo_routes.txt > zoo.log 2>&1 &
SERVER_PID=$!
wait_for_line zoo.log "$SERVER_PID" "zoo serving 2 explainer routes"

echo "== zoo: served evaluation streams rows + canonical scorecard"
EVAL_ARGS=(--socket "$SOCK_Z" --scale 0.05 --seed 9 --graphs 2)
"$TOOL" evaluate "${EVAL_ARGS[@]}" --route ge > eval_ge.out \
  || fail "evaluate on the healthy route exited non-zero"
grep -q '^graph 0 label ' eval_ge.out \
  || fail "evaluation streamed no per-graph rows: $(cat eval_ge.out)"
# The gate's own strict parser already validated the scorecard line (a
# malformed one exits non-zero above); pin the canonical shape too.
grep -q '^{"scorecard":"zoo-scorecard-v1","route":"ge","kind":"GE"' \
  eval_ge.out || fail "no canonical scorecard line: $(cat eval_ge.out)"
# Served evaluation is deterministic: a second run diffs byte-for-byte.
"$TOOL" evaluate "${EVAL_ARGS[@]}" --route ge > eval_ge2.out
diff -u eval_ge.out eval_ge2.out > /dev/null \
  || fail "two runs of the same served evaluation differ"
echo "   scorecard: $(grep '^{"scorecard"' eval_ge.out)"

echo "== zoo: gate trips on the crippled route with exit 16"
"$TOOL" evaluate "${EVAL_ARGS[@]}" --route crippled > eval_cr.out \
  || fail "ungated evaluate of the crippled route exited non-zero"
set +e
"$TOOL" evaluate "${EVAL_ARGS[@]}" --route crippled --min-accuracy 0.5 \
  > gate.out 2> gate.err
rc=$?
set -e
[[ "$rc" -eq 16 ]] || fail "expected exit 16 (kEvaluationFailed), got $rc"
grep -q "below the gate" gate.err \
  || fail "gate stderr does not explain the regression: $(cat gate.err)"
# The healthy route clears the same floor the crippled one cannot reach:
# a 1-node explanation recovers at most 1/10 of the planted motifs.
"$TOOL" evaluate "${EVAL_ARGS[@]}" --route crippled --min-accuracy 0.11 \
  > /dev/null 2>&1 && fail "crippled route passed an unreachable floor"
echo "   crippled route gated out (exit 16); payload still printed"

echo "== zoo: publish --zoo hot-swaps the route table over the wire"
cat > zoo_routes2.txt <<'EOF'
gvexzoo-v1
route fresh kind GCF seed 5 budget_ms 0 max_nodes 4
end
EOF
"$TOOL" publish --zoo zoo_routes2.txt --socket "$SOCK_Z" > zoopub.out
grep -q "published 1 zoo routes to 1/1 targets" zoopub.out \
  || fail "publish --zoo did not confirm install: $(cat zoopub.out)"
"$TOOL" client --socket "$SOCK_Z" --type evaluate --text status \
  > zstatus.out
grep -q "route fresh kind GCF" zstatus.out \
  || fail "installed route missing from status: $(cat zstatus.out)"
"$TOOL" evaluate "${EVAL_ARGS[@]}" --route fresh > /dev/null \
  || fail "evaluate on the hot-swapped route failed"
set +e
"$TOOL" evaluate "${EVAL_ARGS[@]}" --route ge > /dev/null 2>&1
rc=$?
set -e
[[ "$rc" -ne 0 ]] || fail "replaced route 'ge' still answered"
echo "   route table replaced live (fresh in, ge out)"

echo "== zoo: stats expose zoo.* observability counters"
"$TOOL" client --socket "$SOCK_Z" --type stats > zstats.out
grep -q '"zoo.evaluations":[1-9]' zstats.out \
  || fail "stats missing zoo.evaluations: $(cat zstats.out)"
grep -q '"zoo.installs":[1-9]' zstats.out \
  || fail "stats missing zoo.installs: $(cat zstats.out)"

"$TOOL" client --socket "$SOCK_Z" --type shutdown > /dev/null
wait "$SERVER_PID" || fail "zoo server exited non-zero after shutdown"
SERVER_PID=""

fi  # zoo leg

echo "server smoke PASSED"
