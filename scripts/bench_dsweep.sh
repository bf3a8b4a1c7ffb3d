#!/usr/bin/env bash
# bench_dsweep.sh — wall-clock scaling of the distributed sweep path.
#
# Runs the full figure grid once in a single process (-workers 1) and
# then under a dsweep coordinator with 1, 2 and 4 local hmcsweepd worker
# processes (one slot each, so process count == parallelism). Every
# distributed run's stdout must be byte-identical to the baseline; the
# timings land in $OUT as JSON.
#
#   OPS=6000 OUT=BENCH_7.json scripts/bench_dsweep.sh
#
# Scaling is bounded by the machine: on a single-core host the 2- and
# 4-worker runs only measure coordination overhead, not speedup.
set -euo pipefail

ops=${OPS:-6000}
out=${OUT:-/dev/stdout}
work=$(mktemp -d)
cleanup() {
  local pids
  pids=$(jobs -p)
  [ -n "$pids" ] && kill $pids 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/hmccoal" ./cmd/hmccoal
go build -o "$work/hmcsweepd" ./cmd/hmcsweepd

now_ms() { date +%s%3N; }

# run_single FILE — the full grid in one process, one worker.
run_single() {
  "$work/hmccoal" -fig all -ops "$ops" -workers 1 >"$1" 2>/dev/null
}

# run_dist NWORKERS FILE — coordinator on an ephemeral port plus
# NWORKERS single-slot worker processes.
run_dist() {
  local n=$1 outfile=$2 errfile="$work/coord.$1.err" addr= pid i
  "$work/hmccoal" -fig all -ops "$ops" -serve 127.0.0.1:0 \
    >"$outfile" 2>"$errfile" &
  pid=$!
  for i in $(seq 100); do
    addr=$(sed -n 's/.*coordinating sweeps on //p' "$errfile")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "coordinator never announced an address" >&2; exit 1; }
  for i in $(seq "$n"); do
    "$work/hmcsweepd" -connect "$addr" -name "bench-w$i" -slots 1 2>/dev/null &
  done
  wait "$pid"
}

declare -A secs
t0=$(now_ms); run_single "$work/base.txt"; t1=$(now_ms)
secs[single]=$(awk "BEGIN{printf \"%.2f\", ($t1-$t0)/1000}")
for n in 1 2 4; do
  t0=$(now_ms); run_dist "$n" "$work/dist.$n.txt"; t1=$(now_ms)
  secs[w$n]=$(awk "BEGIN{printf \"%.2f\", ($t1-$t0)/1000}")
  if ! diff -q "$work/base.txt" "$work/dist.$n.txt" >/dev/null; then
    echo "FATAL: $n-worker stdout differs from the single-process run" >&2
    diff "$work/base.txt" "$work/dist.$n.txt" >&2 || true
    exit 1
  fi
done
wait # let the last run's workers drain

ratio() { awk "BEGIN{printf \"%.2f\", $2/$1}"; }
cores=$(nproc)
cat >"$out" <<JSON
{
  "method": "full figure grid (-fig all -ops $ops), wall clock; distributed runs use one coordinator plus N single-slot hmcsweepd processes; stdout verified byte-identical to the single-process run",
  "cores": $cores,
  "ops": $ops,
  "seconds": {
    "single_process": ${secs[single]},
    "coord_1_worker": ${secs[w1]},
    "coord_2_workers": ${secs[w2]},
    "coord_4_workers": ${secs[w4]}
  },
  "ratio_vs_single": {
    "coord_1_worker": $(ratio "${secs[single]}" "${secs[w1]}"),
    "coord_2_workers": $(ratio "${secs[single]}" "${secs[w2]}"),
    "coord_4_workers": $(ratio "${secs[single]}" "${secs[w4]}")
  }
}
JSON
