#!/usr/bin/env bash
# One-command repo health check: build, tests, syntactic lint, typed
# lint, bench smoke, then the thresholded bench gate.
#
# Each stage fails with a distinct exit code so a caller (or CI log)
# can attribute the failure without scraping output:
#   10 build        11 tests          12 syntactic lint
#   13 typed lint   14 bench smoke    15 bench gate
#   16 scale smoke  17 serve smoke    18 cache smoke
#   19 coop smoke   20 churn smoke
#
# The bench gate compares a short run against the committed
# BENCH_baseline.json with tools/bench_compare, whose one gate table
# holds every tier's thresholds (micro ns/op: 25%).  bench_compare
# exits 1 on any gated regression (2 on a configuration error), and
# the gate stage then fails with 15.  ./tools/check.sh --advisory keeps
# the comparison report but never fails on it — the escape hatch for
# noisy shared machines.
#
# ./tools/check.sh --scale-smoke runs ONLY the scale-tier smoke: a
# streamed n=32768 construction through `tapestry_sim scale` (<60s),
# JSON round-tripped through the bench parser and — when a committed
# BENCH_scale.json has a matching size — gated by bench_compare's
# scale thresholds.  Kept out of the default stage list because a
# minute of mesh building is too slow for the inner edit loop.
#
# ./tools/check.sh --serve-smoke runs ONLY the serving-runtime smoke:
# a n=4096 mesh serving 1e5 Zipf requests through `tapestry_sim serve`
# (<60s), JSON round-tripped through the bench parser and — when a
# committed BENCH_serve.json has a matching workload point — gated by
# bench_compare's serve, cache and coop rows (throughput down, p99 up,
# messages per request up, hit rate down).  The run's `signature md5`
# (the hash of Driver.signature: every counter and the virtual-latency
# histogram) must also equal the constant in its row, so an engine
# change that moves serve behaviour at n=4096 fails here, not only in
# the small unit pins.  A change meant to move behaviour re-pins it.
# The run is then repeated with --domains 2 (the first uses the CLI's
# default of one domain), and that run must print the same pinned
# signature: a serve run's results may not depend on the domain count.
# The cache and coop smokes below repeat their runs the same way.
#
# ./tools/check.sh --cache-smoke runs ONLY the object-cache smoke: the
# same n=4096 serve with a per-node cache attached and --audit, so the
# quiesced mesh passes the full invariant audit INCLUDING the cache
# coherence check, and the JSON must show a positive cache_hit_rate.
# Its `signature md5` is pinned like the serve smoke's, so an engine
# change that moves the cache path fails here.
#
# ./tools/check.sh --coop-smoke runs ONLY the cooperative-cache smoke:
# the cached n=4096 serve with --coop 1 and --audit, so the quiesced
# mesh passes the audit INCLUDING the hint-sketch coherence extension,
# and the JSON must show positive hint_fills (the exchange actually
# moved hints between nodes, not just compiled).  Its `signature md5`
# is pinned too, covering the hint exchange's order, and so is its
# `footprint_bytes` (the memory ledger's sum, deterministic for a
# seed): the serve smoke runs zero-way, so this is the pin that sees
# the bytes of a cache way, and of a pointer record, move.
#
# ./tools/check.sh --churn-smoke runs ONLY the churned serve smoke: the
# coop smoke's run with 20 node kills and 20 joins per virtual second,
# and --audit, so the quiesced mesh must pass the audit after churn,
# and the JSON must show a positive dead_letter count (messages met
# killed nodes).  Its `signature md5` is pinned at --domains 1 and 2
# like the others, so a change to the dead-letter path (delivery,
# drain and service end at a killed node, the kill's queue sweep)
# that moves behaviour fails here.
#
# The five smokes are rows of one table (`smokes` below) driven by one
# runner; with several smoke flags only the first row in table order
# runs.
set -euo pipefail
cd "$(dirname "$0")/.."

# One row per smoke stage, in the order they are tried:
#   flag | exit code | tapestry_sim arguments | JSON field that must be
#   positive (- for none) | committed file to gate against with
#   bench_compare (- for none) | expected `signature md5` of the run
#   (- for none) | expected `footprint_bytes` of the run (- for none) |
#   what the stage covers
smokes=(
  "--churn-smoke|20|serve --size 4096 --requests 100000 --cache-size 32 --coop 1 --kill-rate 20 --join-rate 20 --audit|dead_letter|-|5ea3fce963c72e361444bc0aab442d44|-|churn smoke (n=4096 serve, cache=32 coop, 20 kills + 20 joins per s, audit)"
  "--coop-smoke|19|serve --size 4096 --requests 100000 --cache-size 32 --coop 1 --audit|hint_fills|-|65fafcb271350fa25ec934b3c7baaab5|33190912|coop smoke (n=4096 serve, cache=32 coop, audit incl. hint coherence)"
  "--cache-smoke|18|serve --size 4096 --requests 100000 --cache-size 32 --audit|cache_hit_rate|-|fc218e366ea36a3e24557f7e5ac9edff|-|cache smoke (n=4096 serve, cache=32, audit incl. coherence)"
  "--serve-smoke|17|serve --size 4096 --requests 100000|-|BENCH_serve.json|28d0572310d6352cea100c04c8991dc8|-|serve smoke (n=4096, 1e5 Zipf requests + JSON round-trip)"
  "--scale-smoke|16|scale --sizes 32768 --objects 200 --queries 400|-|BENCH_scale.json|-|-|scale smoke (n=32768 streamed build + JSON round-trip)"
)

advisory=""
selected=" "
for arg in "$@"; do
  case "$arg" in
    --advisory) advisory="--advisory" ;;
    --scale-smoke|--serve-smoke|--cache-smoke|--coop-smoke|--churn-smoke) selected="$selected$arg " ;;
    *) echo "usage: tools/check.sh [--advisory] [--scale-smoke] [--serve-smoke] [--cache-smoke] [--coop-smoke] [--churn-smoke]" >&2; exit 2 ;;
  esac
done

# The `signature md5` a run printed (empty if none).
signature() {
  grep -o 'signature md5 [0-9a-f]*' "$1" | head -1 | sed 's/.* //' || true
}

# Run one smoke row and exit: the run itself (--audit rows fail on any
# invariant violation), the JSON round-trip through the bench parser,
# the positive-field check (the stage's mechanism actually did work,
# not just compiled), the signature check at one domain and at two,
# the footprint check, then the gate against the committed baseline.
run_smoke() {
  local code=$1 args=$2 field=$3 gate=$4 md5=$5 fp=$6 what=$7 v got
  dune build bin/tapestry_sim.exe bench/main.exe \
    tools/bench_compare/bench_compare.exe || exit 10
  tmp_smoke=$(mktemp /tmp/smoke.XXXXXX.json)
  tmp_out=$(mktemp /tmp/smoke.XXXXXX.txt)
  trap 'rm -f "$tmp_smoke" "$tmp_out"' EXIT
  # $args is a word list: split it
  # shellcheck disable=SC2086
  dune exec bin/tapestry_sim.exe -- $args --json "$tmp_smoke" \
    | tee "$tmp_out" || exit "$code"
  dune exec bench/main.exe -- --check-json "$tmp_smoke" || exit "$code"
  if [ "$md5" != - ]; then
    got=$(signature "$tmp_out")
    [ "$got" = "$md5" ] || {
      echo "check: $what signature md5 ${got:-missing}, expected $md5" >&2
      exit "$code"
    }
    # shellcheck disable=SC2086
    dune exec bin/tapestry_sim.exe -- $args --domains 2 --json - \
      > "$tmp_out" || exit "$code"
    got=$(signature "$tmp_out")
    [ "$got" = "$md5" ] || {
      echo "check: $what signature md5 at --domains 2 ${got:-missing}, expected $md5" >&2
      exit "$code"
    }
  fi
  if [ "$fp" != - ]; then
    got=$(grep -o '"footprint_bytes": *[0-9]*' "$tmp_smoke" | head -1 | sed 's/.*: *//' || true)
    [ "$got" = "$fp" ] || {
      echo "check: $what footprint_bytes ${got:-missing}, expected $fp" >&2
      exit "$code"
    }
  fi
  if [ "$field" != - ]; then
    v=$(grep -o "\"$field\": *[0-9.eE+-]*" "$tmp_smoke" | head -1 | sed 's/.*: *//' || true)
    awk -v v="${v:-0}" 'BEGIN { exit (v > 0 ? 0 : 1) }' || {
      echo "check: $what found no positive $field (got '${v:-missing}')" >&2
      exit "$code"
    }
  fi
  if [ "$gate" != - ] && [ -f "$gate" ]; then
    dune exec tools/bench_compare/bench_compare.exe -- \
      $advisory "$gate" "$tmp_smoke" || exit "$code"
  fi
  echo "check: $what clean"
  exit 0
}

for row in "${smokes[@]}"; do
  IFS='|' read -r flag code args field gate md5 fp what <<< "$row"
  case "$selected" in
    *" $flag "*) run_smoke "$code" "$args" "$field" "$gate" "$md5" "$fp" "$what" ;;
  esac
done

dune build || exit 10
dune runtest || exit 11
dune build @lint-syntax || exit 12
dune build @lint-typed || exit 13
# Bench smoke: microbenches under a tiny quota + BENCH_results JSON
# round-trip through the parser.
dune build @bench-smoke || exit 14

if [ -f BENCH_baseline.json ]; then
  tmp_bench=$(mktemp /tmp/bench_current.XXXXXX.json)
  trap 'rm -f "$tmp_bench"' EXIT
  dune exec bench/main.exe -- --no-tables --quota 0.5 --json "$tmp_bench" \
    > /dev/null 2>&1 || exit 14
  dune exec tools/bench_compare/bench_compare.exe -- \
    $advisory BENCH_baseline.json "$tmp_bench" || exit 15
fi

echo "check: build + tests + lint (syntactic, typed) + bench gate all clean"
