#!/usr/bin/env bash
# Builds the Release preset and runs one JSON-emitting bench harness,
# writing a BENCH_<name>.json with per-bench wall-clock and throughput.
#
#   scripts/run_bench.sh [OUT.json] [--bench NAME] [extra bench args...]
#
# --bench selects which harness runs (so a single suite, e.g. the recovery
# bench, can be run/emitted without the full update suite):
#   main      end-to-end update suite (default; emits BENCH_p2pdb.json)
#   recovery  WAL append / recovery / crash-restart suite (emits BENCH_recovery.json)
#   tcp       frame codec + loopback socket runtime suite (emits BENCH_tcp.json
#             — including the `coalescing` section: frames-per-update with and
#             without batching, and the exact-ack fixpoint detection latency
#             — plus obs.json, the observability snapshot of the fully traced
#             durable update: metrics registry + trace reports)
# Extra args (e.g. --filter SUBSTR, --repeat N) are passed through.
#
# Env: P2PDB_BENCH_REPEAT (default 2), P2PDB_BENCH_FULL=1 for paper-scale
# record counts.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

# First arg is the output file unless it is a flag.
OUT=""
if [[ $# -gt 0 && $1 != --* ]]; then
  OUT="$1"
  shift
fi

BENCH="main"
ARGS=()
while [[ $# -gt 0 ]]; do
  if [[ $1 == --bench ]]; then
    [[ $# -ge 2 ]] || { echo "error: --bench needs a name" >&2; exit 2; }
    BENCH="$2"
    shift 2
  else
    ARGS+=("$1")
    shift
  fi
done

case "$BENCH" in
  main)     TARGET=bench_main;     DEFAULT_OUT=BENCH_p2pdb.json ;;
  recovery) TARGET=bench_recovery; DEFAULT_OUT=BENCH_recovery.json ;;
  tcp)      TARGET=bench_tcp;      DEFAULT_OUT=BENCH_tcp.json ;;
  *)
    echo "error: unknown bench '$BENCH' (expected: main, recovery, tcp)" >&2
    exit 2
    ;;
esac
OUT="${OUT:-$DEFAULT_OUT}"

# The tcp suite also dumps the observability snapshot next to its bench
# JSON.
if [[ "$BENCH" == tcp ]]; then
  ARGS+=(--obs "${OUT%.json}_obs.json")
fi

cmake --preset release
cmake --build --preset release -j "$(nproc)" --target "$TARGET"

"./build/release/$TARGET" --out "$OUT" \
    --repeat "${P2PDB_BENCH_REPEAT:-2}" "${ARGS[@]+"${ARGS[@]}"}"

case "$OUT" in
  /*) echo "bench results: $OUT" ;;
  *)  echo "bench results: $ROOT/$OUT" ;;
esac
