#!/usr/bin/env bash
# Launches an N-peer p2pdb_peerd fleet (one OS process per peer) and drives
# it to the global update fixpoint with p2pdb_fleetctl twice: a first drive
# leaves the fleet running, and a second controller takes it over, drives
# update session 2, verifies every peer's database against the in-process
# oracle and shuts the fleet down.
#
#   scripts/run_fleet.sh [nodes] [dir]
#
#   nodes  fleet size (default 8)
#   dir    working directory for configs/logs/data (default: a fresh mktemp
#          dir, kept on failure for debugging, removed on success)
#
# Environment:
#   BUILD_DIR   build tree holding p2pdb_peerd / p2pdb_fleetctl (default: build)
#   RECORDS     records per node for the generated workload (default: 100)
#   TIMEOUT_MS  fleetctl drive timeout (default: 60000)
set -euo pipefail

NODES="${1:-8}"
BUILD_DIR="${BUILD_DIR:-build}"
RECORDS="${RECORDS:-100}"
TIMEOUT_MS="${TIMEOUT_MS:-60000}"

PEERD="$BUILD_DIR/p2pdb_peerd"
FLEETCTL="$BUILD_DIR/p2pdb_fleetctl"
for bin in "$PEERD" "$FLEETCTL"; do
  if [[ ! -x "$bin" ]]; then
    echo "run_fleet.sh: $bin not found (build first, or set BUILD_DIR)" >&2
    exit 2
  fi
done

CLEAN_DIR=0
if [[ $# -ge 2 ]]; then
  DIR="$2"
  mkdir -p "$DIR"
else
  DIR="$(mktemp -d -t p2pdb_fleet.XXXXXX)"
  CLEAN_DIR=1
fi

echo "== generating $NODES-peer fleet in $DIR"
"$FLEETCTL" gen --out "$DIR" --nodes "$NODES" --records "$RECORDS"

pids=()
cleanup() {
  # Belt and braces: daemons normally exit on the kShutdown frame the drive
  # sends; anything still alive (driver failure) is torn down here.
  for pid in "${pids[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

echo "== launching $NODES daemons"
for conf in "$DIR"/peer*.conf; do
  "$PEERD" --config "$conf" >"${conf%.conf}.log" 2>&1 &
  pids+=("$!")
done

echo "== driving fleet to fixpoint, leaving it running"
"$FLEETCTL" drive --dir "$DIR" --timeout "$TIMEOUT_MS" --no-shutdown

echo "== re-driving the running fleet from a new controller"
"$FLEETCTL" drive --dir "$DIR" --timeout "$TIMEOUT_MS" --session 2 --verify

echo "== waiting for daemons to exit"
fail=0
for pid in "${pids[@]}"; do
  if ! wait "$pid"; then
    fail=1
  fi
done
pids=()
if [[ "$fail" -ne 0 ]]; then
  echo "run_fleet.sh: a daemon exited abnormally (logs in $DIR)" >&2
  exit 1
fi

echo "== fleet converged and shut down cleanly"
if [[ "$CLEAN_DIR" -eq 1 ]]; then
  rm -rf "$DIR"
else
  echo "   artifacts (configs, logs, obs.json dumps) in $DIR"
fi
