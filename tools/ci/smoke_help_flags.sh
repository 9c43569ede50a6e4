#!/usr/bin/env bash
# Help smoke: --help must document every registered flag (the flag table
# and the argv handlers drift-check each other at startup; this catches
# a flag added to neither), and a malformed value or a config the engine
# rejects exits 2 with a message instead of running or aborting.
# Usage: smoke_help_flags.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "${1:-build}"

# One invocation, then grep the captured text: `--help | grep -q` would
# trip pipefail when grep's early exit SIGPIPEs the binary.
help_text="$(./run_experiment --help)"
for flag in --schedule --overselect --buffer --staleness-alpha \
    --delta --deadline --compute-profile --availability \
    --load-model --workers-remote --connect \
    --worker-bin --obs --trace-out --metrics-out \
    --elastic --heartbeat-interval --worker-deadline \
    --client-data --shard-samples \
    --no-participation --no-partition-stats \
    --wire-codec \
    --metrics-interval --metrics-ndjson --flight-recorder; do
  grep -q -- "$flag" <<< "$help_text" \
    || { echo "--help omits $flag"; exit 1; }
done

worker_help="$(./fl_worker --help)"
for flag in --connect --listen --max-sessions \
    --chaos-kill-after --chaos-drop-after --chaos-delay-ms \
    --flight-recorder; do
  grep -q -- "$flag" <<< "$worker_help" \
    || { echo "fl_worker --help omits $flag"; exit 1; }
done
echo "help text covers every checked flag"

# expect_usage_error EXPECTED_MESSAGE CMD...: CMD must exit 2 and print
# EXPECTED_MESSAGE on stderr.
expect_usage_error() {
  local want="$1"; shift
  local rc=0 err
  err="$("$@" 2>&1 >/dev/null)" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "$* exited $rc, want 2"; exit 1
  fi
  grep -qF -- "$want" <<< "$err" \
    || { echo "$* printed '$err', want '$want'"; exit 1; }
}
expect_usage_error "--rounds: expected a whole number, got 'abc'" \
  ./run_experiment --rounds abc --scale 0.01
expect_usage_error "clients_per_round must be in [1, num_clients]" \
  ./run_experiment --per-round 0 --scale 0.05
expect_usage_error "--model: unknown architecture: bogus" \
  ./run_experiment --model bogus
expect_usage_error "cannot open for read: missing.bin" \
  ./run_experiment --model mlp --scale 0.05 --load-model missing.bin
expect_usage_error "--listen: expected a whole number up to 65535, got 'abc'" \
  ./fl_worker --listen abc
echo "malformed values exit 2 with a message"
