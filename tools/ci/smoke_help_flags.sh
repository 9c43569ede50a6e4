#!/usr/bin/env bash
# Help smoke: --help must document every registered flag (the flag table
# and the argv handlers drift-check each other at startup; this catches
# a flag added to neither).
# Usage: smoke_help_flags.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "${1:-build}"

# One invocation, then grep the captured text: `--help | grep -q` would
# trip pipefail when grep's early exit SIGPIPEs the binary.
help_text="$(./run_experiment --help)"
for flag in --schedule --overselect --buffer --staleness-alpha \
    --delta --deadline --compute-profile --availability \
    --byte-exact --load-model --workers-remote --connect \
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
