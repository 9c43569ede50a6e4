#!/usr/bin/env bash
# Bench smoke: every bench with a JSON emitter runs at CI scale and its
# BENCH_* artifact passes the schema gate before upload; bench_kernels
# runs once with a short minimum time.
#
# bench_distributed's flags here MUST match the committed baseline under
# tests/data/bench/ — the perf gate (compare_bench.py) diffs the two and
# only runs with identical flags are comparable.
# Usage: smoke_bench.sh [BUILD_DIR]   (default: build)
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
cd "${1:-build}"

./bench_heterogeneity --rounds 3 --scale 0.05 --json
./bench_sched_async --rounds 3 --scale 0.05 --json
./bench_comm_compression --rounds 2 --scale 0.05 --json
./bench_distributed --rounds 2 --scale 0.02 --json
./bench_scale --rounds 2 --scale 0.02 --json
# The kernel micro-benchmarks, once each (google-benchmark builds only).
if [ -x ./bench_kernels ]; then
  ./bench_kernels --benchmark_min_time=0.01
else
  echo "bench_kernels not built (google-benchmark missing); skipped"
fi

python3 "$ROOT/tools/ci/check_bench_json.py" \
  bench_heterogeneity.json bench_sched_async.json \
  bench_comm_compression.json bench_distributed.json bench_scale.json

# The perf gate itself is exercised both ways: the fresh run must pass
# against the committed baseline (green — the real gate runs as its own
# CI step too), and a synthetically shifted per-phase share must FAIL —
# proving the share class actually bites, not just parses.
python3 "$ROOT/tools/ci/compare_bench.py" \
  "$ROOT/tests/data/bench/bench_distributed.json" bench_distributed.json
python3 - <<'EOF'
import json
d = json.load(open("bench_distributed.json"))
d["phases"]["serialize_share"] = min(1.0, d["phases"]["serialize_share"] + 0.5)
json.dump(d, open("bench_distributed_perturbed.json", "w"), indent=1)
EOF
if python3 "$ROOT/tools/ci/compare_bench.py" \
    "$ROOT/tests/data/bench/bench_distributed.json" \
    bench_distributed_perturbed.json; then
  echo "perf gate failed to flag a +0.5 phase-share shift"; exit 1
fi
echo "perf gate red path confirmed (share shift flagged)"
