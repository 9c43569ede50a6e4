#!/usr/bin/env bash
# Distributed smoke: 2 spawned worker processes are bit-identical to the
# in-process engine — with the raw socket path, with the Setup-negotiated
# wire codec compressing dispatch/result frames, and as an elastic fleet
# (one dispatch per frame, spawned children dialing the rejoin door).
# Usage: smoke_distributed.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "${1:-build}"

./run_experiment --method FedTrip --rounds 3 --scale 0.05 \
  --schedule deadline --compressor ef+topk --delta \
  --network straggler --compute-profile bimodal \
  --availability markov --out inproc_dist.csv
./run_experiment --method FedTrip --rounds 3 --scale 0.05 \
  --schedule deadline --compressor ef+topk --delta \
  --network straggler --compute-profile bimodal \
  --availability markov --workers-remote 2 --out twoproc.csv
diff inproc_dist.csv twoproc.csv

# Same run with the topk wire codec on the socket: frames shrink, the
# CSV must not move (verify-and-fallback never changes a float).
./run_experiment --method FedTrip --rounds 3 --scale 0.05 \
  --schedule deadline --compressor ef+topk --delta \
  --network straggler --compute-profile bimodal \
  --availability markov --workers-remote 2 --wire-codec topk \
  --out twoproc_codec.csv
diff inproc_dist.csv twoproc_codec.csv

# And the spawned pool as an elastic fleet: no chaos, same CSV.
./run_experiment --method FedTrip --rounds 3 --scale 0.05 \
  --schedule deadline --compressor ef+topk --delta \
  --network straggler --compute-profile bimodal \
  --availability markov --workers-remote 2 --elastic \
  --out twoproc_elastic.csv
diff inproc_dist.csv twoproc_elastic.csv
