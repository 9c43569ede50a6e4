#!/usr/bin/env bash
# No fused multiply-add in the tensor kernels: ops.cpp is compiled with
# -ffp-contract=off because an FMA rounds a * b + c once where the
# exactness contract (tensor/ops.h) rounds twice. The bit tests only run
# the instruction-set variants the test machine supports, so a contraction
# in the AVX-512 build would pass them on a machine without AVX-512; this
# reads the object's disassembly instead, which covers every variant.
# Usage: check_no_fma.sh [BUILD_DIR]   (default: build)
set -euo pipefail
build="${1:-build}"

obj="$(find "$build" -path '*fedtrip.dir*' -name 'ops.cpp.o' | head -n 1)"
[[ -n "$obj" ]] || { echo "no ops.cpp.o under $build"; exit 1; }

listing="$(objdump -d --no-show-raw-insn "$obj")"
# vfmadd*, vfmsub*, vfnmadd*, vfnmsub* (vfmaddsub/vfmsubadd included).
fma=$'\tvfn?m(add|sub)'
count="$(grep -cE "$fma" <<< "$listing" || true)"
# Separate multiplies and adds: with none, the check would pass vacuously.
plain="$(grep -cE $'\tv(mul|add)ps ' <<< "$listing" || true)"
echo "$obj: $count fused multiply-add instructions, $plain vmulps/vaddps"
if (( count > 0 )); then
  grep -m 5 -E "$fma" <<< "$listing"
  exit 1
fi
(( plain > 0 )) || { echo "no vmulps/vaddps in $obj"; exit 1; }
