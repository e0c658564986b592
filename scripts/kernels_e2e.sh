#!/usr/bin/env bash
# End-to-end check of the kernel verification contract (docs/kernels.md):
#
#   1. the fp32 simd backend must print amplitude lines
#      BYTE-identical to the host backend — solo, across every forced
#      SIMD tier (LTNS_FORCE_ISA clamps to hardware, so the avx512 leg
#      degrades safely on machines without it), under elastic
#      multi-process sharding, and through the job server;
#   2. bf16 mixed precision must be DETERMINISTIC — byte-identical
#      across backends, ISA tiers, process counts, and transports —
#      while differing from fp32 (proof the mode engaged) and staying
#      within the scale-relative ULP bound vs the fp32 reference
#      (scripts/compare_amps.py --compare-mode=ulp:N, the same metric as
#      util::ulp_distance_at_scale and the pinned corpus in
#      tests/test_kernels_parity.cpp).
#
# Usage: scripts/kernels_e2e.sh [path-to-ltns_cli] [port]
set -euo pipefail

CLI=${1:-build/ltns_cli}
PORT=${2:-39427}
CMP="$(dirname "$0")/compare_amps.py"
# Amplitudes are sums over many bf16-rounded contractions, so the bound
# sits well above the single-GEMM corpus pins (~2^15) with slack for
# cancellation between slices: 2^20 spacing units at the fp32 scale.
ULP_BOUND=1048576
DIR=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null; rm -rf "$DIR"' EXIT

BITS=010101010
"$CLI" gen 3 3 8 5 > "$DIR/c.qc"

amp() { # capture-file, then extra flags; --target=4 forces real slicing
  local out=$1; shift
  "$CLI" --no-telemetry --target=4 amp "$DIR/c.qc" $BITS "$@" \
    | grep '^amplitude' > "$out"
}

echo "== registry lists the simd tier =="
"$CLI" --backend=help | tee "$DIR/help.txt" | grep -q '^  simd' \
  || { echo "simd backend missing from --backend=help"; exit 1; }
grep -q 'isa=' "$DIR/help.txt" || { echo "no isa= in backend help"; exit 1; }

echo "== fp32 reference (host) =="
amp "$DIR/host.txt" --backend=host
cat "$DIR/host.txt"

echo "== fp32 simd bitwise vs host (solo) =="
amp "$DIR/fp32_simd.txt" --backend=simd
python3 "$CMP" --compare-mode=bitwise "$DIR/host.txt" "$DIR/fp32_simd.txt"

echo "== fp32 simd bitwise under every forced ISA tier =="
for isa in portable avx2 avx512 neon; do
  LTNS_FORCE_ISA=$isa amp "$DIR/fp32_simd_$isa.txt" --backend=simd
  python3 "$CMP" --compare-mode=bitwise "$DIR/host.txt" "$DIR/fp32_simd_$isa.txt"
done

echo "== fp32 simd bitwise under elastic multi-process sharding =="
amp "$DIR/fp32_elastic.txt" --backend=simd --processes=2 --elastic
python3 "$CMP" --compare-mode=bitwise "$DIR/host.txt" "$DIR/fp32_elastic.txt"

echo "== bf16: deterministic across backends and tiers (solo) =="
for b in host simd; do
  amp "$DIR/bf16_$b.txt" --backend=$b --precision=bf16
done
python3 "$CMP" --compare-mode=bitwise "$DIR/bf16_host.txt" "$DIR/bf16_simd.txt"
LTNS_FORCE_ISA=portable amp "$DIR/bf16_portable.txt" --backend=simd+bf16
python3 "$CMP" --compare-mode=bitwise "$DIR/bf16_host.txt" "$DIR/bf16_portable.txt"

echo "== bf16: deterministic under elastic multi-process sharding =="
amp "$DIR/bf16_elastic.txt" --precision=bf16 --processes=2 --elastic
python3 "$CMP" --compare-mode=bitwise "$DIR/bf16_host.txt" "$DIR/bf16_elastic.txt"

echo "== bf16: differs from fp32 but stays ULP-bounded =="
if python3 "$CMP" --compare-mode=bitwise "$DIR/host.txt" "$DIR/bf16_host.txt" \
    > /dev/null 2>&1; then
  echo "bf16 run produced fp32 bits — mixed precision never engaged"; exit 1
fi
python3 "$CMP" --compare-mode=ulp:$ULP_BOUND "$DIR/host.txt" "$DIR/bf16_host.txt"

echo "== serve transport: fp32 bitwise, bf16 deterministic + bounded =="
"$CLI" serve $PORT --processes=2 --backend=simd > "$DIR/server.log" 2>&1 &
SRV=$!
sleep 0.5
"$CLI" worker 127.0.0.1 $PORT > "$DIR/w0.log" 2>&1 &
"$CLI" worker 127.0.0.1 $PORT > "$DIR/w1.log" 2>&1 &
sleep 0.5
"$CLI" submit 127.0.0.1 $PORT "$DIR/c.qc" $BITS --target=4 --job-name=fp32
"$CLI" submit 127.0.0.1 $PORT "$DIR/c.qc" $BITS --target=4 --precision=bf16 --job-name=bf16
"$CLI" result 127.0.0.1 $PORT 1 --wait | grep '^amplitude' > "$DIR/serve_fp32.txt"
"$CLI" result 127.0.0.1 $PORT 2 --wait | grep '^amplitude' > "$DIR/serve_bf16.txt"
python3 "$CMP" --compare-mode=bitwise "$DIR/host.txt" "$DIR/serve_fp32.txt"
python3 "$CMP" --compare-mode=bitwise "$DIR/bf16_host.txt" "$DIR/serve_bf16.txt"
python3 "$CMP" --compare-mode=ulp:$ULP_BOUND "$DIR/host.txt" "$DIR/serve_bf16.txt"
"$CLI" shutdown 127.0.0.1 $PORT
wait $SRV

echo "kernels e2e PASSED"
