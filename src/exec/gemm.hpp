// Complex single-precision GEMM: C = A · B, row-major, no transposes
// (operands are pre-permuted by the TTGT pipeline, §5).
//
// The packed kernel mirrors the paper's 4x4 complex micro-kernel design
// (§5.1): panels of A and B are packed, a 4x4 accumulator tile lives in
// registers, and the K loop runs innermost. For the narrow shapes that
// dominate quantum-circuit contractions (two of m, n, k < 16) GEMM is
// bandwidth-bound — Θ(MNK) ≈ Θ(MN + NK + MK) — which is exactly the regime
// the fused executor (secondary slicing) rescues.
#pragma once

#include <cstdint>

#include "exec/tensor.hpp"
#include "util/parallel.hpp"

namespace ltns::exec {

// Reference triple loop.
void cgemm_naive(int m, int n, int k, const cfloat* a, const cfloat* b, cfloat* c);

// Blocked micro-kernel implementation; `pool` (optional) parallelizes over
// row panels. C is overwritten.
void cgemm(int m, int n, int k, const cfloat* a, const cfloat* b, cfloat* c,
           ThreadPool* pool = nullptr);

// Flop count convention used throughout (complex MAC = 8 real flops).
inline double gemm_flops(double m, double n, double k) { return 8.0 * m * n * k; }

}  // namespace ltns::exec
