// DenseTensor for qubit-index tensor networks.
//
// Every dimension has extent 2 (the paper's networks have w(e) = 2 for all
// edges); an index is identified by its network edge id. Layout is
// row-major with ixs[0] slowest-varying, so axis d of a rank-r tensor
// occupies bit (r-1-d) of the linear offset. Elements are complex<float> —
// the paper's single-precision configuration; amplitudes are accumulated in
// complex<double> at the top level.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "util/aligned_alloc.hpp"

namespace ltns::exec {

using cfloat = std::complex<float>;

// Payload alignment: every Tensor's storage starts on a 64-byte boundary so
// the SIMD kernels and device uploads never take an unaligned path.
inline constexpr size_t kTensorAlignment = 64;
static_assert(kTensorAlignment % alignof(cfloat) == 0 &&
                  (kTensorAlignment & (kTensorAlignment - 1)) == 0,
              "tensor alignment must be a power of two multiple of the element alignment");
using AlignedCfloatVec = std::vector<cfloat, util::AlignedAllocator<cfloat, kTensorAlignment>>;

class Tensor {
 public:
  Tensor() = default;
  // Zero-initialized tensor over the given (edge-id) indices.
  explicit Tensor(std::vector<int> ixs);
  // Copies `data` into aligned storage (the single data constructor keeps
  // brace-initialized payloads unambiguous).
  Tensor(std::vector<int> ixs, std::vector<cfloat> data);

  static Tensor scalar(cfloat v) {
    Tensor t(std::vector<int>{});
    t.data_[0] = v;
    return t;
  }

  int rank() const { return int(ixs_.size()); }
  size_t size() const { return data_.size(); }
  const std::vector<int>& ixs() const { return ixs_; }
  const AlignedCfloatVec& data() const { return data_; }
  AlignedCfloatVec& data() { return data_; }
  cfloat* raw() { return data_.data(); }
  const cfloat* raw() const { return data_.data(); }

  // Axis position of edge id `edge`, or -1.
  int axis_of(int edge) const;
  // Bit position (from LSB) of axis d in the linear offset.
  int bit_of_axis(int d) const { return rank() - 1 - d; }

  cfloat at(const std::vector<int>& bits) const;
  void set(const std::vector<int>& bits, cfloat v);

  // Returns the rank-1 sub-tensor with `edge` fixed to `bit`.
  Tensor fixed(int edge, int bit) const;
  // Fixes several edges at once; `bits` holds one bit per entry of `edges`.
  // Edges not present in this tensor are ignored (their bit is irrelevant
  // here; slicing fixes them globally).
  Tensor fixed_all(const std::vector<int>& edges, uint64_t bits) const;

  // Single-pass strided gather: like fixed_all but O(output size) — one
  // contiguous-block copy per stride run. This is the DMA-get primitive of
  // the fused executor (§5.2); `block_elems_out` (optional) receives the
  // contiguous granularity in elements.
  Tensor gather_fixed(const std::vector<int>& edges, uint64_t bits,
                      size_t* block_elems_out = nullptr) const;

  // Releases the payload (used by executors to bound live memory).
  void drop() { data_.clear(); data_.shrink_to_fit(); }

  // Frobenius norm, squared (double accumulation).
  double norm2() const;

 private:
  std::vector<int> ixs_;
  AlignedCfloatVec data_;
};

// Random tensor with unit-normal entries (tests, benchmarks).
Tensor random_tensor(std::vector<int> ixs, uint64_t seed);

// Max |a-b| over elements; tensors must have identical index *order*.
double max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace ltns::exec
