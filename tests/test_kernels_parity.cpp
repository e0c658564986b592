// Property-based parity suite for the vectorized kernel tiers (PR: simd
// device backend).
//
// Two contracts are enforced here:
//   * fp32: every compiled ISA tier and every registered backend reproduces
//     the host kernels BITWISE — memcmp, no tolerance — across fuzzed
//     shapes, lane tails that do not fill a vector register, K extents that
//     straddle the panel width, and deliberately misaligned operands.
//   * bf16 mixed precision: deterministic (bitwise identical across tiers,
//     backends and pool widths), and its distance from the fp32 reference
//     is pinned by a checked-in ULP-regression corpus. A pin mismatch in
//     EITHER direction fails: growing error is a broken kernel, shrinking
//     error is a changed numeric contract that must be re-pinned on purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "device/backend.hpp"
#include "device/cpu_probe.hpp"
#include "exec/gemm.hpp"
#include "exec/permute.hpp"
#include "exec/simd_kernels.hpp"
#include "exec/tensor.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/ulp.hpp"

namespace ltns::exec {
namespace {

using test::bitwise_equal;

// Exact-arithmetic random operands: 16-bit integers scaled by a power of
// two. Every platform computes these identically from the xoshiro bit
// stream (no libm involved), which the pinned ULP corpus depends on.
cfloat exact_uniform(Rng& rng) {
  const uint64_t bits = rng.next_u64();
  const float re = float(int64_t(bits & 0xffff) - 32768) * 0x1.0p-10f;
  const float im = float(int64_t((bits >> 16) & 0xffff) - 32768) * 0x1.0p-10f;
  return {re, im};
}

AlignedCfloatVec random_buf(size_t n, uint64_t seed) {
  Rng rng(seed);
  AlignedCfloatVec b(n);
  for (auto& v : b) v = exact_uniform(rng);
  return b;
}

bool same_bits(const cfloat* a, const cfloat* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(cfloat)) == 0;
}

std::vector<IsaTier> vector_tiers() {
  std::vector<IsaTier> out;
  for (IsaTier t : compiled_isa_tiers())
    if (t != IsaTier::kPortable) out.push_back(t);
  return out;
}

// --- fp32: direct kernel-level parity, every compiled tier ----------------

TEST(KernelsParityFp32, LaneTailsAndPanelEdgesBitwise) {
  uint64_t seed = 1;
  for (IsaTier tier : vector_tiers()) {
    const int lanes = int(isa_lanes(tier));
    for (int m : {1, 3, 4, 5, 11}) {
      for (int n : {1, lanes - 1, lanes, lanes + 1, 2 * lanes + 3, 37}) {
        for (int k : {1, 255, 256, 257, 513}) {
          auto a = random_buf(size_t(m) * k, seed++);
          auto b = random_buf(size_t(k) * n, seed++);
          AlignedCfloatVec want(size_t(m) * n), got(size_t(m) * n);
          cgemm(m, n, k, a.data(), b.data(), want.data());
          cgemm_simd(tier, Precision::kFp32, m, n, k, a.data(), b.data(), got.data());
          ASSERT_TRUE(same_bits(want.data(), got.data(), want.size()))
              << isa_name(tier) << " m=" << m << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(KernelsParityFp32, FuzzRandomShapesBitwise) {
  Rng rng(0xf00d);
  const auto tiers = vector_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no vector tier compiled for this arch";
  for (int trial = 0; trial < 60; ++trial) {
    const int m = rng.next_int(1, 40);
    const int n = rng.next_int(1, 70);
    const int k = rng.next_int(1, 600);
    const IsaTier tier = tiers[size_t(rng.next_below(tiers.size()))];
    auto a = random_buf(size_t(m) * k, 1000 + uint64_t(trial));
    auto b = random_buf(size_t(k) * n, 2000 + uint64_t(trial));
    AlignedCfloatVec want(size_t(m) * n), got(size_t(m) * n);
    cgemm(m, n, k, a.data(), b.data(), want.data());
    cgemm_simd(tier, Precision::kFp32, m, n, k, a.data(), b.data(), got.data());
    ASSERT_TRUE(same_bits(want.data(), got.data(), want.size()))
        << isa_name(tier) << " trial=" << trial << " m=" << m << " n=" << n << " k=" << k;
  }
}

TEST(KernelsParityFp32, MisalignedOperandsBitwise) {
  // The tiers promise bitwise parity for any validly-sized buffer, aligned
  // or not (all vector loads/stores are unaligned ops). Offset every
  // operand off the 64-byte grid by an odd element count.
  const int m = 13, n = 29, k = 301;
  for (IsaTier tier : vector_tiers()) {
    for (size_t off : {1u, 3u}) {
      auto a = random_buf(size_t(m) * k + off, 77);
      auto b = random_buf(size_t(k) * n + off, 78);
      AlignedCfloatVec want(size_t(m) * n + off), got(size_t(m) * n + off);
      cgemm(m, n, k, a.data() + off, b.data() + off, want.data() + off);
      cgemm_simd(tier, Precision::kFp32, m, n, k, a.data() + off, b.data() + off,
                 got.data() + off);
      ASSERT_TRUE(same_bits(want.data() + off, got.data() + off, size_t(m) * n))
          << isa_name(tier) << " off=" << off;
    }
  }
}

TEST(KernelsParityFp32, ParallelMatchesAcrossPoolWidths) {
  const int m = 120, n = 70, k = 300;
  auto a = random_buf(size_t(m) * k, 91);
  auto b = random_buf(size_t(k) * n, 92);
  AlignedCfloatVec want(size_t(m) * n);
  cgemm(m, n, k, a.data(), b.data(), want.data());
  for (IsaTier tier : vector_tiers()) {
    for (int workers : {1, 2, 3, 5}) {
      ThreadPool pool(workers);
      AlignedCfloatVec got(size_t(m) * n);
      cgemm_simd(tier, Precision::kFp32, m, n, k, a.data(), b.data(), got.data(), &pool);
      ASSERT_TRUE(same_bits(want.data(), got.data(), want.size()))
          << isa_name(tier) << " workers=" << workers;
    }
  }
}

// --- fp32: permute parity --------------------------------------------------

TEST(KernelsParityPermute, FuzzBitwiseAcrossTiersAndBlockSizes) {
  Rng rng(0xbeef);
  for (int trial = 0; trial < 40; ++trial) {
    const int rank = rng.next_int(2, 11);
    std::vector<int> ixs(static_cast<size_t>(rank), 0);
    for (int i = 0; i < rank; ++i) ixs[size_t(i)] = i;
    std::vector<int> new_ixs = ixs;
    for (int i = rank - 1; i > 0; --i)
      std::swap(new_ixs[size_t(i)], new_ixs[size_t(rng.next_int(0, i))]);
    if (new_ixs == ixs) std::swap(new_ixs[0], new_ixs[1]);
    auto t = random_tensor(ixs, 4000 + uint64_t(trial));
    auto want = permute(t, new_ixs);
    for (IsaTier tier : compiled_isa_tiers()) {
      auto got = permute_simd(tier, t, new_ixs);
      ASSERT_TRUE(bitwise_equal(want, got)) << isa_name(tier) << " trial=" << trial;
    }
  }
}

TEST(KernelsParityPermute, ElementGranularGatherPathBitwise) {
  // Moving the LAST axis forces block_elems == 1: the hardware-gather path.
  for (int rank : {3, 6, 10}) {
    std::vector<int> ixs(static_cast<size_t>(rank), 0);
    for (int i = 0; i < rank; ++i) ixs[size_t(i)] = i;
    std::vector<int> new_ixs = ixs;
    std::rotate(new_ixs.begin(), new_ixs.end() - 1, new_ixs.end());
    auto t = random_tensor(ixs, 500 + uint64_t(rank));
    auto want = permute(t, new_ixs);
    for (IsaTier tier : compiled_isa_tiers()) {
      auto got = permute_simd(tier, t, new_ixs);
      ASSERT_TRUE(bitwise_equal(want, got)) << isa_name(tier) << " rank=" << rank;
    }
  }
}

// --- backend-level parity: every registered backend vs host ---------------

TEST(KernelsParityBackends, GemmBitwiseAcrossAllSpecs) {
  Rng rng(0xabcd);
  for (const auto& info : device::available_backends()) {
    for (const char* suffix : {"", "+fp32", "+bf16"}) {
      const std::string spec = info.name + suffix;
      auto backend = device::make_backend(spec);
      auto host = device::make_backend("host" + std::string(suffix));
      for (int trial = 0; trial < 12; ++trial) {
        const int m = rng.next_int(1, 33);
        const int n = rng.next_int(1, 65);
        const int k = rng.next_int(1, 520);
        auto a = random_buf(size_t(m) * k, 7000 + uint64_t(trial));
        auto b = random_buf(size_t(k) * n, 8000 + uint64_t(trial));
        AlignedCfloatVec want(size_t(m) * n), got(size_t(m) * n);
        host->gemm(m, n, k, a.data(), b.data(), want.data(), nullptr, nullptr);
        backend->gemm(m, n, k, a.data(), b.data(), got.data(), nullptr, nullptr);
        ASSERT_TRUE(same_bits(want.data(), got.data(), want.size()))
            << spec << " m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(KernelsParityBackends, StemWindowBitwiseAcrossAllSpecs) {
  auto w0 = random_tensor({0, 1, 2, 3, 4, 5, 6, 7}, 61);
  std::vector<Tensor> branches;
  branches.push_back(random_tensor({0, 1, 100, 101}, 62));
  branches.push_back(random_tensor({100, 2, 102, 103}, 63));
  branches.push_back(random_tensor({101, 103, 104, 105}, 64));
  for (const char* suffix : {"", "+bf16"}) {
    exec::ContractStats hcs;
    device::DeviceStats hds;
    auto want = device::make_backend("host" + std::string(suffix))
                    ->run_stem_window(w0, branches.data(), int(branches.size()), &hcs, &hds);
    for (const auto& info : device::available_backends()) {
      const std::string spec = info.name + suffix;
      exec::ContractStats cs;
      device::DeviceStats ds;
      auto got = device::make_backend(spec)->run_stem_window(w0, branches.data(),
                                                             int(branches.size()), &cs, &ds);
      EXPECT_TRUE(bitwise_equal(want, got)) << spec;
      EXPECT_EQ(ds.stem_steps, branches.size()) << spec;
    }
  }
}

// --- bf16 mixed precision: determinism -------------------------------------

TEST(KernelsParityBf16, BitwiseIdenticalAcrossTiers) {
  uint64_t seed = 300;
  for (int trial = 0; trial < 20; ++trial) {
    Rng shape(9000 + uint64_t(trial));
    const int m = shape.next_int(1, 24);
    const int n = shape.next_int(1, 50);
    const int k = shape.next_int(1, 520);
    auto a = random_buf(size_t(m) * k, seed++);
    auto b = random_buf(size_t(k) * n, seed++);
    AlignedCfloatVec want(size_t(m) * n);
    cgemm_simd(IsaTier::kPortable, Precision::kBf16, m, n, k, a.data(), b.data(),
               want.data());  // portable reference
    for (IsaTier tier : vector_tiers()) {
      AlignedCfloatVec got(size_t(m) * n);
      cgemm_simd(tier, Precision::kBf16, m, n, k, a.data(), b.data(), got.data());
      ASSERT_TRUE(same_bits(want.data(), got.data(), want.size()))
          << isa_name(tier) << " m=" << m << " n=" << n << " k=" << k;
    }
  }
}

TEST(KernelsParityBf16, ParallelMatchesSerialEveryTier) {
  const int m = 96, n = 48, k = 320;
  auto a = random_buf(size_t(m) * k, 71);
  auto b = random_buf(size_t(k) * n, 72);
  for (IsaTier tier : compiled_isa_tiers()) {
    AlignedCfloatVec serial(size_t(m) * n), par(size_t(m) * n);
    cgemm_simd(tier, Precision::kBf16, m, n, k, a.data(), b.data(), serial.data());
    ThreadPool pool(4);
    cgemm_simd(tier, Precision::kBf16, m, n, k, a.data(), b.data(), par.data(), &pool);
    ASSERT_TRUE(same_bits(serial.data(), par.data(), serial.size())) << isa_name(tier);
  }
}

// --- bf16 mixed precision: pinned ULP-regression corpus --------------------

// Max scale-relative ULP distance (over both components of every element)
// between the bf16 result and the fp32 reference: |Δ| in units of the
// float spacing at the reference's max |component| — the same comparator
// scripts/compare_amps.py applies in --compare-mode=ulp:<N>.
int64_t corpus_max_ulp(int m, int n, int k, uint64_t seed) {
  auto a = random_buf(size_t(m) * k, seed);
  auto b = random_buf(size_t(k) * n, seed + 1);
  AlignedCfloatVec fp32(size_t(m) * n), bf16(size_t(m) * n);
  cgemm(m, n, k, a.data(), b.data(), fp32.data());
  cgemm_simd(IsaTier::kPortable, Precision::kBf16, m, n, k, a.data(), b.data(), bf16.data());
  float scale = 0.f;
  for (const auto& v : fp32) {
    scale = std::max(scale, std::fabs(v.real()));
    scale = std::max(scale, std::fabs(v.imag()));
  }
  int64_t worst = 0;
  for (size_t i = 0; i < fp32.size(); ++i) {
    worst = std::max(worst, util::ulp_distance_at_scale(fp32[i].real(), bf16[i].real(), scale));
    worst = std::max(worst, util::ulp_distance_at_scale(fp32[i].imag(), bf16[i].imag(), scale));
  }
  return worst;
}

struct UlpPin {
  int m, n, k;
  uint64_t seed;
  int64_t max_ulp;  // pinned: measured once, committed, compared EXACTLY
};

// The corpus: inputs are exact-arithmetic (integers scaled by powers of
// two, no libm), the kernels are chain-pinned, so these numbers are
// bit-stable across machines and compilers. If a kernel change moves any
// of them — up OR down — this test fails and the pin must be re-measured
// and re-committed alongside an explanation of the numeric change.
constexpr UlpPin kUlpCorpus[] = {
    {8, 8, 8, 0xc0ffee01, 32332},
    {16, 16, 64, 0xc0ffee02, 31191},
    {7, 13, 300, 0xc0ffee03, 25529},
    {32, 32, 257, 0xc0ffee04, 28091},
    {24, 40, 512, 0xc0ffee05, 19210},
    {5, 63, 96, 0xc0ffee06, 27655},
};

TEST(KernelsParityBf16, PinnedUlpRegressionCorpus) {
  for (const auto& pin : kUlpCorpus) {
    const int64_t measured = corpus_max_ulp(pin.m, pin.n, pin.k, pin.seed);
    EXPECT_EQ(measured, pin.max_ulp)
        << "corpus case m=" << pin.m << " n=" << pin.n << " k=" << pin.k << " seed=" << pin.seed
        << ": measured max ULP " << measured << " != pinned " << pin.max_ulp
        << " (re-pin deliberately if the mixed-precision chain changed)";
  }
}

TEST(KernelsParityBf16, UlpErrorIsBoundedAndNonzero) {
  // Sanity around the pins: bf16 is genuinely lossy (distance > 0) but the
  // fp32 accumulation keeps it around 2^15 scale-relative ULPs (~2^-8
  // relative — one bf16 mantissa step) on these well-scaled inputs.
  for (const auto& pin : kUlpCorpus) {
    const int64_t measured = corpus_max_ulp(pin.m, pin.n, pin.k, pin.seed);
    EXPECT_GT(measured, 0);
    EXPECT_LT(measured, int64_t(1) << 18);
  }
}

// --- dispatch probe --------------------------------------------------------

TEST(KernelsParityProbe, ActiveTierIsCompiledAndLanesAgree) {
  const auto& p = device::cpu_probe();
  const auto tiers = compiled_isa_tiers();
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), p.active), tiers.end());
  EXPECT_EQ(device::probe_simd_lanes(), isa_lanes(p.active));
  EXPECT_FALSE(device::probe_isa_label().empty());
}

}  // namespace
}  // namespace ltns::exec
