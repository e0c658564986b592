// Micro-benchmarks (google-benchmark) for the execution kernels: complex
// GEMM across square and narrow shapes (§5.1: narrow GEMM collapses to a
// bandwidth problem), permutation strategies (§5.3.1 map reduction), the
// gather/scatter slice primitives, the device backends (host / simd)
// behind the src/device/ registry, and the raw SIMD dispatch tiers
// (portable scalar vs every vector tier this CPU supports — the
// "vectorized cgemm beats scalar" check lives here).
//
// `--device-compare=PATH` skips the google-benchmark suite and instead
// emits a fig12-style JSON comparison of the host and simd backends over
// gemm/permute shapes, asserting bitwise equality of every
// fp32 output, plus a "mixed" section measuring the bf16 backend against
// fp32 in scale-relative ULPs (util::ulp_distance_at_scale — the
// --compare-mode=ulp:<N> metric; docs/kernels.md). The CI bench-smoke job
// validates the emitted flags.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "device/backend.hpp"
#include "device/cpu_probe.hpp"
#include "exec/contract.hpp"
#include "exec/gemm.hpp"
#include "exec/permute.hpp"
#include "exec/simd_kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/ulp.hpp"

using namespace ltns;
using exec::cfloat;

namespace {

std::vector<cfloat> random_buf(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> b(n);
  for (auto& v : b) v = cfloat(float(rng.next_normal()), float(rng.next_normal()));
  return b;
}

void BM_GemmSquare(benchmark::State& state) {
  const int n = int(state.range(0));
  auto a = random_buf(size_t(n) * n, 1), b = random_buf(size_t(n) * n, 2);
  std::vector<cfloat> c(size_t(n) * n);
  for (auto _ : state) {
    exec::cgemm(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["flops"] = benchmark::Counter(exec::gemm_flops(n, n, n),
                                               benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmSquare)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

// The paper's narrow regime: two of m,n,k < 16 -> bandwidth-bound.
void BM_GemmNarrow(benchmark::State& state) {
  const int m = int(state.range(0)), n = int(state.range(1)), k = int(state.range(2));
  auto a = random_buf(size_t(m) * k, 3), b = random_buf(size_t(k) * n, 4);
  std::vector<cfloat> c(size_t(m) * n);
  for (auto _ : state) {
    exec::cgemm(m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["flops"] = benchmark::Counter(exec::gemm_flops(m, n, k),
                                               benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmNarrow)
    ->Args({4096, 4, 4})
    ->Args({4096, 2, 8})
    ->Args({8192, 4, 2})
    ->Args({4, 4096, 4});

void BM_PermuteNaive(benchmark::State& state) {
  const int r = int(state.range(0));
  std::vector<int> ixs, order;
  for (int i = 0; i < r; ++i) ixs.push_back(i);
  order = ixs;
  std::reverse(order.begin(), order.end());
  auto t = exec::random_tensor(ixs, 5);
  for (auto _ : state) {
    auto out = exec::permute_naive(t, order);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(t.size()) * 8);
}
BENCHMARK(BM_PermuteNaive)->Arg(10)->Arg(14)->Arg(18);

// Leading-axes-only permutation: the §5.3.1 reduced map moves whole blocks.
void BM_PermuteReducedMap(benchmark::State& state) {
  const int r = int(state.range(0));
  std::vector<int> ixs, order;
  for (int i = 0; i < r; ++i) ixs.push_back(i);
  order = ixs;
  std::swap(order[0], order[1]);
  std::swap(order[2], order[3]);
  auto t = exec::random_tensor(ixs, 6);
  for (auto _ : state) {
    auto out = exec::permute(t, order);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(t.size()) * 8);
}
BENCHMARK(BM_PermuteReducedMap)->Arg(10)->Arg(14)->Arg(18);

void BM_PermuteFullMap(benchmark::State& state) {
  const int r = int(state.range(0));
  std::vector<int> ixs, order;
  for (int i = 0; i < r; ++i) ixs.push_back(i);
  order = ixs;
  std::reverse(order.begin(), order.end());
  auto t = exec::random_tensor(ixs, 7);
  for (auto _ : state) {
    auto out = exec::permute(t, order);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(t.size()) * 8);
}
BENCHMARK(BM_PermuteFullMap)->Arg(10)->Arg(14)->Arg(18);

void BM_SliceGather(benchmark::State& state) {
  const int r = int(state.range(0));
  std::vector<int> ixs;
  for (int i = 0; i < r; ++i) ixs.push_back(i);
  auto t = exec::random_tensor(ixs, 8);
  for (auto _ : state) {
    auto s = t.fixed(r / 2, 1);  // strided mid-axis slice
    benchmark::DoNotOptimize(s.raw());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(t.size()) * 4);
}
BENCHMARK(BM_SliceGather)->Arg(12)->Arg(16)->Arg(20);

// Device-backend GEMM: same shapes as BM_GemmSquare through the registry's
// simd backend (runtime-dispatched vector tier).
void BM_GemmSimdBackend(benchmark::State& state) {
  const int n = int(state.range(0));
  auto backend = device::make_backend("simd");
  auto a = random_buf(size_t(n) * n, 1), b = random_buf(size_t(n) * n, 2);
  std::vector<cfloat> c(size_t(n) * n);
  for (auto _ : state) {
    backend->gemm(n, n, n, a.data(), b.data(), c.data(), nullptr, nullptr);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["flops"] = benchmark::Counter(exec::gemm_flops(n, n, n),
                                               benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmSimdBackend)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

// Every SIMD tier THIS machine can run (hardware-clamped; the full
// compiled set is in exec::compiled_isa_tiers()). Portable is always
// first, so the later tiers read as speedups over the scalar chain.
std::vector<exec::IsaTier> runnable_tiers() {
  using exec::IsaTier;
  const auto det = device::cpu_probe().detected;
  std::vector<IsaTier> out{IsaTier::kPortable};
  if (det == IsaTier::kAvx512) {
    out.push_back(IsaTier::kAvx2);
    out.push_back(IsaTier::kAvx512);
  } else if (det != IsaTier::kPortable) {
    out.push_back(det);
  }
  return out;
}

// Raw per-tier cgemm_simd (no registry indirection): the scalar-vs-vector
// comparison. Registered dynamically in main() — the tier list depends on
// the machine running the suite.
void tier_gemm_bench(benchmark::State& state, exec::IsaTier tier, exec::Precision prec) {
  const int n = int(state.range(0));
  auto a = random_buf(size_t(n) * n, 1), b = random_buf(size_t(n) * n, 2);
  std::vector<cfloat> c(size_t(n) * n);
  for (auto _ : state) {
    exec::cgemm_simd(tier, prec, n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["flops"] = benchmark::Counter(exec::gemm_flops(n, n, n),
                                               benchmark::Counter::kIsIterationInvariantRate);
}

void BM_ContractTTGT(benchmark::State& state) {
  // A typical stem step: rank-r tensor absorbs a rank-4 branch over 2 axes.
  const int r = int(state.range(0));
  std::vector<int> big_ixs, branch_ixs{0, 1, 100, 101};
  for (int i = 0; i < r; ++i) big_ixs.push_back(i);
  auto big = exec::random_tensor(big_ixs, 9);
  auto branch = exec::random_tensor(branch_ixs, 10);
  for (auto _ : state) {
    auto out = exec::contract(big, branch);
    benchmark::DoNotOptimize(out.raw());
  }
  state.counters["flops"] = benchmark::Counter(
      exec::gemm_flops(double(size_t(1) << (r - 2)), 4, 4),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ContractTTGT)->Arg(10)->Arg(14)->Arg(18);

// --- host-vs-simd device comparison (fig12-style JSON) ---------------------

double best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

int run_device_compare(const char* path) {
  obs::Tracer::instance().enable(0);  // the compare run's kernel timeline
  auto host = device::make_backend("host");
  auto simd = device::make_backend("simd");
  auto bf16 = device::make_backend("simd+bf16");
  const std::string isa = exec::isa_name(device::cpu_probe().active);
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s'\n", path);
    return 1;
  }
  bool all_bitwise = true;
  bool all_mixed_bounded = true;
  // Single-GEMM bound, matching the pinned corpus scale in
  // tests/test_kernels_parity.cpp (bf16 operand rounding ~2^15 spacing
  // units, with headroom for cancellation).
  const int64_t kMixedUlpBound = int64_t(1) << 18;
  std::fprintf(f,
               "{\n  \"figure\": \"kernels_micro device comparison (fig12-style)\",\n"
               "  \"backends\": [\"host\", \"simd\"],\n"
               "  \"active_isa\": \"%s\",\n  \"gemm\": [",
               isa.c_str());
  const struct { int m, n, k; } shapes[] = {
      {64, 64, 64}, {128, 128, 128}, {256, 256, 256}, {4096, 4, 4}, {33, 65, 300},
  };
  bool first = true;
  for (const auto& s : shapes) {
    auto a = random_buf(size_t(s.m) * s.k, 1), b = random_buf(size_t(s.k) * s.n, 2);
    std::vector<cfloat> c1(size_t(s.m) * s.n), c2(size_t(s.m) * s.n);
    const double th = best_of(5, [&] {
      obs::TraceScope tr(obs::EventKind::kGemm, uint64_t(s.m) * uint64_t(s.n), uint64_t(s.k));
      host->gemm(s.m, s.n, s.k, a.data(), b.data(), c1.data(), nullptr, nullptr);
    });
    const double ts = best_of(5, [&] {
      obs::TraceScope tr(obs::EventKind::kGemm, uint64_t(s.m) * uint64_t(s.n), uint64_t(s.k));
      simd->gemm(s.m, s.n, s.k, a.data(), b.data(), c2.data(), nullptr, nullptr);
    });
    const bool eq = std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(cfloat)) == 0;
    all_bitwise = all_bitwise && eq;
    std::fprintf(f,
                 "%s\n    {\"m\": %d, \"n\": %d, \"k\": %d, \"host_seconds\": %.9g, "
                 "\"simd_seconds\": %.9g, \"simd_speedup\": %.4g, \"bitwise_equal\": %s}",
                 first ? "" : ",", s.m, s.n, s.k, th, ts, th / ts, eq ? "true" : "false");
    first = false;
  }
  std::fprintf(f, "\n  ],\n  \"permute\": [");
  first = true;
  for (int rank : {10, 14, 18}) {
    std::vector<int> ixs, order;
    for (int i = 0; i < rank; ++i) ixs.push_back(i);
    order = ixs;
    std::reverse(order.begin(), order.end());
    auto t = exec::random_tensor(ixs, 5);
    exec::Tensor p1, p2;
    const double th = best_of(5, [&] {
      obs::TraceScope tr(obs::EventKind::kPermute, uint64_t(t.size()));
      p1 = host->permute(t, order, nullptr);
    });
    const double ts = best_of(5, [&] {
      obs::TraceScope tr(obs::EventKind::kPermute, uint64_t(t.size()));
      p2 = simd->permute(t, order, nullptr);
    });
    const bool eq = p1.ixs() == p2.ixs() &&
                    std::memcmp(p1.raw(), p2.raw(), p1.size() * sizeof(cfloat)) == 0;
    all_bitwise = all_bitwise && eq;
    std::fprintf(f,
                 "%s\n    {\"rank\": %d, \"host_seconds\": %.9g, \"simd_seconds\": %.9g, "
                 "\"simd_speedup\": %.4g, \"bitwise_equal\": %s}",
                 first ? "" : ",", rank, th, ts, th / ts, eq ? "true" : "false");
    first = false;
  }
  // Mixed precision: the bf16 backend against the fp32 host reference, in
  // scale-relative ULPs. bf16 must DIFFER from fp32 (max_ulp > 0 proves
  // the rounding engaged) while staying under the corpus-scale bound.
  std::fprintf(f, "\n  ],\n  \"mixed\": [");
  first = true;
  for (const auto& s : shapes) {
    auto a = random_buf(size_t(s.m) * s.k, 1), b = random_buf(size_t(s.k) * s.n, 2);
    std::vector<cfloat> c1(size_t(s.m) * s.n), cm(size_t(s.m) * s.n);
    host->gemm(s.m, s.n, s.k, a.data(), b.data(), c1.data(), nullptr, nullptr);
    const double tm = best_of(5, [&] {
      obs::TraceScope tr(obs::EventKind::kGemm, uint64_t(s.m) * uint64_t(s.n), uint64_t(s.k));
      bf16->gemm(s.m, s.n, s.k, a.data(), b.data(), cm.data(), nullptr, nullptr);
    });
    float scale = 0;
    for (const auto& v : c1) scale = std::max({scale, std::abs(v.real()), std::abs(v.imag())});
    int64_t max_ulp = 0;
    for (size_t i = 0; i < c1.size(); ++i) {
      max_ulp = std::max(
          max_ulp, util::ulp_distance_at_scale(c1[i].real(), cm[i].real(), scale));
      max_ulp = std::max(
          max_ulp, util::ulp_distance_at_scale(c1[i].imag(), cm[i].imag(), scale));
    }
    const bool bounded = max_ulp > 0 && max_ulp <= kMixedUlpBound;
    all_mixed_bounded = all_mixed_bounded && bounded;
    std::fprintf(f,
                 "%s\n    {\"m\": %d, \"n\": %d, \"k\": %d, \"bf16_seconds\": %.9g, "
                 "\"max_ulp_at_scale\": %lld, \"ulp_bound\": %lld, \"within_bound\": %s}",
                 first ? "" : ",", s.m, s.n, s.k, tm, (long long)max_ulp,
                 (long long)kMixedUlpBound, bounded ? "true" : "false");
    first = false;
  }
  std::fprintf(f, "\n  ],\n  \"all_bitwise_equal\": %s,\n  \"all_mixed_bounded\": %s\n}\n",
               all_bitwise ? "true" : "false", all_mixed_bounded ? "true" : "false");
  std::fclose(f);
  std::printf("device comparison written to %s (isa=%s all_bitwise_equal=%s "
              "all_mixed_bounded=%s)\n",
              path, isa.c_str(), all_bitwise ? "true" : "false",
              all_mixed_bounded ? "true" : "false");

  // Observability artifacts next to the comparison JSON: the compare run's
  // kernel timeline and a tiny metrics snapshot (the bitwise flag as a
  // gauge, so a parity break is scrapable too).
  std::string obs_err;
  if (obs::Tracer::instance().enabled() &&
      !obs::Tracer::instance().write_chrome_json("kernels_micro_trace.json", &obs_err))
    std::fprintf(stderr, "kernels_micro_trace.json: %s\n", obs_err.c_str());
  obs::MetricsRegistry reg;
  reg.counter("ltns_bench_kernel_compares_total", double(sizeof(shapes) / sizeof(shapes[0])),
              {{"kind", "gemm"}});
  reg.counter("ltns_bench_kernel_compares_total", 3, {{"kind", "permute"}});
  reg.gauge("ltns_bench_all_bitwise_equal", all_bitwise ? 1 : 0);
  reg.gauge("ltns_bench_all_mixed_bounded", all_mixed_bounded ? 1 : 0, {{"isa", isa}});
  if (!reg.write_files("kernels_micro_metrics.json", &obs_err))
    std::fprintf(stderr, "kernels_micro_metrics.json: %s\n", obs_err.c_str());

  // A parity break OR an out-of-contract mixed error fails the bench job.
  return all_bitwise && all_mixed_bounded ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--device-compare=", 17) == 0)
      return run_device_compare(argv[i] + 17);
  }
  // Per-tier GEMM benches are machine-dependent, so they register here
  // rather than statically: BM_GemmSimdTier/portable is the scalar chain,
  // and each vector tier's row should beat it.
  for (auto tier : runnable_tiers()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_GemmSimdTier/") + exec::isa_name(tier)).c_str(),
        [tier](benchmark::State& st) { tier_gemm_bench(st, tier, exec::Precision::kFp32); })
        ->Arg(64)
        ->Arg(256);
  }
  benchmark::RegisterBenchmark(
      "BM_GemmSimdTier/bf16",
      [](benchmark::State& st) {
        tier_gemm_bench(st, device::cpu_probe().active, exec::Precision::kBf16);
      })
      ->Arg(64)
      ->Arg(256);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
