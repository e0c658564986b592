// Device-backend subsystem tests (src/device/). The load-bearing
// invariants:
//   1. the registry lists exactly host and simd, constructs both (with or
//      without a +fp32/+bf16 precision suffix), and fails unknown names
//      with a message naming the known ones;
//   2. every backend's output is BITWISE identical to the raw host path for
//      contractions, stem windows and whole sliced runs — across executors
//      and worker counts (kernel-level fuzzing of the simd tiers lives in
//      tests/test_kernels_parity.cpp);
//   3. transfer accounting: upload/download count bytes both ways, the
//      simd backend reports its panel packing as to-device traffic, the
//      host backend reports zero;
//   4. DeviceStats rides ExecStats/ExecutorSnapshot through run_sliced.
#include <gtest/gtest.h>

#include <cstring>

#include "core/greedy_slicer.hpp"
#include "device/backend.hpp"
#include "device/cpu_probe.hpp"
#include "exec/simd_kernels.hpp"
#include "exec/fused_executor.hpp"
#include "exec/gemm.hpp"
#include "exec/slice_runner.hpp"
#include "exec/tree_executor.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ltns::device {
namespace {

using exec::cfloat;

std::vector<cfloat> random_buf(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<cfloat> b(n);
  for (auto& v : b) v = cfloat(float(rng.next_normal()), float(rng.next_normal()));
  return b;
}

using test::bitwise_equal;

// --- registry -------------------------------------------------------------

TEST(DeviceRegistry, ListsExactlyHostAndSimd) {
  auto all = available_backends();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "host");
  EXPECT_EQ(all[1].name, "simd");
  for (const auto& b : all) {
    EXPECT_GE(b.caps.alignment, alignof(cfloat));
    EXPECT_FALSE(b.caps.description.empty());
    // Lanes/isa come from the runtime dispatch probe, not hard-coded
    // guesses: both backends report the same active tier.
    EXPECT_EQ(b.caps.simd_lanes, probe_simd_lanes()) << b.name;
    EXPECT_EQ(b.caps.isa, exec::isa_name(cpu_probe().active)) << b.name;
  }
}

TEST(DeviceRegistry, ConstructsByNameAndEmptyMeansHost) {
  EXPECT_STREQ(make_backend("host")->name(), "host");
  EXPECT_STREQ(make_backend("simd")->name(), "simd");
  EXPECT_STREQ(make_backend("")->name(), "host");
}

TEST(DeviceRegistry, PrecisionSpecsParseAndDefaultToFp32) {
  EXPECT_EQ(make_backend("host")->precision(), exec::Precision::kFp32);
  EXPECT_EQ(make_backend("simd+fp32")->precision(), exec::Precision::kFp32);
  EXPECT_EQ(make_backend("simd+bf16")->precision(), exec::Precision::kBf16);
  EXPECT_EQ(make_backend("host+bf16")->precision(), exec::Precision::kBf16);
  EXPECT_THROW(make_backend("host+fp64"), std::invalid_argument);
  const auto spec = parse_backend_spec("simd+bf16");
  EXPECT_EQ(spec.name, "simd");
  EXPECT_EQ(spec.precision, exec::Precision::kBf16);
  EXPECT_EQ(spec.spec(), "simd+bf16");
  EXPECT_EQ(parse_backend_spec("simd").spec(), "simd");
}

// Retired backend names get the ordinary unknown-backend error, which
// lists the two backends that remain.
TEST(DeviceRegistry, UnknownNameFailsListingKnownBackends) {
  for (const char* spec : {"tpu", "blocked", "cuda", "blocked+bf16"}) {
    try {
      make_backend(spec);
      FAIL() << "expected std::invalid_argument for " << spec;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("unknown device backend"), std::string::npos) << msg;
      EXPECT_NE(msg.find(parse_backend_spec(spec).name), std::string::npos) << msg;
      EXPECT_NE(msg.find("known backends: host simd"), std::string::npos) << msg;
    }
  }
}

TEST(DeviceRegistry, HelpListsEveryBackendWithAlignment) {
  const std::string help = backend_help();
  EXPECT_NE(help.find("host"), std::string::npos);
  EXPECT_NE(help.find("simd"), std::string::npos);
  EXPECT_NE(help.find("alignment=64"), std::string::npos);
}

// --- tensor alignment (the simd kernels' precondition) --------------------

TEST(DeviceAlignment, TensorStorageIs64ByteAligned) {
  static_assert(exec::kTensorAlignment == 64, "simd kernels assume 64-byte tensors");
  for (int rank : {0, 1, 3, 7, 12}) {
    std::vector<int> ixs;
    for (int i = 0; i < rank; ++i) ixs.push_back(i);
    auto t = exec::random_tensor(ixs, uint64_t(rank) + 1);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.raw()) % exec::kTensorAlignment, 0u)
        << "rank " << rank;
    // Copies and moves keep the guarantee (fresh aligned storage).
    exec::Tensor c = t;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(c.raw()) % exec::kTensorAlignment, 0u);
  }
}

TEST(DeviceAlignment, BackendScratchHonorsCapabilityAlignment) {
  for (const char* name : {"host", "simd"}) {
    auto b = make_backend(name);
    const size_t align = b->capabilities().alignment;
    cfloat* p = b->alloc_elems(1000);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u) << name;
    b->free_elems(p, 1000);
  }
}

// --- transfer accounting --------------------------------------------------

TEST(DeviceTransfers, UploadDownloadRoundTripCountsBothDirections) {
  auto b = make_backend("host");
  auto src = random_buf(4096, 9);
  cfloat* dev = b->alloc_elems(4096);
  DeviceStats st;
  b->upload(dev, src.data(), 4096, &st);
  std::vector<cfloat> back(4096);
  b->download(back.data(), dev, 4096, &st);
  b->free_elems(dev, 4096);
  EXPECT_EQ(std::memcmp(back.data(), src.data(), 4096 * sizeof(cfloat)), 0);
  EXPECT_EQ(st.uploads, 1u);
  EXPECT_EQ(st.downloads, 1u);
  EXPECT_EQ(st.bytes_to_device, 4096.0 * sizeof(cfloat));
  EXPECT_EQ(st.bytes_to_host, 4096.0 * sizeof(cfloat));
  EXPECT_GE(st.ns_to_device, 0.0);
}

TEST(DeviceStatsMergeAndSince, FieldwiseArithmetic) {
  DeviceStats a, b;
  a.bytes_to_device = 100;
  a.gemm_calls = 3;
  a.stem_steps = 2;
  b.bytes_to_device = 40;
  b.gemm_calls = 1;
  b.permute_calls = 5;
  DeviceStats m = a;
  m.merge(b);
  EXPECT_EQ(m.bytes_to_device, 140.0);
  EXPECT_EQ(m.gemm_calls, 4u);
  EXPECT_EQ(m.permute_calls, 5u);
  auto d = m.since(b);
  EXPECT_EQ(d.bytes_to_device, a.bytes_to_device);
  EXPECT_EQ(d.gemm_calls, a.gemm_calls);
  EXPECT_EQ(d.stem_steps, a.stem_steps);
}

// --- simd backend: edge shapes and panel packing --------------------------

// Shapes the fuzzers in tests/test_kernels_parity.cpp never draw: very tall
// and very wide operands, and degenerate m/n/k = 0 (C must be overwritten,
// not accumulated into, so it starts filled with garbage).
struct GemmShape {
  int m, n, k;
};
const GemmShape kEdgeShapes[] = {
    {4096, 4, 4}, {4, 4096, 4}, {128, 4, 520}, {100, 100, 1}, {2, 2, 1024},
    {0, 4, 4},    {4, 0, 4},    {4, 4, 0},
};

TEST(SimdBackend, GemmBitwiseIdenticalToHostOnEdgeShapes) {
  auto host = make_backend("host");
  auto simd = make_backend("simd");
  uint64_t seed = 1;
  for (const auto& s : kEdgeShapes) {
    auto a = random_buf(size_t(s.m) * size_t(std::max(s.k, 1)), seed++);
    auto b = random_buf(size_t(std::max(s.k, 1)) * size_t(s.n), seed++);
    std::vector<cfloat> c1(size_t(s.m) * s.n, cfloat{7, 7});
    std::vector<cfloat> c2(size_t(s.m) * s.n, cfloat{9, 9});
    host->gemm(s.m, s.n, s.k, a.data(), b.data(), c1.data(), nullptr, nullptr);
    simd->gemm(s.m, s.n, s.k, a.data(), b.data(), c2.data(), nullptr, nullptr);
    EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(cfloat)), 0)
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

TEST(SimdBackend, GemmPackingCountsToDeviceTraffic) {
  const int m = 32, n = 32, k = 32;
  auto a = random_buf(size_t(m) * k, 7);
  auto b = random_buf(size_t(k) * n, 8);
  std::vector<cfloat> c(size_t(m) * n);
  DeviceStats st;
  make_backend("simd")->gemm(m, n, k, a.data(), b.data(), c.data(), nullptr, &st);
  EXPECT_EQ(st.gemm_calls, 1u);
  // The portable tier runs the host kernel in place and packs nothing.
  if (cpu_probe().active == exec::IsaTier::kPortable) {
    EXPECT_EQ(st.bytes_to_device, 0.0);
  } else {
    EXPECT_GT(st.bytes_to_device, 0.0);
    EXPECT_GE(st.uploads, 1u);
  }
  // The host backend moves nothing.
  DeviceStats hst;
  make_backend("host")->gemm(m, n, k, a.data(), b.data(), c.data(), nullptr, &hst);
  EXPECT_EQ(hst.bytes_to_device, 0.0);
}

TEST(DeviceBackend, ContractMatchesRawHostPathBitwise) {
  auto t1 = exec::random_tensor({0, 1, 2, 3, 4, 5, 6, 7}, 11);
  auto t2 = exec::random_tensor({4, 5, 6, 7, 8, 9}, 12);
  auto raw = exec::contract(t1, t2);
  for (const char* name : {"host", "simd"}) {
    auto b = make_backend(name);
    exec::ContractStats cs;
    DeviceStats ds;
    auto r = b->contract(t1, t2, nullptr, &cs, &ds);
    EXPECT_TRUE(bitwise_equal(raw, r)) << name;
    EXPECT_GT(cs.flops, 0.0);
    EXPECT_EQ(ds.gemm_calls, 1u);
  }
}

TEST(DeviceBackend, StemWindowBatchedMatchesStepLoopBitwise) {
  // A stem-shaped chain: working tensor absorbs three rank-4 branches.
  auto w0 = exec::random_tensor({0, 1, 2, 3, 4, 5, 6, 7}, 21);
  std::vector<exec::Tensor> branches;
  branches.push_back(exec::random_tensor({0, 1, 100, 101}, 22));
  branches.push_back(exec::random_tensor({100, 2, 102, 103}, 23));
  branches.push_back(exec::random_tensor({101, 103, 104, 105}, 24));

  exec::Tensor expect = w0;
  for (const auto& b : branches) expect = exec::contract(expect, b);

  for (const char* name : {"host", "simd"}) {
    auto backend = make_backend(name);
    exec::ContractStats cs;
    DeviceStats ds;
    size_t peak = 0;
    auto got = backend->run_stem_window(w0, branches.data(), int(branches.size()), &cs, &ds,
                                        &peak);
    EXPECT_TRUE(bitwise_equal(expect, got)) << name;
    EXPECT_EQ(ds.stem_steps, branches.size()) << name;
    EXPECT_GE(peak, got.size()) << name;
    EXPECT_EQ(ds.downloads, 0u) << name;  // kernels read host tensors in place
  }
}

// --- whole sliced runs: every executor, every backend, bitwise ------------

struct Fixture {
  circuit::LoweredNetwork ln;
  std::shared_ptr<tn::ContractionTree> tree;
  core::SliceSet slices;

  exec::LeafProvider leaves() const {
    return [this](tn::VertId v) -> const exec::Tensor& { return ln.tensors[size_t(v)]; };
  }
};

Fixture make_fixture() {
  Fixture f{test::small_network(3, 4, 6), nullptr, core::SliceSet{}};
  f.tree = std::make_shared<tn::ContractionTree>(test::greedy_tree(f.ln.net));
  core::GreedySlicerOptions go;
  go.target_log2size = std::max(2.0, f.tree->max_log2size() - 3.0);
  f.slices = core::greedy_slice(*f.tree, go);
  return f;
}

TEST(RunSlicedBackends, BitwiseIdenticalAcrossBackendsExecutorsAndWorkers) {
  auto f = make_fixture();
  ASSERT_GE(f.slices.size(), 2);

  exec::SliceRunOptions base;
  base.executor = exec::SliceExecutor::kInnerPool;
  ThreadPool pool1(1);
  base.pool = &pool1;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, base);  // raw host path
  ASSERT_TRUE(ref.completed);

  for (const char* name : {"host", "simd"}) {
    auto backend = make_backend(name);
    for (auto ex : {exec::SliceExecutor::kInnerPool, exec::SliceExecutor::kStaticPool,
                    exec::SliceExecutor::kWorkStealing}) {
      for (int workers : {1, 3}) {
        ThreadPool pool(workers);
        runtime::SliceScheduler sched(workers);
        exec::SliceRunOptions ro;
        ro.executor = ex;
        ro.pool = &pool;
        ro.scheduler = &sched;
        ro.backend = backend.get();
        auto r = exec::run_sliced(*f.tree, f.leaves(), f.slices, ro);
        ASSERT_TRUE(r.completed);
        EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated))
            << name << " executor=" << int(ex) << " workers=" << workers;
        // DeviceStats rides the run's ExecStats and its ExecutorSnapshot.
        EXPECT_GT(r.stats.device.gemm_calls, 0u);
        EXPECT_EQ(r.executor_stats.device.gemm_calls, r.stats.device.gemm_calls);
      }
    }
  }
}

TEST(RunSlicedBackends, FusedPathBitwiseIdenticalAcrossBackends) {
  auto f = make_fixture();
  auto stem = tn::extract_stem(*f.tree);
  auto plan = exec::plan_fused(stem, f.slices.to_vector(), 1 << 12);

  ThreadPool pool1(1);
  exec::SliceRunOptions base;
  base.executor = exec::SliceExecutor::kInnerPool;
  base.pool = &pool1;
  base.fused = &plan;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, base);
  ASSERT_TRUE(ref.completed);

  for (const char* name : {"host", "simd"}) {
    auto backend = make_backend(name);
    for (int workers : {1, 2}) {
      ThreadPool pool(workers);
      exec::SliceRunOptions ro;
      ro.executor = exec::SliceExecutor::kInnerPool;
      ro.pool = &pool;
      ro.fused = &plan;
      ro.backend = backend.get();
      auto r = exec::run_sliced(*f.tree, f.leaves(), f.slices, ro);
      ASSERT_TRUE(r.completed);
      EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated))
          << name << " workers=" << workers;
      EXPECT_GT(r.stats.device.stem_steps, 0u) << name;
    }
  }
}

}  // namespace
}  // namespace ltns::device
