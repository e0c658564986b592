// Content-addressed plan & result cache tests. The load-bearing invariants:
//   1. keys are pure functions of the job INPUTS: equal inputs agree, any
//      input change (circuit text, bits, open qubits, plan knob, execution
//      knob for result keys) changes the key;
//   2. the tiered store is a real LRU (recency order decides eviction), a
//      disk entry survives "restart" (a fresh store) and is promoted on
//      hit, and a corrupt or truncated entry is DROPPED and recomputed —
//      never trusted, never fatal;
//   3. a plan-cache hit rebuilds the exact stored plan over a freshly
//      lowered network without running src/path/ at all;
//   4. a warm api::Simulator run is bitwise identical to the cold run that
//      populated the cache — through the result tier, and through the plan
//      tier alone (result cache off, different executor);
//   5. read-only mode consults but never writes the on-disk store;
//   6. a duplicate service submission short-circuits to a COMPLETED job
//      with the cached amplitude, without re-executing anything.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <complex>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/simulator.hpp"
#include "cache/cache.hpp"
#include "circuit/io.hpp"
#include "core/planner.hpp"
#include "dist/checkpoint.hpp"
#include "dist/client.hpp"
#include "dist/server.hpp"
#include "dist/service.hpp"
#include "path/optimizer.hpp"
#include "test_helpers.hpp"

namespace ltns::cache {
namespace {

// Throwaway cache directory. The store nests plan/ result/ batch/ one
// level down, so cleanup walks the known layout (no recursion needed).
struct ScopedCacheDir {
  std::string path;
  ScopedCacheDir() {
    char tmpl[] = "/tmp/ltns_cache_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path = p != nullptr ? p : "/tmp/ltns_cache_fallback";
  }
  ~ScopedCacheDir() { wipe(); }
  void wipe() {
    for (const char* sub : {"plan", "result", "batch", "store", ""}) {
      const std::string d = sub[0] != '\0' ? path + "/" + sub : path;
      if (DIR* dp = ::opendir(d.c_str())) {
        while (dirent* e = ::readdir(dp)) {
          if (e->d_name[0] == '.') continue;
          ::unlink((d + "/" + e->d_name).c_str());
        }
        ::closedir(dp);
      }
      if (sub[0] != '\0') ::rmdir(d.c_str());
    }
    ::rmdir(path.c_str());
  }
};

bool file_exists(const std::string& p) {
  struct stat st{};
  return ::stat(p.c_str(), &st) == 0;
}

// --- keys -----------------------------------------------------------------

TEST(CacheKeys, DeterministicAndSensitiveToEveryInput) {
  core::PlanOptions po;
  const std::string k = plan_key("circ-v1", "0101", "", po);
  EXPECT_EQ(k.size(), 16u);  // FNV-1a 64 as hex
  EXPECT_EQ(k, plan_key("circ-v1", "0101", "", po));

  EXPECT_NE(k, plan_key("circ-v2", "0101", "", po));
  EXPECT_NE(k, plan_key("circ-v1", "0111", "", po));
  EXPECT_NE(k, plan_key("circ-v1", "0101", "2,5", po));
  core::PlanOptions target = po;
  target.target_log2size = po.target_log2size + 1;
  EXPECT_NE(k, plan_key("circ-v1", "0101", "", target));
  core::PlanOptions seed = po;
  seed.seed = po.seed + 1;
  EXPECT_NE(k, plan_key("circ-v1", "0101", "", seed));
}

TEST(CacheKeys, ResultKeyExtendsPlanKeyWithExecutionKnobs) {
  core::PlanOptions po;
  const auto fp32 = exec::Precision::kFp32;
  const std::string r = result_key("circ", "01", "", po, /*fused=*/true, /*ldm=*/32768, fp32);
  EXPECT_EQ(r, result_key("circ", "01", "", po, true, 32768, fp32));
  // Execution knobs that change WHICH numbers are computed change the key;
  // the plan key must ignore them (one plan serves both stem modes and
  // both precisions).
  EXPECT_NE(r, result_key("circ", "01", "", po, false, 32768, fp32));
  EXPECT_NE(r, result_key("circ", "01", "", po, true, 16384, fp32));
  EXPECT_NE(r, result_key("circ", "01", "", po, true, 32768, exec::Precision::kBf16));
  EXPECT_NE(r, plan_key("circ", "01", "", po));
}

TEST(CacheKeys, JournalFingerprintSeparatesPrecisions) {
  tn::SsaPath path;
  path.leaf_vertices = {0, 1, 2};
  path.steps = {{0, 1}, {3, 2}};
  const auto fp = [&](exec::Precision p) {
    return dist::run_fingerprint("circ", "01", "", true, 32768, p, path, {4, 7});
  };
  EXPECT_EQ(fp(exec::Precision::kFp32), fp(exec::Precision::kFp32));
  EXPECT_NE(fp(exec::Precision::kFp32), fp(exec::Precision::kBf16));
}

// --- TieredStore ----------------------------------------------------------

std::vector<uint8_t> payload_of(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(TieredStore, LruEvictsLeastRecentlyUsed) {
  CacheOptions opt;  // memory-only
  TieredStore store(opt, /*kind=*/7, "store", /*max_entries=*/2);
  store.put("a", payload_of("A"));
  store.put("b", payload_of("B"));

  // Touch "a" so "b" becomes the eviction victim.
  std::vector<uint8_t> got;
  ASSERT_TRUE(store.get("a", &got));
  store.put("c", payload_of("C"));

  EXPECT_TRUE(store.get("a", &got));
  EXPECT_EQ(got, payload_of("A"));
  EXPECT_TRUE(store.get("c", &got));
  EXPECT_FALSE(store.get("b", &got)) << "LRU must evict the least recent key";

  const auto st = store.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.insertions, 3u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.memory_entries, 2u);
  EXPECT_GT(st.memory_bytes, 0u);
}

TEST(TieredStore, DiskTierSurvivesRestartAndPromotes) {
  ScopedCacheDir dir;
  CacheOptions opt;
  opt.cache_dir = dir.path;
  {
    TieredStore store(opt, 7, "store", 4);
    store.put("key1", payload_of("hello"));
    EXPECT_GT(store.stats().disk_bytes_written, 0u);
  }
  // "Restart": a fresh store with an empty LRU over the same directory.
  TieredStore warm(opt, 7, "store", 4);
  std::vector<uint8_t> got;
  ASSERT_TRUE(warm.get("key1", &got));
  EXPECT_EQ(got, payload_of("hello"));
  auto st = warm.stats();
  EXPECT_EQ(st.disk_hits, 1u);
  EXPECT_EQ(st.memory_hits, 0u);
  // The disk hit was promoted into the LRU: the second get is a memory hit.
  ASSERT_TRUE(warm.get("key1", &got));
  EXPECT_EQ(warm.stats().memory_hits, 1u);
}

TEST(TieredStore, CorruptAndTruncatedEntriesAreDroppedNotTrusted) {
  ScopedCacheDir dir;
  CacheOptions opt;
  opt.cache_dir = dir.path;
  const std::string f = dir.path + "/store/key1.bin";
  {
    TieredStore store(opt, 7, "store", 4);
    store.put("key1", payload_of("precious bytes"));
    ASSERT_TRUE(file_exists(f));
  }
  // Flip one payload byte: the CRC must catch it.
  {
    std::fstream s(f, std::ios::in | std::ios::out | std::ios::binary);
    s.seekp(-3, std::ios::end);
    s.put(char(0x5a));
  }
  {
    TieredStore store(opt, 7, "store", 4);
    std::vector<uint8_t> got;
    EXPECT_FALSE(store.get("key1", &got));
    EXPECT_EQ(store.stats().corrupt_dropped, 1u);
    EXPECT_FALSE(file_exists(f)) << "corrupt entry must be unlinked";
    // Recompute-and-reinsert heals the slot.
    store.put("key1", payload_of("recomputed"));
  }
  // Truncate mid-header: same contract.
  {
    std::ofstream s(f, std::ios::binary | std::ios::trunc);
    s.write("LTNC", 4);
  }
  TieredStore store(opt, 7, "store", 4);
  std::vector<uint8_t> got;
  EXPECT_FALSE(store.get("key1", &got));
  EXPECT_EQ(store.stats().corrupt_dropped, 1u);
  EXPECT_FALSE(file_exists(f));
}

TEST(TieredStore, WrongKindIsRejectedEvenWithMatchingKey) {
  ScopedCacheDir dir;
  CacheOptions opt;
  opt.cache_dir = dir.path;
  {
    TieredStore plans(opt, /*kind=*/1, "store", 4);
    plans.put("key1", payload_of("a plan"));
  }
  // A store of another kind over the same directory must refuse the entry
  // (a plan must never deserialize as a result).
  TieredStore results(opt, /*kind=*/2, "store", 4);
  std::vector<uint8_t> got;
  EXPECT_FALSE(results.get("key1", &got));
  EXPECT_EQ(results.stats().corrupt_dropped, 1u);
}

TEST(TieredStore, ReadOnlyConsultsButNeverWrites) {
  ScopedCacheDir dir;
  CacheOptions writer_opt;
  writer_opt.cache_dir = dir.path;
  {
    TieredStore store(writer_opt, 7, "store", 4);
    store.put("warm", payload_of("from the writable run"));
  }
  CacheOptions ro = writer_opt;
  ro.read_only = true;
  TieredStore store(ro, 7, "store", 4);
  std::vector<uint8_t> got;
  ASSERT_TRUE(store.get("warm", &got)) << "read-only must still consult disk";
  store.put("new-key", payload_of("volatile"));
  EXPECT_FALSE(file_exists(dir.path + "/store/new-key.bin"))
      << "read-only must never write the on-disk store";
  // The process-private LRU still fills.
  EXPECT_TRUE(store.get("new-key", &got));
  EXPECT_EQ(store.stats().disk_bytes_written, 0u);
}

// --- PlanCache ------------------------------------------------------------

TEST(PlanCache, HitRebuildsStoredPlanWithoutRunningThePathOptimizer) {
  ScopedCacheDir dir;
  CacheOptions opt;
  opt.cache_dir = dir.path;

  auto ln = test::small_network(3, 3, 6);
  core::PlanOptions po;
  po.target_log2size = 6;
  const auto plan = core::make_plan(ln.net, po);
  const auto key = plan_key("some-circuit-text", "000000000", "", po);
  {
    PlanCache pc(opt);
    pc.insert(key, plan);
  }

  // "Restart", fresh identical lowering — the hit must not invoke
  // src/path/ (the whole point of the cache) and must reproduce the plan.
  PlanCache warm(opt);
  auto ln2 = test::small_network(3, 3, 6);
  core::Plan out;
  const uint64_t invocations_before = path::find_path_invocations();
  ASSERT_TRUE(warm.lookup(key, ln2.net, &out));
  EXPECT_EQ(path::find_path_invocations(), invocations_before)
      << "a plan-cache hit must not run the path optimizer";

  EXPECT_EQ(out.path.leaf_vertices, plan.path.leaf_vertices);
  EXPECT_EQ(out.path.steps, plan.path.steps);
  EXPECT_EQ(out.path_method, plan.path_method);
  EXPECT_EQ(out.slices.to_vector(), plan.slices.to_vector());
  EXPECT_EQ(out.num_slices(), plan.num_slices());
  EXPECT_EQ(out.metrics.log2_total_cost, plan.metrics.log2_total_cost);
  EXPECT_EQ(out.metrics.max_log2size, plan.metrics.max_log2size);
  ASSERT_NE(out.tree, nullptr);
  EXPECT_EQ(out.tree->total_log2cost(), plan.tree->total_log2cost());
  EXPECT_EQ(out.stem.length(), plan.stem.length());

  EXPECT_FALSE(warm.lookup(plan_key("other-circuit", "000000000", "", po), ln2.net, &out));
}

// --- warm vs cold through the public API ----------------------------------

TEST(SimulatorCache, WarmRunIsBitwiseIdenticalAndSkipsPlanning) {
  ScopedCacheDir dir;
  auto c = test::small_rqc(3, 3, 6, 9);
  api::SimulatorOptions opt;
  opt.plan.target_log2size = 6;
  opt.cache.cache_dir = dir.path;
  std::vector<int> bits = test::zero_bits(c.num_qubits);
  bits[0] = 1;

  std::complex<double> cold;
  {
    api::Simulator sim(c, opt);
    auto res = sim.amplitude(bits);
    ASSERT_TRUE(res.completed) << res.telemetry.error;
    cold = res.amplitude;
    const auto st = sim.cache_stats();
    EXPECT_EQ(st.plan.misses, 1u);
    EXPECT_GE(st.plan.insertions, 1u);
    EXPECT_GE(st.result.insertions, 1u);
  }

  // Full warm run ("new process"): served from the result tier, planner
  // and contraction both skipped, bytes identical.
  {
    api::Simulator sim(c, opt);
    const uint64_t invocations_before = path::find_path_invocations();
    auto res = sim.amplitude(bits);
    ASSERT_TRUE(res.completed) << res.telemetry.error;
    EXPECT_EQ(path::find_path_invocations(), invocations_before);
    EXPECT_EQ(std::memcmp(&res.amplitude, &cold, sizeof(cold)), 0)
        << "warm amplitude must be bitwise identical to the cold run";
    EXPECT_EQ(sim.cache_stats().result.disk_hits, 1u);
  }

  // Plan tier alone (result cache off), different executor: the plan hit
  // skips src/path/, the re-executed contraction still matches bitwise —
  // the determinism contract the cache leans on.
  {
    api::SimulatorOptions plan_only = opt;
    plan_only.cache.result_cache_entries = 0;
    plan_only.executor = exec::SliceExecutor::kStaticPool;
    api::Simulator sim(c, plan_only);
    const uint64_t invocations_before = path::find_path_invocations();
    auto res = sim.amplitude(bits);
    ASSERT_TRUE(res.completed) << res.telemetry.error;
    EXPECT_EQ(path::find_path_invocations(), invocations_before)
        << "plan-cache hit must skip the path optimizer entirely";
    EXPECT_EQ(std::memcmp(&res.amplitude, &cold, sizeof(cold)), 0);
    const auto st = sim.cache_stats();
    EXPECT_EQ(st.plan.disk_hits, 1u);
    EXPECT_EQ(st.result.hits(), 0u);
  }
}

// A bf16 result must never answer an fp32 request (or the reverse): two
// Simulators share one cache directory, the bf16 one runs first, and the
// fp32 one must recompute and match a cache-less fp32 run bit for bit.
TEST(SimulatorCache, PrecisionIsPartOfTheResultKey) {
  ScopedCacheDir dir;
  auto c = test::small_rqc(3, 3, 6, 9);
  api::SimulatorOptions opt;
  opt.plan.target_log2size = 6;
  const std::vector<int> bits = test::zero_bits(c.num_qubits);

  api::SimulatorOptions no_cache = opt;
  no_cache.cache.plan_cache_entries = 0;
  no_cache.cache.result_cache_entries = 0;
  const auto want = api::Simulator(c, no_cache).amplitude(bits);
  ASSERT_TRUE(want.completed) << want.telemetry.error;

  opt.cache.cache_dir = dir.path;
  api::SimulatorOptions bf16 = opt;
  bf16.precision = "bf16";
  api::Simulator bf16_sim(c, bf16);
  const auto low = bf16_sim.amplitude(bits);
  ASSERT_TRUE(low.completed) << low.telemetry.error;
  ASSERT_NE(std::memcmp(&low.amplitude, &want.amplitude, sizeof(want.amplitude)), 0)
      << "bf16 must differ from fp32 here, or this test cannot see a mixed-up key";

  api::Simulator fp32_sim(c, opt);
  const auto got = fp32_sim.amplitude(bits);
  ASSERT_TRUE(got.completed) << got.telemetry.error;
  EXPECT_FALSE(got.from_cache);
  EXPECT_EQ(std::memcmp(&got.amplitude, &want.amplitude, sizeof(want.amplitude)), 0)
      << "fp32 request was answered with another precision's amplitude";
  EXPECT_EQ(fp32_sim.cache_stats().result.hits(), 0u);
  EXPECT_EQ(fp32_sim.cache_stats().plan.disk_hits, 1u);  // plans ignore precision
}

TEST(SimulatorCache, BatchWarmRunIsBitwiseIdentical) {
  ScopedCacheDir dir;
  auto c = test::small_rqc(3, 3, 6, 11);
  api::SimulatorOptions opt;
  opt.plan.target_log2size = 6;
  opt.cache.cache_dir = dir.path;
  std::vector<int> bits = test::zero_bits(c.num_qubits);
  std::vector<int> open = {0, 4};

  std::vector<std::complex<double>> cold;
  {
    api::Simulator sim(c, opt);
    auto res = sim.batch_amplitudes(bits, open);
    ASSERT_TRUE(res.completed) << res.telemetry.error;
    cold = res.amplitudes;
  }
  api::Simulator sim(c, opt);
  auto res = sim.batch_amplitudes(bits, open);
  ASSERT_TRUE(res.completed) << res.telemetry.error;
  ASSERT_EQ(res.amplitudes.size(), cold.size());
  EXPECT_EQ(std::memcmp(res.amplitudes.data(), cold.data(),
                        cold.size() * sizeof(std::complex<double>)),
            0);
  EXPECT_EQ(res.open_qubits, open);
  EXPECT_EQ(sim.cache_stats().result.disk_hits, 1u);
}

TEST(SimulatorCache, ReadOnlyRunNeverPopulatesTheStore) {
  ScopedCacheDir dir;
  auto c = test::small_rqc(3, 3, 6, 13);
  api::SimulatorOptions opt;
  opt.plan.target_log2size = 6;
  opt.cache.cache_dir = dir.path;
  opt.cache.read_only = true;
  ASSERT_EQ(api::validate_options(opt), "");
  api::Simulator sim(c, opt);
  auto res = sim.amplitude(test::zero_bits(c.num_qubits));
  ASSERT_TRUE(res.completed) << res.telemetry.error;
  EXPECT_FALSE(file_exists(dir.path + "/plan"));
  EXPECT_FALSE(file_exists(dir.path + "/result"));

  // Incoherent combinations are refused by the shared gate, not ignored.
  api::SimulatorOptions bad;
  bad.cache.read_only = true;  // read-only with no disk to read
  EXPECT_NE(api::validate_options(bad), "");
  api::SimulatorOptions bad2;
  bad2.cache.cache_dir = dir.path;
  bad2.cache.plan_cache_entries = 0;
  bad2.cache.result_cache_entries = 0;  // a dir that caches nothing
  EXPECT_NE(api::validate_options(bad2), "");
}

}  // namespace
}  // namespace ltns::cache

// --- service duplicate-submit ----------------------------------------------

namespace ltns::dist {
namespace {

TEST(ServerCache, DuplicateSubmitIsServedFromCacheWithoutReexecution) {
  cache::ScopedCacheDir dir;
  ServerOptions so;
  so.cache.cache_dir = dir.path;

  JobServer server(0, so);
  const uint16_t port = server.port();
  std::string serve_err = "unset";
  std::thread server_thread([&] { serve_err = server.serve(); });
  std::thread worker([&] { serve_worker("127.0.0.1", port); });

  JobSpec spec;
  spec.tenant = "alice";
  auto c = test::small_rqc(3, 3, 8, 5);
  spec.circuit_text = circuit::circuit_to_string(c);
  spec.bits = "010101010";
  spec.target_log2size = 4;

  auto r1 = submit_job("127.0.0.1", port, spec);
  ASSERT_TRUE(r1.ok) << r1.message;
  auto rec1 = fetch_result("127.0.0.1", port, r1.job_id, /*wait=*/true);
  ASSERT_EQ(rec1.state, JobState::kDone) << rec1.error;
  EXPECT_GT(rec1.tasks_run, uint64_t(1));

  // The duplicate: a NEW job id, already COMPLETED at submit time, the
  // cached bytes — nothing queued, nothing executed.
  auto r2 = submit_job("127.0.0.1", port, spec);
  ASSERT_TRUE(r2.ok) << r2.message;
  EXPECT_NE(r2.job_id, r1.job_id);
  EXPECT_NE(r2.message.find("served from cache"), std::string::npos) << r2.message;

  auto rec2 = fetch_result("127.0.0.1", port, r2.job_id, /*wait=*/false);
  ASSERT_EQ(rec2.state, JobState::kDone) << rec2.error;
  EXPECT_EQ(rec2.job_id, r2.job_id);
  EXPECT_EQ(rec2.tenant, "alice");
  EXPECT_EQ(rec2.amplitude_re, rec1.amplitude_re);
  EXPECT_EQ(rec2.amplitude_im, rec1.amplitude_im);
  EXPECT_EQ(rec2.num_slices, rec1.num_slices);
  EXPECT_EQ(rec2.tasks_run, rec1.tasks_run);

  // The short-circuit is visible in the server snapshot.
  auto status = job_status_json("127.0.0.1", port, 0);
  EXPECT_NE(status.find("\"served_from_cache_total\":1"), std::string::npos) << status;
  EXPECT_NE(status.find("\"cache\""), std::string::npos) << status;

  // A different spec is NOT served from cache.
  JobSpec other = spec;
  other.bits = "101010101";
  auto r3 = submit_job("127.0.0.1", port, other);
  ASSERT_TRUE(r3.ok) << r3.message;
  EXPECT_EQ(r3.message.find("served from cache"), std::string::npos) << r3.message;
  auto rec3 = fetch_result("127.0.0.1", port, r3.job_id, /*wait=*/true);
  ASSERT_EQ(rec3.state, JobState::kDone) << rec3.error;

  auto rep = shutdown_server("127.0.0.1", port);
  EXPECT_TRUE(rep.ok) << rep.message;
  server_thread.join();
  worker.join();
  EXPECT_EQ(serve_err, "");
}

}  // namespace
}  // namespace ltns::dist
