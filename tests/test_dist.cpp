// Multi-process shard driver tests. The load-bearing invariants:
//   1. the shard plan partitions [0, 2^|S|) exactly — no gaps, no overlaps,
//      any process count — and windows decompose into tournament-aligned
//      blocks that tile them;
//   2. the wire protocol round-trips tensors and telemetry BIT-exactly,
//      rejects version/endianness skew with a clean error, and a dead peer
//      surfaces as EOF/error, never a hang;
//   3. the cross-process reduction is bitwise identical to the in-process
//      ReductionTree for any shard count (the ISSUE acceptance criterion);
//   4. a killed worker produces a clean error from the static run_sharded —
//      and under the ELASTIC driver a killed or straggling worker does NOT
//      fail the run: its leases are revoked/requeued, late results are
//      dropped (never double-merged), and the output stays bitwise
//      identical to a 1-process run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <complex>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <random>
#include <thread>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/simulator.hpp"
#include "core/greedy_slicer.hpp"
#include "dist/checkpoint.hpp"
#include "dist/elastic.hpp"
#include "dist/lease.hpp"
#include "dist/service.hpp"
#include "dist/shard_merge.hpp"
#include "dist/shard_plan.hpp"
#include "dist/wire.hpp"
#include "exec/shard_runner.hpp"
#include "exec/slice_runner.hpp"
#include "runtime/reduction.hpp"
#include "test_helpers.hpp"

namespace ltns::dist {
namespace {

TEST(ShardPlan, PartitionsExactlyForAnyProcessCount) {
  for (uint64_t total : {uint64_t(1), uint64_t(5), uint64_t(16), uint64_t(1000), uint64_t(4096)}) {
    for (int procs : {1, 2, 3, 4, 5, 7, 8, 64, 100}) {
      auto plan = make_shard_plan(total, procs);
      ASSERT_EQ(plan.size(), size_t(procs));
      uint64_t next = 0, sum = 0, largest = 0, smallest = UINT64_MAX;
      for (const auto& s : plan) {
        EXPECT_EQ(s.first, next) << "gap/overlap at total=" << total << " procs=" << procs;
        next = s.first + s.count;
        sum += s.count;
        largest = std::max(largest, s.count);
        smallest = std::min(smallest, s.count);
      }
      EXPECT_EQ(next, total);
      EXPECT_EQ(sum, total);
      // Balanced boundaries: shard sizes differ by at most one task.
      EXPECT_LE(largest - smallest, 1u) << "total=" << total << " procs=" << procs;
    }
  }
}

TEST(ShardPlan, AlignedBlocksTileAnyWindow) {
  for (uint64_t first : {uint64_t(0), uint64_t(1), uint64_t(5), uint64_t(21), uint64_t(64)}) {
    for (uint64_t count : {uint64_t(0), uint64_t(1), uint64_t(3), uint64_t(13), uint64_t(64)}) {
      auto blocks = aligned_blocks(first, count);
      uint64_t next = first;
      for (const auto& b : blocks) {
        EXPECT_EQ(b.first(), next);
        // Aligned: the block start is a multiple of the block size.
        EXPECT_EQ(b.first() % b.count(), 0u);
        next = b.first() + b.count();
      }
      EXPECT_EQ(next, first + count);
      if (count == 0) {
        EXPECT_TRUE(blocks.empty());
      }
    }
  }
}

exec::Tensor scalar_tensor(double v) { return exec::Tensor::scalar(exec::cfloat(float(v), 0)); }

// Sharded reduction == in-process ReductionTree, bit for bit: shards reduce
// their aligned blocks locally, the merger finishes the tournament.
TEST(ShardMerger, MatchesReductionTreeBitwiseForAnyShardCount) {
  auto value = [](uint64_t t) { return std::sin(double(t) + 0.25) / 7.0; };
  for (uint64_t total : {uint64_t(1), uint64_t(8), uint64_t(13), uint64_t(64), uint64_t(100)}) {
    runtime::ReductionTree ref(0, total);
    for (uint64_t t = 0; t < total; ++t) ref.add(t, scalar_tensor(value(t)));
    ASSERT_TRUE(ref.complete());
    auto expect = ref.take_root();

    for (int procs : {1, 2, 3, 4, 7}) {
      ShardMerger merger(total);
      // Walk shards in reverse so block arrival order differs from task
      // order — the merge result must not care.
      auto plan = make_shard_plan(total, procs);
      for (auto it = plan.rbegin(); it != plan.rend(); ++it) {
        for (const auto& b : aligned_blocks(it->first, it->count)) {
          runtime::ReductionTree local(b.first(), b.count());
          for (uint64_t t = b.first(); t < b.first() + b.count(); ++t)
            local.add(t, scalar_tensor(value(t)));
          ASSERT_TRUE(local.complete());
          merger.add(b.level, b.index, local.take_root());
        }
      }
      ASSERT_TRUE(merger.complete()) << "total=" << total << " procs=" << procs;
      auto got = merger.take_root();
      EXPECT_EQ(std::memcmp(expect.raw(), got.raw(), sizeof(exec::cfloat)), 0)
          << "total=" << total << " procs=" << procs;
    }
  }
}

// Wire-supplied block coordinates must be validated, not asserted: corrupt
// frames are a clean protocol error in release builds too.
TEST(ShardMerger, RejectsBlocksOutsideTheTaskRange) {
  ShardMerger m(16);
  EXPECT_THROW(m.add(-1, 0, scalar_tensor(1)), std::runtime_error);
  EXPECT_THROW(m.add(64, 0, scalar_tensor(1)), std::runtime_error);
  EXPECT_THROW(m.add(0, 16, scalar_tensor(1)), std::runtime_error);   // past the end
  EXPECT_THROW(m.add(2, 4, scalar_tensor(1)), std::runtime_error);    // [16, 20)
  EXPECT_THROW(m.add(0, uint64_t(1) << 60, scalar_tensor(1)), std::runtime_error);
  m.add(2, 3, scalar_tensor(1));  // [12, 16): still accepted afterwards
  EXPECT_FALSE(m.complete());
}

TEST(Wire, TensorRoundTripsBitExactly) {
  auto t = exec::random_tensor({3, 7, 11, 2}, 1234);
  ByteWriter w;
  put_tensor(w, t);
  ByteReader r(w.buffer());
  auto back = get_tensor(r);
  EXPECT_TRUE(r.exhausted());
  ASSERT_EQ(back.ixs(), t.ixs());
  ASSERT_EQ(back.size(), t.size());
  EXPECT_EQ(std::memcmp(back.raw(), t.raw(), t.size() * sizeof(exec::cfloat)), 0);
}

// A corrupt frame must be rejected BEFORE the 2^rank allocation: a huge
// claimed rank (or a size that disagrees with the rank) throws instead of
// attempting a petabyte zero-fill.
TEST(Wire, CorruptTensorRankOrSizeRejectedBeforeAllocating) {
  {
    ByteWriter w;  // rank=50 with 50 plausible index ids but tiny payload
    w.put<uint32_t>(50);
    for (int i = 0; i < 50; ++i) w.put<int32_t>(i);
    w.put<uint64_t>(4);
    ByteReader r(w.buffer());
    EXPECT_THROW(get_tensor(r), std::runtime_error);
  }
  {
    ByteWriter w;  // rank says 2 (4 elems) but size claims 3
    w.put<uint32_t>(2);
    w.put<int32_t>(0);
    w.put<int32_t>(1);
    w.put<uint64_t>(3);
    for (int i = 0; i < 3; ++i) w.put<uint64_t>(0);
    ByteReader r(w.buffer());
    EXPECT_THROW(get_tensor(r), std::runtime_error);
  }
}

TEST(Wire, TelemetryRoundTripsExactly) {
  ShardTelemetry t;
  t.shard = 3;
  t.first = 1024;
  t.count = 512;
  t.tasks_run = 512;
  t.leases = 9;
  t.reduce_merges = 511;
  t.wall_seconds = 0.123456789;
  t.backend = "simd";
  t.executor.scheduled = 512;
  t.executor.stolen = 17;
  t.executor.finished = 512;
  t.executor.ema_utilization = 0.876543;
  t.executor.ranges_stolen = 3;
  t.executor.ranges_reissued = 2;
  t.executor.straggler_wait_seconds = 0.375;
  t.executor.gemm = {512, 1.5};
  t.executor.reduce = {511, 0.25};
  t.executor.device.bytes_to_device = 8192.5;
  t.executor.device.gemm_calls = 512;
  t.executor.device.stem_steps = 7;
  t.memory.main_bytes = 1e9 + 0.5;
  t.memory.ldm_peak_elems = 32768;
  t.exec.flops = 2.5e12;
  t.exec.peak_live_elems = 99;

  ByteWriter w;
  put_telemetry(w, t);
  ByteReader r(w.buffer());
  auto b = get_telemetry(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(b.shard, t.shard);
  EXPECT_EQ(b.first, t.first);
  EXPECT_EQ(b.count, t.count);
  EXPECT_EQ(b.tasks_run, t.tasks_run);
  EXPECT_EQ(b.reduce_merges, t.reduce_merges);
  EXPECT_EQ(b.wall_seconds, t.wall_seconds);  // exact: raw bit pattern
  EXPECT_EQ(b.leases, t.leases);
  EXPECT_EQ(b.executor.stolen, t.executor.stolen);
  EXPECT_EQ(b.executor.ema_utilization, t.executor.ema_utilization);
  EXPECT_EQ(b.executor.ranges_stolen, t.executor.ranges_stolen);
  EXPECT_EQ(b.executor.ranges_reissued, t.executor.ranges_reissued);
  EXPECT_EQ(b.executor.straggler_wait_seconds, t.executor.straggler_wait_seconds);
  EXPECT_EQ(b.executor.gemm.count, t.executor.gemm.count);
  EXPECT_EQ(b.executor.gemm.seconds, t.executor.gemm.seconds);
  EXPECT_EQ(b.backend, t.backend);
  EXPECT_EQ(b.executor.device.bytes_to_device, t.executor.device.bytes_to_device);
  EXPECT_EQ(b.executor.device.gemm_calls, t.executor.device.gemm_calls);
  EXPECT_EQ(b.executor.device.stem_steps, t.executor.device.stem_steps);
  EXPECT_EQ(b.memory.main_bytes, t.memory.main_bytes);
  EXPECT_EQ(b.memory.ldm_peak_elems, t.memory.ldm_peak_elems);
  EXPECT_EQ(b.exec.flops, t.exec.flops);
  EXPECT_EQ(b.exec.peak_live_elems, t.exec.peak_live_elems);
}

TEST(Wire, FramesRoundTripOverSocketpairAndEofIsClean) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ByteWriter w;
  w.put_string("hello shard");
  write_frame(sv[0], FrameType::kError, w);
  write_frame(sv[0], FrameType::kDone, nullptr, 0);
  ::close(sv[0]);

  Frame f;
  ASSERT_TRUE(read_frame(sv[1], &f));
  EXPECT_EQ(f.type, FrameType::kError);
  ByteReader r(f.payload);
  EXPECT_EQ(r.get_string(), "hello shard");
  ASSERT_TRUE(read_frame(sv[1], &f));
  EXPECT_EQ(f.type, FrameType::kDone);
  EXPECT_TRUE(f.payload.empty());
  // Peer gone at a frame boundary: clean EOF, not an exception.
  EXPECT_FALSE(read_frame(sv[1], &f));
  ::close(sv[1]);
}

// Hand-builds one v2 header (pinning the wire layout: magic u32, version
// u16, endianness u8, type u8, payload_len u64 = 16 bytes).
ByteWriter make_header(uint32_t magic, uint16_t version, uint8_t endian, FrameType type,
                       uint64_t payload_len) {
  ByteWriter h;
  h.put<uint32_t>(magic);
  h.put<uint16_t>(version);
  h.put<uint8_t>(endian);
  h.put<uint8_t>(uint8_t(type));
  h.put<uint64_t>(payload_len);
  return h;
}

std::string read_frame_error(ByteWriter header, const void* payload = nullptr,
                             size_t payload_len = 0) {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  EXPECT_EQ(::write(sv[0], header.buffer().data(), header.buffer().size()),
            ssize_t(header.buffer().size()));
  if (payload_len > 0) {
    EXPECT_EQ(::write(sv[0], payload, payload_len), ssize_t(payload_len));
  }
  ::close(sv[0]);
  std::string what;
  Frame f;
  try {
    read_frame(sv[1], &f);
  } catch (const std::exception& e) {
    what = e.what();
  }
  ::close(sv[1]);
  return what;
}

TEST(Wire, TruncatedFrameThrows) {
  // A header promising 100 payload bytes, followed by only 3 — then death.
  auto err = read_frame_error(
      make_header(kWireMagic, kWireVersion, host_endian(), FrameType::kBlock, 100), "abc", 3);
  EXPECT_NE(err.find("mid-frame"), std::string::npos) << err;
}

// A forged header claiming 2^39 payload bytes (under the 1 TiB cap) must
// cost memory in proportion to what actually arrives: the peer's death a
// few bytes in surfaces as the ordinary truncation error, with no 512 GiB
// allocation attempted first.
TEST(Wire, ForgedHugeLengthFailsWithoutAllocatingIt) {
  auto err = read_frame_error(make_header(kWireMagic, kWireVersion, host_endian(),
                                          FrameType::kBlock, uint64_t(1) << 39),
                              "abcdefgh", 8);
  EXPECT_NE(err.find("peer closed mid-frame"), std::string::npos) << err;
}

// A payload several times the first receive buffer crosses every growth
// step of read_frame and must arrive byte for byte.
TEST(Wire, LargePayloadRoundTripsThroughBufferGrowth) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::vector<uint8_t> sent((size_t(5) << 20) + 123);
  for (size_t i = 0; i < sent.size(); ++i) sent[i] = uint8_t(i * 131 + (i >> 13));
  // The writer blocks until the reader drains the socket, so it needs its
  // own thread; both sides catch, so a failure reaches the assertions
  // below with the thread joined.
  std::thread writer([&] {
    try {
      write_frame(sv[0], FrameType::kBlock, sent.data(), sent.size());
    } catch (const std::exception&) {
    }
    ::close(sv[0]);
  });
  Frame f;
  bool got = false;
  std::string err;
  try {
    got = read_frame(sv[1], &f);
  } catch (const std::exception& e) {
    err = e.what();
  }
  ::shutdown(sv[1], SHUT_RD);  // unblocks the writer if the read stopped early
  writer.join();
  ::close(sv[1]);
  ASSERT_TRUE(got) << err;
  EXPECT_EQ(f.type, FrameType::kBlock);
  EXPECT_TRUE(f.payload == sent);
}

TEST(Wire, BadMagicThrows) {
  auto err =
      read_frame_error(make_header(0xDEADBEEFu, kWireVersion, host_endian(), FrameType::kDone, 0));
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
}

// The ROADMAP follow-up to PR 2: version skew between peers must be a clean
// protocol error naming both versions, never silently misparsed frames.
TEST(Wire, WrongVersionFrameRejected) {
  auto err = read_frame_error(
      make_header(kWireMagic, uint16_t(kWireVersion + 1), host_endian(), FrameType::kDone, 0));
  EXPECT_NE(err.find("version mismatch"), std::string::npos) << err;
  EXPECT_NE(err.find("v" + std::to_string(kWireVersion + 1)), std::string::npos) << err;
  auto v1 = read_frame_error(make_header(kWireMagic, 1, host_endian(), FrameType::kDone, 0));
  EXPECT_NE(v1.find("version mismatch"), std::string::npos) << v1;
}

// The payload ships raw IEEE bit patterns, so a heterogeneous-endian fleet
// must be rejected up front with the precise error — covering both the
// tag-only case and what a REAL foreign peer sends (every multi-byte
// field byte-swapped, magic included).
TEST(Wire, WrongEndianFrameRejected) {
  const uint8_t foreign =
      host_endian() == kWireEndianLittle ? kWireEndianBig : kWireEndianLittle;
  auto err = read_frame_error(make_header(kWireMagic, kWireVersion, foreign, FrameType::kDone, 0));
  EXPECT_NE(err.find("endianness mismatch"), std::string::npos) << err;

  // A genuine foreign-endian peer: swapped magic and version, its own
  // endianness tag. The swapped magic is the detection signal.
  auto real = read_frame_error(make_header(__builtin_bswap32(kWireMagic),
                                           __builtin_bswap16(kWireVersion), foreign,
                                           FrameType::kDone, 0));
  EXPECT_NE(real.find("endianness mismatch"), std::string::npos) << real;
  EXPECT_NE(real.find("byte-swapped"), std::string::npos) << real;
}

// A peer still running PR 2's v1 binary sends the OLD 24-byte header
// {magic u32, version u32, type u32, pad u32, len u64}; its first 16
// bytes must parse into the precise version error, not endian nonsense.
TEST(Wire, RealV1HeaderReportsVersionMismatch) {
  ByteWriter h;
  h.put<uint32_t>(kWireMagic);
  h.put<uint32_t>(1);  // v1's u32 version field
  h.put<uint32_t>(5);  // v1 kDone
  h.put<uint32_t>(0);  // v1 header padding
  h.put<uint64_t>(0);
  auto err = read_frame_error(h);
  EXPECT_NE(err.find("version mismatch"), std::string::npos) << err;
  EXPECT_NE(err.find("peer v1"), std::string::npos) << err;
}

// --- elastic lease bookkeeping -------------------------------------------

// Reduces [first, first+count) the way a worker does (aligned blocks, each
// through a local ReductionTree) and ships the partials into the ledger.
void compute_lease(LeaseLedger& ledger, int worker, const Lease& l,
                   const std::function<double(uint64_t)>& value) {
  for (const auto& b : aligned_blocks(l.first, l.count)) {
    runtime::ReductionTree local(b.first(), b.count());
    for (uint64_t t = b.first(); t < b.first() + b.count(); ++t)
      local.add(t, scalar_tensor(value(t)));
    ASSERT_TRUE(local.complete());
    ledger.add_block(worker, l.id, b.level, b.index, local.take_root());
  }
}

TEST(LeaseLedger, TilesTheRangeAndPrefersHomeWindows) {
  const uint64_t total = 100;
  LeaseLedger ledger(total, /*home_workers=*/3, /*lease_size=*/7);
  // Every range a worker acquires from its own home window lies inside the
  // static shard plan's window for that worker, in task order.
  auto plan = make_shard_plan(total, 3);
  ShardMerger merger(total);
  auto value = [](uint64_t t) { return std::cos(double(t)) / 3.0; };
  uint64_t covered = 0;
  uint64_t expect_next[3] = {plan[0].first, plan[1].first, plan[2].first};
  bool progress = true;
  while (progress) {
    progress = false;
    for (int w = 0; w < 3; ++w) {  // round-robin: all windows drain evenly
      Lease l;
      if (!ledger.acquire(w, &l)) continue;
      progress = true;
      // Own home window, walked in task order — with balanced demand
      // nobody needs to steal.
      EXPECT_EQ(l.first, expect_next[size_t(w)]);
      EXPECT_LE(l.first + l.count, plan[size_t(w)].first + plan[size_t(w)].count);
      expect_next[size_t(w)] = l.first + l.count;
      compute_lease(ledger, w, l, value);
      EXPECT_TRUE(ledger.complete(w, l.id, &merger));
      covered += l.count;
    }
  }
  EXPECT_EQ(covered, total);
  EXPECT_TRUE(ledger.done());
  EXPECT_TRUE(merger.complete());
  EXPECT_EQ(ledger.stats().leases_issued, ledger.stats().leases_completed);
  EXPECT_EQ(ledger.stats().ranges_stolen, 0u);

  // Same range, but one worker does everything: it must steal every range
  // outside its home window, and the merged root must be bit-identical.
  runtime::ReductionTree ref(0, total);
  for (uint64_t t = 0; t < total; ++t) ref.add(t, scalar_tensor(value(t)));
  auto expect = ref.take_root();

  LeaseLedger solo(total, 3, 7);
  ShardMerger merger2(total);
  Lease l;
  uint64_t stolen_tasks = 0;
  while (solo.acquire(0, &l)) {
    if (l.first >= plan[0].first + plan[0].count) stolen_tasks += l.count;
    compute_lease(solo, 0, l, value);
    EXPECT_TRUE(solo.complete(0, l.id, &merger2));
  }
  EXPECT_TRUE(solo.done());
  EXPECT_GT(solo.stats().ranges_stolen, 0u);
  EXPECT_EQ(stolen_tasks, total - plan[0].count);
  auto got = merger2.take_root();
  EXPECT_EQ(std::memcmp(expect.raw(), got.raw(), sizeof(exec::cfloat)), 0);
}

// The ISSUE edge case: a lease is revoked while its result frames are
// already in flight. The late blocks AND the late kRangeDone must be
// dropped — the range was re-issued to a peer and merging both copies
// would double-count it.
TEST(LeaseLedger, LateResultAfterRevokeIsDroppedNotDoubleMerged) {
  const uint64_t total = 16;
  auto value = [](uint64_t t) { return std::sin(double(t) + 0.5); };
  runtime::ReductionTree ref(0, total);
  for (uint64_t t = 0; t < total; ++t) ref.add(t, scalar_tensor(value(t)));
  auto expect = ref.take_root();

  LeaseLedger ledger(total, 2, 4);
  ShardMerger merger(total);
  Lease slow;
  ASSERT_TRUE(ledger.acquire(0, &slow));  // worker 0 takes [0, 4)
  // Worker 0 ships its blocks... and then stalls: the coordinator revokes.
  compute_lease(ledger, 0, slow, value);
  ledger.revoke_worker(0, /*lost=*/false);
  EXPECT_EQ(ledger.stats().ranges_requeued, 1u);

  // Worker 1 picks the requeued range back up (a re-issue) and completes it.
  Lease reissued;
  ASSERT_TRUE(ledger.acquire(1, &reissued));
  EXPECT_EQ(reissued.first, slow.first);
  EXPECT_EQ(reissued.count, slow.count);
  EXPECT_EQ(ledger.stats().ranges_reissued, 1u);
  compute_lease(ledger, 1, reissued, value);
  EXPECT_TRUE(ledger.complete(1, reissued.id, &merger));

  // Worker 0 wakes up: its kRangeDone (and any stray block) for the
  // revoked lease must be dropped, not merged a second time.
  EXPECT_FALSE(ledger.complete(0, slow.id, &merger));
  EXPECT_FALSE(ledger.add_block(0, slow.id, 2, 0, scalar_tensor(99)));
  EXPECT_GE(ledger.stats().late_results_dropped, 2u);

  // Drain the rest of the range and check the root is still bit-identical.
  Lease l;
  for (int w : {0, 1}) {
    while (ledger.acquire(w, &l)) {
      compute_lease(ledger, w, l, value);
      EXPECT_TRUE(ledger.complete(w, l.id, &merger));
    }
  }
  ASSERT_TRUE(ledger.done());
  ASSERT_TRUE(merger.complete());
  auto got = merger.take_root();
  EXPECT_EQ(std::memcmp(expect.raw(), got.raw(), sizeof(exec::cfloat)), 0);
}

// The other ISSUE edge case: the worker holding the FINAL outstanding
// range dies. Its lease must be requeued and completable by a peer — the
// run must not deadlock on a range nobody owns.
TEST(LeaseLedger, DeadWorkerHoldingFinalRangeIsRequeued) {
  const uint64_t total = 12;
  auto value = [](uint64_t t) { return double(t) * 0.125 - 0.4; };
  LeaseLedger ledger(total, 2, 3);
  ShardMerger merger(total);

  // Worker 0 does everything except the last range, which worker 1 holds.
  Lease last;
  ASSERT_TRUE(ledger.acquire(1, &last));
  Lease l;
  while (ledger.acquire(0, &l)) {
    compute_lease(ledger, 0, l, value);
    ASSERT_TRUE(ledger.complete(0, l.id, &merger));
  }
  ASSERT_FALSE(ledger.done());  // one range outstanding, queue empty
  EXPECT_EQ(ledger.pending_ranges(), 0u);
  EXPECT_EQ(ledger.active_leases(), 1u);

  // Worker 1 dies holding it.
  ledger.revoke_worker(1, /*lost=*/true);
  EXPECT_EQ(ledger.stats().workers_lost, 1u);
  ASSERT_EQ(ledger.pending_ranges(), 1u);

  ASSERT_TRUE(ledger.acquire(0, &l));
  EXPECT_EQ(l.first, last.first);
  EXPECT_EQ(l.count, last.count);
  compute_lease(ledger, 0, l, value);
  ASSERT_TRUE(ledger.complete(0, l.id, &merger));
  EXPECT_TRUE(ledger.done());
  EXPECT_TRUE(merger.complete());

  runtime::ReductionTree ref(0, total);
  for (uint64_t t = 0; t < total; ++t) ref.add(t, scalar_tensor(value(t)));
  auto expect = ref.take_root();
  auto got = merger.take_root();
  EXPECT_EQ(std::memcmp(expect.raw(), got.raw(), sizeof(exec::cfloat)), 0);
}

// --- durable run ledger: checkpoint save / replay -------------------------

// Throwaway spill directory for the checkpoint tests.
struct ScopedTempDir {
  std::string path;
  ScopedTempDir() {
    char tmpl[] = "/tmp/ltns_ckpt_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path = p != nullptr ? p : "/tmp/ltns_ckpt_fallback";
  }
  ~ScopedTempDir() {
    ::unlink((path + "/ledger.journal").c_str());
    ::rmdir(path.c_str());
  }
};

TEST(Checkpoint, WriterScanAndHealthRoundTrip) {
  ScopedTempDir dir;
  CheckpointMeta meta{32, 2, 4, "run-abc"};
  {
    CheckpointWriter w(dir.path, meta, /*fsync_interval=*/0);
    std::vector<LedgerBlock> blocks;
    blocks.push_back({2, 0, exec::random_tensor({1, 2}, 7)});
    w.on_range_complete(0, 4, blocks);
    blocks.clear();
    blocks.push_back({2, 1, exec::random_tensor({3, 4}, 8)});
    w.on_range_complete(4, 4, blocks);
    EXPECT_EQ(w.ranges_journaled(), 2u);
    EXPECT_GT(w.journal_bytes(), 0u);
    auto health = w.health_json();
    EXPECT_NE(health.find("\"journal_bytes\""), std::string::npos) << health;
    EXPECT_NE(health.find("\"last_fsync_age_seconds\""), std::string::npos) << health;
    EXPECT_NE(health.find("\"dirty\":false"), std::string::npos) << health;  // fsync-every-record
  }
  auto scan = scan_checkpoint(dir.path);
  EXPECT_TRUE(scan.has_meta);
  EXPECT_EQ(scan.meta.total, 32u);
  EXPECT_EQ(scan.meta.home_workers, 2);
  EXPECT_EQ(scan.meta.lease_size, 4u);
  EXPECT_EQ(scan.meta.run_id, "run-abc");
  EXPECT_EQ(scan.ranges, 2u);
  EXPECT_EQ(scan.tasks, 8u);
  EXPECT_FALSE(scan.torn_tail);

  // A missing spill dir is a clean empty scan, not an error.
  auto none = scan_checkpoint(dir.path + "/nonexistent");
  EXPECT_FALSE(none.has_meta);
  EXPECT_EQ(none.valid_bytes, 0u);
}

// The satellite property test: random ledger states — arbitrary worker
// interleavings, steals, revokes, and a crash at an arbitrary point —
// survive save/replay bitwise. The resumed ledger + merger, after draining
// the unfinished remainder, must produce the exact bytes of an
// uninterrupted ReductionTree over the full range.
TEST(Checkpoint, RandomLedgerStatesSurviveSaveReplayBitwise) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const uint64_t total = 1 + rng() % 200;
    const int homes = 1 + int(rng() % 5);
    const uint64_t lease_size = 1 + rng() % 9;
    auto value = [seed](uint64_t t) { return std::sin(double(t) * 0.7 + double(seed)); };

    runtime::ReductionTree ref(0, total);
    for (uint64_t t = 0; t < total; ++t) ref.add(t, scalar_tensor(value(t)));
    auto expect = ref.take_root();

    ScopedTempDir dir;
    uint64_t journaled_ranges = 0;
    uint64_t journaled_tasks = 0;
    CheckpointMeta meta;
    {
      // The "first life" of the coordinator: random workers acquire,
      // compute, complete (journaled); some leases are revoked while held
      // (their requeued ranges may complete later, or not before the
      // crash). Stop at a random point — possibly before anything,
      // possibly after everything.
      LeaseLedger a(total, homes, lease_size);
      meta = CheckpointMeta{total, int32_t(homes), a.lease_size(),
                            "prop-" + std::to_string(seed)};
      CheckpointWriter w(dir.path, meta, 0);
      ShardMerger ma(total);
      const uint64_t stop_after = rng() % (total / a.lease_size() + 2);
      while (!a.done() && journaled_ranges < stop_after) {
        const int worker = int(rng() % uint64_t(homes));
        Lease l;
        if (!a.acquire(worker, &l)) continue;
        if (rng() % 5 == 0) {
          a.revoke_worker(worker, /*lost=*/false);  // crash-adjacent chaos
          continue;
        }
        compute_lease(a, worker, l, value);
        ASSERT_TRUE(a.complete(worker, l.id, &ma, &w));
        ++journaled_ranges;
        journaled_tasks += l.count;
      }
      // The coordinator "crashes" here: ledger + merger lost, journal kept.
    }

    // Second life: fresh ledger + merger, replay, then drain what's left.
    LeaseLedger b(total, homes, lease_size);
    ShardMerger mb(total);
    auto scan = replay_checkpoint(dir.path, meta, &b, &mb);
    ASSERT_TRUE(scan.has_meta);
    EXPECT_EQ(scan.ranges, journaled_ranges) << "seed=" << seed;
    EXPECT_EQ(scan.tasks, journaled_tasks);
    EXPECT_EQ(b.stats().ranges_replayed, journaled_ranges);
    EXPECT_EQ(b.stats().tasks_replayed, journaled_tasks);
    EXPECT_EQ(b.tasks_done(), journaled_tasks);

    CheckpointWriter w2(dir.path, scan.valid_bytes, 0);
    uint64_t resumed_tasks = 0;
    while (!b.done()) {
      const int worker = int(rng() % uint64_t(homes));
      Lease l;
      if (!b.acquire(worker, &l)) continue;
      compute_lease(b, worker, l, value);
      ASSERT_TRUE(b.complete(worker, l.id, &mb, &w2));
      resumed_tasks += l.count;
    }
    EXPECT_EQ(journaled_tasks + resumed_tasks, total) << "seed=" << seed;
    ASSERT_TRUE(mb.complete()) << "seed=" << seed;
    auto got = mb.take_root();
    EXPECT_EQ(std::memcmp(expect.raw(), got.raw(), sizeof(exec::cfloat)), 0)
        << "resumed run diverged, seed=" << seed;

    // The appended journal now records the whole run.
    auto final_scan = scan_checkpoint(dir.path);
    EXPECT_EQ(final_scan.tasks, total);
    EXPECT_FALSE(final_scan.torn_tail);
  }
}

// A coordinator dying MID-write leaves a torn tail. Replay must stop at
// the last durable record (recomputing the torn range is always safe), and
// the appending writer must truncate the garbage so the journal stays a
// pure record stream.
TEST(Checkpoint, TornTailIsTruncatedAndRangeRecomputed) {
  const uint64_t total = 24;
  auto value = [](uint64_t t) { return std::cos(double(t)) * 0.5; };
  runtime::ReductionTree ref(0, total);
  for (uint64_t t = 0; t < total; ++t) ref.add(t, scalar_tensor(value(t)));
  auto expect = ref.take_root();

  ScopedTempDir dir;
  CheckpointMeta meta;
  {
    LeaseLedger a(total, 2, 4);
    meta = CheckpointMeta{total, 2, a.lease_size(), "torn"};
    CheckpointWriter w(dir.path, meta, 0);
    ShardMerger ma(total);
    for (int k = 0; k < 2; ++k) {
      Lease l;
      ASSERT_TRUE(a.acquire(0, &l));
      compute_lease(a, 0, l, value);
      ASSERT_TRUE(a.complete(0, l.id, &ma, &w));
    }
  }
  // Simulate the mid-write crash: half a header plus junk at the tail.
  {
    std::ofstream f(dir.path + "/ledger.journal", std::ios::app | std::ios::binary);
    f.write("\x4a\x4e\x54\x4cgarbage", 11);
  }
  auto scan = scan_checkpoint(dir.path);
  EXPECT_EQ(scan.ranges, 2u);
  EXPECT_TRUE(scan.torn_tail);

  LeaseLedger b(total, 2, 4);
  ShardMerger mb(total);
  auto replayed = replay_checkpoint(dir.path, meta, &b, &mb);
  EXPECT_EQ(replayed.ranges, 2u);
  EXPECT_TRUE(replayed.torn_tail);

  CheckpointWriter w2(dir.path, replayed.valid_bytes, 0);
  Lease l;
  while (b.acquire(1, &l)) {
    compute_lease(b, 1, l, value);
    ASSERT_TRUE(b.complete(1, l.id, &mb, &w2));
  }
  ASSERT_TRUE(b.done());
  ASSERT_TRUE(mb.complete());
  auto got = mb.take_root();
  EXPECT_EQ(std::memcmp(expect.raw(), got.raw(), sizeof(exec::cfloat)), 0);

  auto final_scan = scan_checkpoint(dir.path);
  EXPECT_EQ(final_scan.tasks, total);
  EXPECT_FALSE(final_scan.torn_tail);  // the garbage was truncated away
}

// Resuming someone else's journal must die loudly BEFORE anything reaches
// the merger: a different tiling, and a different job fingerprint, are
// both config skew — merging foreign tensors would corrupt the tournament.
TEST(Checkpoint, MismatchedJournalIsRefused) {
  const uint64_t total = 16;
  ScopedTempDir dir;
  CheckpointMeta meta{total, 2, 4, "job-A"};
  {
    LeaseLedger a(total, 2, 4);
    CheckpointWriter w(dir.path, meta, 0);
    ShardMerger ma(total);
    Lease l;
    ASSERT_TRUE(a.acquire(0, &l));
    compute_lease(a, 0, l, [](uint64_t t) { return double(t); });
    ASSERT_TRUE(a.complete(0, l.id, &ma, &w));
  }
  {
    LeaseLedger b(total, 2, 2);  // different lease size -> different tiling
    ShardMerger mb(total);
    CheckpointMeta expect{total, 2, 2, "job-A"};
    EXPECT_THROW(replay_checkpoint(dir.path, expect, &b, &mb), std::runtime_error);
  }
  {
    LeaseLedger b(total, 2, 4);
    ShardMerger mb(total);
    CheckpointMeta expect{total, 2, 4, "job-B"};  // different fingerprint
    EXPECT_THROW(replay_checkpoint(dir.path, expect, &b, &mb), std::runtime_error);
    EXPECT_EQ(b.stats().ranges_replayed, 0u);
  }
  {
    LeaseLedger b(total, 2, 4);  // the matching resume still works
    ShardMerger mb(total);
    auto scan = replay_checkpoint(dir.path, CheckpointMeta{total, 2, 4, "job-A"}, &b, &mb);
    EXPECT_EQ(scan.ranges, 1u);
  }
}

// Journal compaction (the PR 5 carry-over): coalescing completed ranges
// into spans and rewriting the journal must change NOTHING observable —
// the compacted journal replays to the same ledger state, and the resumed
// run produces the exact bytes of an uninterrupted one. Property-tested
// over random partial runs, like the save/replay test above.
TEST(Checkpoint, CompactedJournalResumesBitwiseIdentical) {
  for (uint64_t seed = 21; seed <= 28; ++seed) {
    std::mt19937_64 rng(seed);
    const uint64_t total = 1 + rng() % 200;
    const int homes = 1 + int(rng() % 5);
    const uint64_t lease_size = 1 + rng() % 9;
    auto value = [seed](uint64_t t) { return std::sin(double(t) * 0.9 + double(seed)); };

    runtime::ReductionTree ref(0, total);
    for (uint64_t t = 0; t < total; ++t) ref.add(t, scalar_tensor(value(t)));
    auto expect = ref.take_root();

    ScopedTempDir dir;
    uint64_t journaled_tasks = 0;
    CheckpointMeta meta;
    {
      LeaseLedger a(total, homes, lease_size);
      meta = CheckpointMeta{total, int32_t(homes), a.lease_size(),
                            "compact-" + std::to_string(seed)};
      CheckpointWriter w(dir.path, meta, 0);
      ShardMerger ma(total);
      const uint64_t stop_after = rng() % (total / a.lease_size() + 2);
      uint64_t journaled_ranges = 0;
      while (!a.done() && journaled_ranges < stop_after) {
        const int worker = int(rng() % uint64_t(homes));
        Lease l;
        if (!a.acquire(worker, &l)) continue;
        if (rng() % 5 == 0) {
          a.revoke_worker(worker, /*lost=*/false);
          continue;
        }
        compute_lease(a, worker, l, value);
        ASSERT_TRUE(a.complete(worker, l.id, &ma, &w));
        ++journaled_ranges;
        journaled_tasks += l.count;
      }
    }

    const auto st = compact_checkpoint(dir.path);
    if (st.compacted) {
      EXPECT_LE(st.bytes_after, st.bytes_before) << "seed=" << seed;
      EXPECT_LE(st.ranges_after, st.ranges_before) << "seed=" << seed;
    }
    // The compacted journal claims the same work (record COUNT may shrink
    // — spans coalesce leases — but the task sum must not move a task).
    auto scan0 = scan_checkpoint(dir.path);
    EXPECT_EQ(scan0.tasks, journaled_tasks) << "seed=" << seed;
    EXPECT_FALSE(scan0.torn_tail);

    // Resume from the compacted journal and drain the remainder: the root
    // must equal the uninterrupted reference bit for bit.
    LeaseLedger b(total, homes, lease_size);
    ShardMerger mb(total);
    auto scan = replay_checkpoint(dir.path, meta, &b, &mb);
    ASSERT_TRUE(scan.has_meta) << "seed=" << seed;
    EXPECT_EQ(b.tasks_done(), journaled_tasks) << "seed=" << seed;
    EXPECT_EQ(b.stats().tasks_replayed, journaled_tasks);

    CheckpointWriter w2(dir.path, scan.valid_bytes, 0);
    while (!b.done()) {
      const int worker = int(rng() % uint64_t(homes));
      Lease l;
      if (!b.acquire(worker, &l)) continue;
      compute_lease(b, worker, l, value);
      ASSERT_TRUE(b.complete(worker, l.id, &mb, &w2));
    }
    ASSERT_TRUE(mb.complete()) << "seed=" << seed;
    auto got = mb.take_root();
    EXPECT_EQ(std::memcmp(expect.raw(), got.raw(), sizeof(exec::cfloat)), 0)
        << "compacted-then-resumed run diverged, seed=" << seed;

    // Compacting twice is a no-op (already minimal), and compacting a
    // journal-less directory is a clean no-op, not an error.
    auto again = compact_checkpoint(dir.path);
    auto scan1 = scan_checkpoint(dir.path);
    EXPECT_EQ(scan1.tasks, total) << "seed=" << seed;
    (void)again;
    EXPECT_FALSE(compact_checkpoint(dir.path + "/nonexistent").compacted);
  }
}

// A fully completed run's journal compacts to ONE span record covering
// [0, total) — the shape the post-completion compaction hooks leave on
// disk — and a torn tail is dropped by the rewrite.
TEST(Checkpoint, CompactionCoalescesCompletedRunToOneSpan) {
  const uint64_t total = 32;
  auto value = [](uint64_t t) { return double(t) * 0.25; };
  ScopedTempDir dir;
  CheckpointMeta meta;
  {
    LeaseLedger a(total, 2, 4);
    meta = CheckpointMeta{total, 2, a.lease_size(), "one-span"};
    CheckpointWriter w(dir.path, meta, 0);
    ShardMerger ma(total);
    Lease l;
    while (a.acquire(0, &l)) {
      compute_lease(a, 0, l, value);
      ASSERT_TRUE(a.complete(0, l.id, &ma, &w));
    }
    ASSERT_TRUE(a.done());
  }
  {
    std::ofstream f(dir.path + "/ledger.journal", std::ios::app | std::ios::binary);
    f.write("torn-tail-junk", 14);
  }
  const auto st = compact_checkpoint(dir.path);
  EXPECT_TRUE(st.compacted);
  EXPECT_EQ(st.ranges_after, 1u);
  EXPECT_GT(st.ranges_before, 1u);
  auto scan = scan_checkpoint(dir.path);
  EXPECT_EQ(scan.ranges, 1u);
  EXPECT_EQ(scan.tasks, total);
  EXPECT_FALSE(scan.torn_tail);

  // The single span replays into a COMPLETE ledger and merger.
  LeaseLedger b(total, 2, 4);
  ShardMerger mb(total);
  replay_checkpoint(dir.path, meta, &b, &mb);
  EXPECT_TRUE(b.done());
  ASSERT_TRUE(mb.complete());
  runtime::ReductionTree ref(0, total);
  for (uint64_t t = 0; t < total; ++t) ref.add(t, scalar_tensor(value(t)));
  auto expect = ref.take_root();
  auto got = mb.take_root();
  EXPECT_EQ(std::memcmp(expect.raw(), got.raw(), sizeof(exec::cfloat)), 0);
}

// Satellite: `coordinate --status` reports spill-dir health once
// checkpointing is on — journal size and fsync age ride the JSON.
TEST(Checkpoint, StatusJsonReportsSpillHealth) {
  ScopedTempDir dir;
  ElasticOptions eo;
  ElasticCoordinator coord(16, 2, eo);
  {
    const auto before = coord.status_json();
    EXPECT_EQ(before.find("\"spill\""), std::string::npos) << before;
  }
  CheckpointMeta meta{16, 2, coord.ledger().lease_size(), "status"};
  CheckpointWriter w(dir.path, meta, 0);
  coord.set_journal(&w);
  const auto json = coord.status_json();
  EXPECT_NE(json.find("\"spill\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"journal_bytes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"last_fsync_age_seconds\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ranges_replayed\":0"), std::string::npos) << json;
}

// --- run_sharded over a real sliced contraction --------------------------

struct SlicedFixture {
  circuit::LoweredNetwork ln;
  std::shared_ptr<tn::ContractionTree> tree;
  core::SliceSet slices;

  exec::LeafProvider leaves() const {
    return [this](tn::VertId v) -> const exec::Tensor& { return ln.tensors[size_t(v)]; };
  }
};

// Fixture with an exact slice count (the greedy slicer overshoots on this
// tiny network): pick `num_slices` edges from a generous greedy set, so the
// task range 2^|S| stays small enough to fork a process per task.
SlicedFixture make_sliced_fixture(int num_slices = 4) {
  SlicedFixture f{test::small_network(3, 4, 6), nullptr, core::SliceSet{}};
  f.tree = std::make_shared<tn::ContractionTree>(test::greedy_tree(f.ln.net));
  core::GreedySlicerOptions go;
  go.target_log2size = std::max(2.0, f.tree->max_log2size() - 3.0);
  auto candidates = core::greedy_slice(*f.tree, go).to_vector();
  EXPECT_GE(candidates.size(), size_t(num_slices));
  core::SliceSet s(f.ln.net);
  for (int i = 0; i < num_slices && i < int(candidates.size()); ++i) s.add(candidates[size_t(i)]);
  f.slices = s;
  return f;
}

using test::bitwise_equal;

TEST(RunSharded, BitwiseIdenticalToRunSlicedForAnyProcessCount) {
  auto f = make_sliced_fixture();
  ASSERT_GE(f.slices.size(), 2);
  const uint64_t all = uint64_t(1) << f.slices.size();

  exec::SliceRunOptions serial;
  serial.executor = exec::SliceExecutor::kInnerPool;
  ThreadPool pool1(1);
  serial.pool = &pool1;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, serial);
  ASSERT_TRUE(ref.completed);

  for (int procs : {1, 2, 3, 4}) {
    exec::ShardRunOptions so;
    so.processes = procs;
    so.workers_per_process = 1;  // keep worker processes single-threaded
    auto r = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
    ASSERT_TRUE(r.completed) << "procs=" << procs << ": " << r.error;
    EXPECT_TRUE(r.error.empty());
    EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated))
        << "sharded run diverged at " << procs << " processes";
    // Aggregated cross-process accounting: every task ran exactly once and
    // the split tournament still performs exactly n-1 merges overall.
    EXPECT_EQ(r.tasks_run, all);
    EXPECT_EQ(r.executor_stats.finished, all);
    EXPECT_EQ(r.reduce_merges, all - 1);
    ASSERT_EQ(r.shards.size(), size_t(procs));
    uint64_t shard_tasks = 0;
    for (const auto& s : r.shards) shard_tasks += s.tasks_run;
    EXPECT_EQ(shard_tasks, all);
    EXPECT_GT(r.stats.flops, 0.0);
    EXPECT_GT(r.memory.main_bytes, 0.0);
  }
}

TEST(RunSharded, FusedAndMultiWorkerStayBitwiseStable) {
  auto f = make_sliced_fixture();
  auto stem = tn::extract_stem(*f.tree);
  auto plan = exec::plan_fused(stem, f.slices.to_vector(), 1 << 12);

  exec::SliceRunOptions serial;
  serial.executor = exec::SliceExecutor::kInnerPool;
  ThreadPool pool1(1);
  serial.pool = &pool1;
  serial.fused = &plan;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, serial);

  exec::ShardRunOptions so;
  so.processes = 3;
  so.workers_per_process = 2;  // worker processes use their own schedulers
  so.fused = &plan;
  auto r = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated));
  EXPECT_GT(r.memory.ldm_subtasks, 0u);
}

TEST(RunSharded, MoreProcessesThanTasksStillExact) {
  auto f = make_sliced_fixture();
  const uint64_t all = uint64_t(1) << f.slices.size();

  exec::SliceRunOptions serial;
  serial.executor = exec::SliceExecutor::kInnerPool;
  ThreadPool pool1(1);
  serial.pool = &pool1;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, serial);

  exec::ShardRunOptions so;
  so.processes = int(all) + 3;  // some shards are empty
  so.workers_per_process = 1;
  auto r = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated));
  EXPECT_EQ(r.tasks_run, all);
}

TEST(RunSharded, KilledWorkerSurfacesCleanError) {
  auto f = make_sliced_fixture();
  exec::ShardRunOptions so;
  so.processes = 3;
  so.workers_per_process = 1;
  so.fault_shard = 1;  // that worker exits without reporting
  auto r = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("shard 1"), std::string::npos) << r.error;
  EXPECT_EQ(r.accumulated.size(), 0u);
  // The healthy shards still reported their telemetry.
  ASSERT_EQ(r.shards.size(), 3u);
  EXPECT_GT(r.shards[0].tasks_run, 0u);
  EXPECT_GT(r.shards[2].tasks_run, 0u);
}

// --- elastic driver: steal, requeue, chaos --------------------------------

// Scoped env setter for the chaos hooks (inherited by forked workers).
struct ScopedEnv {
  std::string key;
  ScopedEnv(const std::string& k, const std::string& v) : key(k) {
    ::setenv(k.c_str(), v.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(key.c_str()); }
};

TEST(RunShardedElastic, BitwiseIdenticalToRunSlicedForAnyProcessCount) {
  auto f = make_sliced_fixture();
  const uint64_t all = uint64_t(1) << f.slices.size();

  exec::SliceRunOptions serial;
  serial.executor = exec::SliceExecutor::kInnerPool;
  ThreadPool pool1(1);
  serial.pool = &pool1;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, serial);
  ASSERT_TRUE(ref.completed);

  for (int procs : {1, 2, 3, int(all) + 2}) {
    exec::ShardRunOptions so;
    so.processes = procs;
    so.workers_per_process = 1;
    so.elastic = true;
    so.lease_size = 1;  // max re-balancing granularity
    auto r = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
    ASSERT_TRUE(r.completed) << "procs=" << procs << ": " << r.error;
    EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated))
        << "elastic run diverged at " << procs << " processes";
    // Exactly-once accounting: no worker died, so no range ran twice.
    EXPECT_EQ(r.tasks_run, all);
    EXPECT_EQ(r.reduce_merges, all - 1);
    EXPECT_EQ(r.rebalance.leases_issued, r.rebalance.leases_completed);
    EXPECT_EQ(r.rebalance.leases_completed, all);  // lease_size 1
    EXPECT_EQ(r.rebalance.ranges_reissued, 0u);
    EXPECT_EQ(r.rebalance.workers_lost, 0u);
    ASSERT_EQ(r.shards.size(), size_t(procs));
    uint64_t leases = 0;
    for (const auto& s : r.shards) leases += s.leases;
    EXPECT_EQ(leases, all);
  }
}

// A worker SIGKILLed while HOLDING a lease (the chaos hook dies on its
// second lease receipt): the lease is revoked, requeued and re-issued, and
// the run still completes bitwise identical — the acceptance criterion.
TEST(RunShardedElastic, SigkilledWorkerIsRequeuedAndRunStaysBitwise) {
  auto f = make_sliced_fixture();
  exec::SliceRunOptions serial;
  serial.executor = exec::SliceExecutor::kInnerPool;
  ThreadPool pool1(1);
  serial.pool = &pool1;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, serial);

  ScopedEnv kill("LTNS_CHAOS_KILL_SHARD", "1");
  // Fire on the FIRST lease receipt: every worker's first request is
  // served from its own untouched home window, so the kill (and therefore
  // the requeue under test) happens on every run, not just lucky timings.
  ScopedEnv after("LTNS_CHAOS_KILL_AFTER_RANGES", "0");
  exec::ShardRunOptions so;
  so.processes = 3;
  so.workers_per_process = 1;
  so.elastic = true;
  so.lease_size = 2;
  auto r = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated));
  EXPECT_EQ(r.rebalance.workers_lost, 1u);
  EXPECT_GE(r.rebalance.ranges_requeued, 1u);
  EXPECT_GE(r.rebalance.ranges_reissued, 1u);
  // The requeue telemetry also rides the aggregated executor snapshot.
  EXPECT_EQ(r.executor_stats.ranges_reissued, r.rebalance.ranges_reissued);
}

// An artificial straggler (env-driven per-task sleep in one worker): the
// run completes, idle peers steal the straggler's untouched home ranges,
// and the result is still bitwise identical.
TEST(RunShardedElastic, StragglerIsStolenFromAndRunStaysBitwise) {
  auto f = make_sliced_fixture();
  exec::SliceRunOptions serial;
  serial.executor = exec::SliceExecutor::kInnerPool;
  ThreadPool pool1(1);
  serial.pool = &pool1;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, serial);

  ScopedEnv slow_shard("LTNS_CHAOS_SLEEP_SHARD", "0");
  ScopedEnv slow_ms("LTNS_CHAOS_SLEEP_MS", "150");
  exec::ShardRunOptions so;
  so.processes = 3;
  so.workers_per_process = 1;
  so.elastic = true;
  so.lease_size = 1;
  auto r = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated));
  // The straggler held each lease ~150ms while its peers finished in
  // microseconds: they must have stolen from its home window.
  EXPECT_GT(r.rebalance.ranges_stolen, 0u);
  EXPECT_EQ(r.rebalance.workers_lost, 0u);
  EXPECT_EQ(r.executor_stats.ranges_stolen, r.rebalance.ranges_stolen);
}

// Heterogeneous device fleet: workers run DIFFERENT backends (host and
// simd) under the elastic driver. Because every conforming backend is
// bitwise identical, the merged tensor must equal the 1-process host run
// byte for byte even though the partials were computed by different device
// implementations — and with a deterministic speed skew on the host
// worker, the lease ledger must rebalance (steal) around it.
TEST(RunShardedElastic, MixedHostSimdFleetRebalancesAndStaysBitwise) {
  auto f = make_sliced_fixture();
  exec::SliceRunOptions serial;
  serial.executor = exec::SliceExecutor::kInnerPool;
  ThreadPool pool1(1);
  serial.pool = &pool1;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, serial);  // pure host baseline
  ASSERT_TRUE(ref.completed);

  // Worker 0 (host backend) is dragged into a deterministic straggle so the
  // speed skew — and therefore the steal — happens on every run, not only
  // when the hardware happens to make simd faster.
  ScopedEnv slow_shard("LTNS_CHAOS_SLEEP_SHARD", "0");
  ScopedEnv slow_ms("LTNS_CHAOS_SLEEP_MS", "150");
  exec::ShardRunOptions so;
  so.processes = 3;
  so.workers_per_process = 1;
  so.elastic = true;
  so.lease_size = 1;
  so.backends = {"host", "simd", "simd"};  // per-shard device mix
  auto r = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated))
      << "mixed-backend fleet diverged from the 1-process host run";
  EXPECT_GT(r.rebalance.ranges_stolen, 0u);
  EXPECT_EQ(r.rebalance.workers_lost, 0u);
  // Telemetry names each worker's backend and carries its device counters.
  ASSERT_EQ(r.shards.size(), 3u);
  EXPECT_EQ(r.shards[0].backend, "host");
  EXPECT_EQ(r.shards[1].backend, "simd");
  EXPECT_EQ(r.shards[2].backend, "simd");
  uint64_t device_gemms = 0;
  for (const auto& s : r.shards) device_gemms += s.executor.device.gemm_calls;
  EXPECT_GT(device_gemms, 0u);
  EXPECT_GT(r.executor_stats.device.gemm_calls, 0u);  // aggregated snapshot
}

// The static driver carries the device mix too (no leases, fixed windows).
TEST(RunSharded, MixedBackendsBitwiseIdenticalUnderStaticDriver) {
  auto f = make_sliced_fixture();
  exec::SliceRunOptions serial;
  serial.executor = exec::SliceExecutor::kInnerPool;
  ThreadPool pool1(1);
  serial.pool = &pool1;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, serial);

  exec::ShardRunOptions so;
  so.processes = 4;
  so.workers_per_process = 1;
  so.backends = {"simd", "host"};  // alternating per shard index
  auto r = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated));
  ASSERT_EQ(r.shards.size(), 4u);
  EXPECT_EQ(r.shards[0].backend, "simd");
  EXPECT_EQ(r.shards[1].backend, "host");
  EXPECT_EQ(r.shards[2].backend, "simd");
  EXPECT_EQ(r.shards[3].backend, "host");
}

// A worker asked for a nonexistent backend fails its shard with the
// registry's error (naming the known backends) instead of dying silently.
TEST(RunSharded, UnknownBackendSurfacesRegistryError) {
  auto f = make_sliced_fixture();
  exec::ShardRunOptions so;
  so.processes = 2;
  so.workers_per_process = 1;
  so.backend = "tpu";
  auto r = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("unknown device backend"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("simd"), std::string::npos) << r.error;
}

// The fork-time fault hook (dies before its first lease request): the
// elastic driver absorbs it where the static driver fails the run.
TEST(RunShardedElastic, WorkerDeadAtStartupIsAbsorbed) {
  auto f = make_sliced_fixture();
  exec::SliceRunOptions serial;
  serial.executor = exec::SliceExecutor::kInnerPool;
  ThreadPool pool1(1);
  serial.pool = &pool1;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, serial);

  exec::ShardRunOptions so;
  so.processes = 3;
  so.workers_per_process = 1;
  so.elastic = true;
  so.fault_shard = 1;
  auto r = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated));
  EXPECT_EQ(r.rebalance.workers_lost, 1u);
}

// Losing EVERY worker must be a clean error, not a hang: with one process
// and the kill hook armed, nobody remains to take the requeued lease.
TEST(RunShardedElastic, AllWorkersDeadSurfacesCleanError) {
  auto f = make_sliced_fixture();
  ScopedEnv kill("LTNS_CHAOS_KILL_SHARD", "0");
  exec::ShardRunOptions so;
  so.processes = 1;
  so.workers_per_process = 1;
  so.elastic = true;
  so.lease_size = 1;
  auto r = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("workers died"), std::string::npos) << r.error;
  EXPECT_EQ(r.accumulated.size(), 0u);
}

// --- durable run ledger: coordinator crash + resume -----------------------

// THE acceptance criterion: a run whose coordinator is SIGKILLed mid-run
// and restarted with resume=true produces output bitwise identical to an
// uninterrupted 1-process run. The first coordinator lives in a forked
// child (so the SIGKILL cannot take the test runner down); every worker is
// dragged into a per-task straggle so the kill reliably lands mid-run, and
// the parent polls the journal until at least two ranges are durable
// before firing.
TEST(RunShardedElastic, CoordinatorSigkilledMidRunResumesBitwise) {
  auto f = make_sliced_fixture();
  exec::SliceRunOptions serial;
  serial.executor = exec::SliceExecutor::kInnerPool;
  ThreadPool pool1(1);
  serial.pool = &pool1;
  auto ref = exec::run_sliced(*f.tree, f.leaves(), f.slices, serial);
  ASSERT_TRUE(ref.completed);

  ScopedTempDir dir;
  exec::ShardRunOptions so;
  so.processes = 3;
  so.workers_per_process = 1;
  so.elastic = true;
  so.lease_size = 1;
  so.spill_dir = dir.path;
  so.spill_run_id = "chaos-resume";

  pid_t coord = ::fork();
  ASSERT_GE(coord, 0);
  if (coord == 0) {
    // First-life coordinator: all its workers straggle (the env is set
    // only in this process tree) so the run is slow enough to kill.
    ::setenv("LTNS_CHAOS_SLEEP_SHARD", "any", 1);
    ::setenv("LTNS_CHAOS_SLEEP_MS", "40", 1);
    exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
    std::_Exit(0);  // reached only if the kill below lost the race
  }

  // Wait for >= 2 durably journaled ranges, then SIGKILL the coordinator.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    auto scan = scan_checkpoint(dir.path);
    if (scan.ranges >= 2) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "journal never grew";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(coord, SIGKILL);
  int st = 0;
  ::waitpid(coord, &st, 0);

  // Second life: resume from the journal, no chaos. Only unfinished ranges
  // are recomputed, and the output is bitwise identical to the
  // uninterrupted 1-process run.
  so.resume = true;
  auto r = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(bitwise_equal(ref.accumulated, r.accumulated))
      << "resumed run diverged from the uninterrupted baseline";
  EXPECT_GE(r.rebalance.ranges_replayed, 2u);  // the polled-for records
  EXPECT_GE(r.rebalance.tasks_replayed, 2u);
  const uint64_t all = uint64_t(1) << f.slices.size();
  EXPECT_EQ(r.rebalance.tasks_replayed + r.tasks_run, all)
      << "resume redid work the journal already recorded";
}

// Resuming a run that already COMPLETED replays everything and runs
// nothing — the journal alone reproduces the exact bytes.
TEST(RunShardedElastic, ResumeOfCompletedRunReplaysEverything) {
  auto f = make_sliced_fixture();
  const uint64_t all = uint64_t(1) << f.slices.size();
  ScopedTempDir dir;
  exec::ShardRunOptions so;
  so.processes = 2;
  so.workers_per_process = 1;
  so.elastic = true;
  so.lease_size = 2;
  so.spill_dir = dir.path;
  so.spill_run_id = "complete-resume";
  auto first = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  ASSERT_TRUE(first.completed) << first.error;

  so.resume = true;
  auto second = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  ASSERT_TRUE(second.completed) << second.error;
  EXPECT_TRUE(bitwise_equal(first.accumulated, second.accumulated));
  EXPECT_EQ(second.tasks_run, 0u);
  EXPECT_EQ(second.rebalance.tasks_replayed, all);

  // Without --resume the same spill dir starts a FRESH journal (truncate),
  // so the run recomputes everything — and still matches.
  so.resume = false;
  auto third = exec::run_sharded(*f.tree, f.leaves(), f.slices, so);
  ASSERT_TRUE(third.completed) << third.error;
  EXPECT_TRUE(bitwise_equal(first.accumulated, third.accumulated));
  EXPECT_EQ(third.tasks_run, all);
  EXPECT_EQ(third.rebalance.tasks_replayed, 0u);
}

// The spill journal is elastic-only: the API refuses to drop the flag
// silently on the static or in-process paths.
TEST(RunShardedElastic, SpillWithoutElasticIsRefusedByTheApi) {
  auto circ = test::small_rqc(3, 3, 4);
  auto bits = test::zero_bits(circ.num_qubits);
  ScopedTempDir dir;
  api::SimulatorOptions sopt;
  sopt.plan.target_log2size = 8;
  sopt.durability.spill_dir = dir.path;  // no elastic
  api::Simulator sim(circ, sopt);
  auto res = sim.amplitude(bits);
  EXPECT_FALSE(res.completed);
  EXPECT_NE(res.telemetry.error.find("elastic"), std::string::npos) << res.telemetry.error;
}

// The same gate catches every silently-ignorable combination at the API
// layer — batch runs included — not just at CLI flag parsing.
TEST(RunShardedElastic, ValidateOptionsCatchesIncoherentFlags) {
  api::SimulatorOptions ok;
  EXPECT_TRUE(api::validate_options(ok).empty());

  api::SimulatorOptions spill_static;
  spill_static.durability.spill_dir = "/tmp/x";
  EXPECT_NE(api::validate_options(spill_static).find("elastic"), std::string::npos);
  spill_static.sharding.elastic = true;
  EXPECT_TRUE(api::validate_options(spill_static).empty());

  api::SimulatorOptions resume_only;
  resume_only.durability.resume = true;
  EXPECT_NE(api::validate_options(resume_only).find("--spill-dir"), std::string::npos);

  api::SimulatorOptions interval_only;
  interval_only.observability.metrics_interval_seconds = 1;
  EXPECT_NE(api::validate_options(interval_only).find("--metrics-out"), std::string::npos);

  // Batch runs route through the same gate: the error lands in telemetry.
  auto circ = test::small_rqc(3, 3, 4);
  api::SimulatorOptions sopt;
  sopt.plan.target_log2size = 8;
  sopt.durability.spill_dir = "/tmp/never-used";  // no elastic
  api::Simulator sim(circ, sopt);
  auto batch = sim.batch_amplitudes(test::zero_bits(circ.num_qubits), {0, 1});
  EXPECT_FALSE(batch.completed);
  EXPECT_NE(batch.telemetry.error.find("elastic"), std::string::npos) << batch.telemetry.error;
}

// --- TCP coordinator/worker service --------------------------------------

TEST(Service, CoordinatorAndWorkersMatchSimulatorBitwise) {
  auto circ = test::small_rqc(3, 4, 6);
  auto bits = test::zero_bits(circ.num_qubits);

  api::SimulatorOptions sopt;
  sopt.plan.target_log2size = 10;  // force a few slices on the small circuit
  api::Simulator sim(circ, sopt);
  auto expect = sim.amplitude(bits);
  ASSERT_TRUE(expect.completed);

  CoordinatorServer server{0};  // ephemeral port
  ASSERT_GT(server.port(), 0);
  std::vector<std::thread> workers;
  std::atomic<int> worker_rc{0};
  for (int i = 0; i < 2; ++i)
    workers.emplace_back([&server, &worker_rc] {
      worker_rc += serve_worker("127.0.0.1", server.port());
    });
  ServiceOptions so;
  so.target_log2size = 10;
  so.workers_per_process = 1;
  auto res = server.run_amplitude(2, circ, bits, so);
  for (auto& w : workers) w.join();

  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_EQ(worker_rc.load(), 0);
  // Same plan, same fused executor, tournament merge: bit-identical result.
  EXPECT_EQ(res.amplitude.real(), expect.amplitude.real());
  EXPECT_EQ(res.amplitude.imag(), expect.amplitude.imag());
  EXPECT_EQ(res.num_slices, expect.num_slices);
  ASSERT_EQ(res.shards.size(), 2u);
  uint64_t tasks = 0;
  for (const auto& s : res.shards) tasks += s.tasks_run;
  EXPECT_EQ(tasks, res.tasks_run);
}

TEST(Service, ElasticCoordinatorMatchesSimulatorBitwise) {
  auto circ = test::small_rqc(3, 4, 6);
  auto bits = test::zero_bits(circ.num_qubits);

  api::SimulatorOptions sopt;
  sopt.plan.target_log2size = 10;
  api::Simulator sim(circ, sopt);
  auto expect = sim.amplitude(bits);
  ASSERT_TRUE(expect.completed);

  CoordinatorServer server{0};
  std::vector<std::thread> workers;
  std::atomic<int> worker_rc{0};
  for (int i = 0; i < 2; ++i)
    workers.emplace_back(
        [&server, &worker_rc] { worker_rc += serve_worker("127.0.0.1", server.port()); });
  ServiceOptions so;
  so.target_log2size = 10;
  so.workers_per_process = 1;
  so.elastic = true;
  so.lease_size = 1;
  auto res = server.run_amplitude(2, circ, bits, so);
  for (auto& w : workers) w.join();

  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_EQ(worker_rc.load(), 0);
  EXPECT_EQ(res.amplitude.real(), expect.amplitude.real());
  EXPECT_EQ(res.amplitude.imag(), expect.amplitude.imag());
  EXPECT_GT(res.rebalance.leases_completed, 0u);
  EXPECT_EQ(res.rebalance.workers_lost, 0u);
  ASSERT_EQ(res.shards.size(), 2u);
  uint64_t tasks = 0;
  for (const auto& s : res.shards) tasks += s.tasks_run;
  EXPECT_EQ(tasks, res.tasks_run);
}

// A killed TCP worker must not fail an elastic run: its leases requeue to
// the surviving worker and the amplitude stays bitwise identical. The
// doomed worker is a forked process so the SIGKILL chaos hook cannot take
// the test runner down with it.
TEST(Service, ElasticSurvivesKilledTcpWorker) {
  auto circ = test::small_rqc(3, 4, 6);
  auto bits = test::zero_bits(circ.num_qubits);

  api::SimulatorOptions sopt;
  sopt.plan.target_log2size = 10;
  api::Simulator sim(circ, sopt);
  auto expect = sim.amplitude(bits);
  ASSERT_TRUE(expect.completed);

  CoordinatorServer server{0};
  const uint16_t port = server.port();
  pid_t doomed = ::fork();
  ASSERT_GE(doomed, 0);
  if (doomed == 0) {
    // Chaos worker: SIGKILLs itself on its FIRST lease receipt while
    // holding it ("any" is safe — the env lives only in this process).
    ::setenv("LTNS_CHAOS_KILL_SHARD", "any", 1);
    ::setenv("LTNS_CHAOS_KILL_AFTER_RANGES", "0", 1);
    serve_worker("127.0.0.1", port);
    std::_Exit(0);  // unreachable when the kill fires; harmless otherwise
  }

  ServiceOptions so;
  so.target_log2size = 10;
  so.workers_per_process = 1;
  so.elastic = true;
  so.lease_size = 1;
  CoordinatorResult res;
  std::thread coord([&] { res = server.run_amplitude(2, circ, bits, so); });

  // Deterministic sequencing: wait for the SIGKILL to actually land before
  // the survivor joins, so the doomed worker always held a lease first
  // (late joins are an elastic feature, exercised here on purpose).
  int st = 0;
  ::waitpid(doomed, &st, 0);
  ASSERT_TRUE(WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL) << st;
  std::thread survivor([port] { serve_worker("127.0.0.1", port); });
  survivor.join();
  coord.join();

  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.amplitude.real(), expect.amplitude.real());
  EXPECT_EQ(res.amplitude.imag(), expect.amplitude.imag());
  EXPECT_GE(res.rebalance.workers_lost, 1u);
}

// The status probe answers mid-run with live ledger state, and a worker
// may join AFTER the run started (elastic width) — exercised together: an
// idle elastic coordinator is probed, then a late worker finishes the job.
TEST(Service, StatusProbeAndLateJoiningWorker) {
  auto circ = test::small_rqc(3, 3, 4);
  auto bits = test::zero_bits(circ.num_qubits);

  api::SimulatorOptions sopt;
  sopt.plan.target_log2size = 8;
  api::Simulator sim(circ, sopt);
  auto expect = sim.amplitude(bits);

  CoordinatorServer server{0};
  const uint16_t port = server.port();
  ServiceOptions so;
  so.target_log2size = 8;
  so.workers_per_process = 1;
  so.elastic = true;
  so.accept_timeout_seconds = 60;
  CoordinatorResult res;
  std::thread coord([&] { res = server.run_amplitude(1, circ, bits, so); });

  // Probe while no worker has joined: the ledger is untouched.
  std::string json;
  for (int attempt = 0; attempt < 100 && json.empty(); ++attempt) {
    try {
      json = query_status("127.0.0.1", port);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"tasks_done\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"active_leases\":[]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rebalance\""), std::string::npos) << json;

  // Now the (late) worker joins and the run completes bitwise identical.
  std::thread worker([port] { serve_worker("127.0.0.1", port); });
  worker.join();
  coord.join();
  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.amplitude.real(), expect.amplitude.real());
  EXPECT_EQ(res.amplitude.imag(), expect.amplitude.imag());
}

// A monitoring probe against a STATIC coordinator must get a clean error
// and must NOT consume a worker slot or abort the fleet's run.
TEST(Service, StatusProbeDoesNotKillStaticRun) {
  auto circ = test::small_rqc(3, 3, 4);
  auto bits = test::zero_bits(circ.num_qubits);
  CoordinatorServer server{0};
  const uint16_t port = server.port();
  ServiceOptions so;
  so.target_log2size = 8;
  so.workers_per_process = 1;
  CoordinatorResult res;
  std::thread coord([&] { res = server.run_amplitude(1, circ, bits, so); });

  // Probe before any worker exists: the listener queues the connection and
  // the accept loop answers it without burning the worker slot.
  std::string err;
  try {
    auto json = query_status("127.0.0.1", port);
    ADD_FAILURE() << "static coordinator answered a status probe: " << json;
  } catch (const std::exception& e) {
    err = e.what();
  }
  EXPECT_NE(err.find("static driver"), std::string::npos) << err;

  std::thread worker([port] { serve_worker("127.0.0.1", port); });
  worker.join();
  coord.join();
  EXPECT_TRUE(res.completed) << res.error;
}

// The TCP face of checkpoint/restart: a coordinator with a spill dir runs
// to completion; a NEW coordinator process (same port semantics, fresh
// merger) resumes from the journal and serves a (re)connecting worker only
// the unfinished ranges — here none, so the worker is drained immediately
// and the amplitude is reproduced from the journal alone, byte for byte.
TEST(Service, ElasticCoordinatorResumesFromSpillJournal) {
  auto circ = test::small_rqc(3, 3, 4);
  auto bits = test::zero_bits(circ.num_qubits);
  ScopedTempDir dir;

  ServiceOptions so;
  so.target_log2size = 8;
  so.workers_per_process = 1;
  so.elastic = true;
  so.lease_size = 1;
  so.spill_dir = dir.path;
  CoordinatorResult first;
  {
    CoordinatorServer server{0};
    const uint16_t port = server.port();
    std::thread worker([port] { serve_worker("127.0.0.1", port); });
    first = server.run_amplitude(1, circ, bits, so);
    worker.join();
  }
  ASSERT_TRUE(first.completed) << first.error;
  EXPECT_GT(scan_checkpoint(dir.path).ranges, 0u);

  // "Restarted" coordinator: fresh server object, --resume. The journal
  // covers the whole run, so it reproduces the amplitude WITHOUT any
  // worker ever connecting — the strongest form of "only unfinished
  // ranges are re-offered".
  so.resume = true;
  CoordinatorResult second;
  {
    CoordinatorServer server{0};
    second = server.run_amplitude(1, circ, bits, so);
  }
  ASSERT_TRUE(second.completed) << second.error;
  EXPECT_EQ(second.amplitude.real(), first.amplitude.real());
  EXPECT_EQ(second.amplitude.imag(), first.amplitude.imag());
  EXPECT_EQ(second.tasks_run, 0u);  // everything came from the journal
  EXPECT_GT(second.rebalance.tasks_replayed, 0u);

  // A journal from a DIFFERENT job is refused: same spill dir, different
  // bitstring -> different fingerprint -> clean error, no foreign merge.
  auto other_bits = bits;
  other_bits[0] = 1;
  CoordinatorResult refused;
  {
    CoordinatorServer server{0};
    refused = server.run_amplitude(1, circ, other_bits, so);
  }
  EXPECT_FALSE(refused.completed);
  // Either rejection path (job fingerprint, or a plan whose tiling moved)
  // is the checkpoint layer refusing the foreign journal.
  EXPECT_NE(refused.error.find("dist checkpoint"), std::string::npos) << refused.error;
}

TEST(Service, MissingWorkerTimesOutInsteadOfHanging) {
  auto circ = test::small_rqc(3, 3, 4);
  auto bits = test::zero_bits(circ.num_qubits);
  CoordinatorServer server{0};
  ServiceOptions so;
  so.accept_timeout_seconds = 1;  // nobody will connect
  auto res = server.run_amplitude(1, circ, bits, so);
  EXPECT_FALSE(res.completed);
  EXPECT_NE(res.error.find("timed out"), std::string::npos) << res.error;
}

}  // namespace
}  // namespace ltns::dist
