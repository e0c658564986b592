#include "dist/checkpoint.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "dist/shard_plan.hpp"
#include "dist/wire.hpp"
#include "obs/trace.hpp"

namespace ltns::dist {

namespace {

// Record framing mirrors the socket wire's header discipline (magic +
// version + endianness up front, typed rejection of skew) and adds a CRC:
// a socket peer is trusted to be a same-build process, but a journal may
// have been half-written by a dying coordinator or damaged at rest.
enum class RecordType : uint8_t {
  kRunMeta = 1,    // journal head: CheckpointMeta
  kRangeDone = 2,  // one completed lease range + its block payloads
};

struct RecordHeader {
  uint32_t magic;
  uint16_t version;
  uint8_t endian;  // same marker scheme as the socket wire (raw IEEE payloads)
  uint8_t type;
  uint64_t payload_len;
  uint32_t crc;  // CRC-32 of the payload bytes
  uint32_t reserved;
};
static_assert(sizeof(RecordHeader) == 24, "journal header layout is on-disk ABI");

// 1 TiB payload cap, like the socket wire: a corrupt length must be caught
// before it becomes an allocation bomb.
constexpr uint64_t kMaxRecordPayload = uint64_t(1) << 40;

uint32_t crc32(const uint8_t* p, size_t n) { return crc32_ieee(p, n); }

std::string journal_path(const std::string& dir) { return dir + "/ledger.journal"; }

[[noreturn]] void fail_errno(const std::string& what) {
  throw CheckpointIoError("dist checkpoint: " + what + ": " + std::strerror(errno));
}

void write_exact(int fd, const void* buf, size_t n) {
  const auto* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    ssize_t k = ::write(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      fail_errno("write");
    }
    p += k;
    n -= size_t(k);
  }
}

// Best-effort full read at an offset; returns bytes actually read (short at
// EOF). Scan-side only — the scanner treats a short read as the torn tail.
size_t read_upto(int fd, void* buf, size_t n) {
  auto* p = static_cast<uint8_t*>(buf);
  size_t got = 0;
  while (got < n) {
    ssize_t k = ::read(fd, p + got, n - got);
    if (k < 0) {
      if (errno == EINTR) continue;
      fail_errno("read");
    }
    if (k == 0) break;
    got += size_t(k);
  }
  return got;
}

void put_meta(ByteWriter& w, const CheckpointMeta& m) {
  w.put<uint64_t>(m.total);
  w.put<int32_t>(m.home_workers);
  w.put<uint64_t>(m.lease_size);
  w.put_string(m.run_id);
}

CheckpointMeta get_meta(ByteReader& r) {
  CheckpointMeta m;
  m.total = r.get<uint64_t>();
  m.home_workers = r.get<int32_t>();
  m.lease_size = r.get<uint64_t>();
  m.run_id = r.get_string();
  return m;
}

struct RangeRecord {
  uint64_t first = 0;
  uint64_t count = 0;
  std::vector<LedgerBlock> blocks;
};

RangeRecord get_range(ByteReader& r) {
  RangeRecord rec;
  rec.first = r.get<uint64_t>();
  rec.count = r.get<uint64_t>();
  const auto nblocks = r.get<uint32_t>();
  // A range is tiled by at most 2·64 maximal aligned blocks; anything
  // larger is corruption that slipped past the CRC (or a hand-edited file).
  if (nblocks > 128) throw std::runtime_error("dist checkpoint: implausible block count");
  rec.blocks.reserve(nblocks);
  for (uint32_t i = 0; i < nblocks; ++i) {
    LedgerBlock b;
    b.level = int(r.get<int32_t>());
    b.index = r.get<uint64_t>();
    b.partial = get_tensor(r);
    rec.blocks.push_back(std::move(b));
  }
  return rec;
}

// One parsed record, or "stop here" (torn/invalid tail) — never throws for
// damage, only for I/O errors.
struct ScannedRecord {
  bool ok = false;
  RecordType type = RecordType::kRunMeta;
  std::vector<uint8_t> payload;
};

ScannedRecord read_record(int fd) {
  ScannedRecord rec;
  RecordHeader h;
  if (read_upto(fd, &h, sizeof(h)) != sizeof(h)) return rec;  // EOF / torn header
  if (h.magic != kCheckpointMagic || h.version != kCheckpointVersion ||
      h.endian != host_endian() || h.payload_len > kMaxRecordPayload)
    return rec;
  rec.payload.resize(size_t(h.payload_len));
  if (read_upto(fd, rec.payload.data(), rec.payload.size()) != rec.payload.size())
    return rec;  // torn payload
  if (crc32(rec.payload.data(), rec.payload.size()) != h.crc) return rec;
  rec.type = RecordType(h.type);
  rec.ok = true;
  return rec;
}

}  // namespace

// Table computed once. Standard polynomial so an external tool can verify
// a journal or cache entry.
uint32_t crc32_ieee(const void* data, size_t n) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string fnv1a_hex(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
  return std::string(buf);
}

std::string run_fingerprint(const std::string& circuit_text, const std::string& bits,
                            const std::string& open_qubits, bool fused, uint64_t ldm_elems,
                            exec::Precision precision, const tn::SsaPath& path,
                            const std::vector<int>& sliced_edges) {
  std::string id = circuit_text;
  id += '|' + bits + '|' + open_qubits + '|' + std::to_string(int(fused)) + '|' +
        std::to_string(ldm_elems) + '|' + exec::precision_name(precision);
  id += "|path:";
  for (auto v : path.leaf_vertices) id += std::to_string(int(v)) + ",";
  for (const auto& [l, r] : path.steps) id += std::to_string(l) + "+" + std::to_string(r) + ";";
  id += "|slices:";
  for (int e : sliced_edges) id += std::to_string(e) + ",";
  return fnv1a_hex(id.data(), id.size());
}

std::unique_ptr<CheckpointWriter> open_or_resume_journal(
    const std::string& dir, const CheckpointMeta& meta, bool resume,
    double fsync_interval_seconds, LeaseLedger* ledger, ShardMerger* merger) {
  if (resume) {
    try {
      compact_checkpoint(dir);
    } catch (const CheckpointIoError&) {
      // Compaction is an optimization: when the rewrite cannot land
      // (ENOSPC, read-only spill), the uncompacted journal replays fine.
    }
    auto scan = replay_checkpoint(dir, meta, ledger, merger);
    if (scan.has_meta)
      return std::make_unique<CheckpointWriter>(dir, scan.valid_bytes, fsync_interval_seconds);
    // Resume-if-present: nothing to replay, start fresh.
  }
  return std::make_unique<CheckpointWriter>(dir, meta, fsync_interval_seconds);
}

CheckpointScan scan_checkpoint(const std::string& dir) {
  CheckpointScan scan;
  int fd = ::open(journal_path(dir).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return scan;  // no journal yet: clean fresh start
  try {
    for (;;) {
      auto rec = read_record(fd);
      if (!rec.ok) break;
      ByteReader r(rec.payload);
      // A record that parses structurally wrong despite a good CRC is a
      // foreign or hand-damaged file: stop at the previous record.
      try {
        if (rec.type == RecordType::kRunMeta && !scan.has_meta) {
          scan.meta = get_meta(r);
          scan.has_meta = true;
        } else if (rec.type == RecordType::kRangeDone && scan.has_meta) {
          auto range = get_range(r);
          scan.ranges += 1;
          scan.tasks += range.count;
        } else {
          break;  // meta not first, duplicated, or unknown type
        }
      } catch (const std::exception&) {
        break;
      }
      scan.valid_bytes += sizeof(RecordHeader) + rec.payload.size();
    }
    const off_t end = ::lseek(fd, 0, SEEK_END);
    scan.torn_tail = end > 0 && uint64_t(end) > scan.valid_bytes;
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return scan;
}

CheckpointScan replay_checkpoint(const std::string& dir, const CheckpointMeta& expect,
                                 LeaseLedger* ledger, ShardMerger* merger) {
  CheckpointScan scan;
  int fd = ::open(journal_path(dir).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return scan;  // nothing to resume: fresh start
  try {
    for (;;) {
      auto rec = read_record(fd);
      if (!rec.ok) break;
      ByteReader r(rec.payload);
      if (rec.type == RecordType::kRunMeta && !scan.has_meta) {
        scan.meta = get_meta(r);
        scan.has_meta = true;
        // Refuse a foreign journal BEFORE merging anything from it.
        if (scan.meta.total != expect.total || scan.meta.home_workers != expect.home_workers ||
            scan.meta.lease_size != expect.lease_size)
          throw std::runtime_error(
              "dist checkpoint: journal tiling mismatch (journal total=" +
              std::to_string(scan.meta.total) + " homes=" + std::to_string(scan.meta.home_workers) +
              " lease=" + std::to_string(scan.meta.lease_size) + ", run expects total=" +
              std::to_string(expect.total) + " homes=" + std::to_string(expect.home_workers) +
              " lease=" + std::to_string(expect.lease_size) + ")");
        if (!expect.run_id.empty() && !scan.meta.run_id.empty() &&
            scan.meta.run_id != expect.run_id)
          throw std::runtime_error(
              "dist checkpoint: journal belongs to a different run (fingerprint '" +
              scan.meta.run_id + "' != '" + expect.run_id + "')");
      } else if (rec.type == RecordType::kRangeDone && scan.has_meta) {
        RangeRecord range;
        try {
          range = get_range(r);
        } catch (const std::exception&) {
          break;  // structurally damaged despite CRC: stop, recompute the rest
        }
        // Retire the range FIRST: if it does not match the ledger tiling,
        // nothing may reach the merger. mark_span_done accepts both a raw
        // lease record and a compacted span covering several leases.
        if (!ledger->mark_span_done(range.first, range.count))
          throw std::runtime_error(
              "dist checkpoint: journal range [" + std::to_string(range.first) + ", " +
              std::to_string(range.first + range.count) +
              ") does not tile pending ledger ranges (duplicate record or config skew)");
        for (auto& b : range.blocks) merger->add(b.level, b.index, std::move(b.partial));
        scan.ranges += 1;
        scan.tasks += range.count;
      } else {
        break;
      }
      scan.valid_bytes += sizeof(RecordHeader) + rec.payload.size();
    }
    const off_t end = ::lseek(fd, 0, SEEK_END);
    scan.torn_tail = end > 0 && uint64_t(end) > scan.valid_bytes;
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return scan;
}

CompactionStats compact_checkpoint(const std::string& dir) {
  CompactionStats st;
  const std::string path = journal_path(dir);
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return st;  // no journal: nothing to compact

  // Phase 1: scan the valid prefix, keeping every record in memory (the
  // journal is bounded by the run's slice count, and completion-time
  // compaction runs when the coordinator's merger just held the same
  // tensors anyway).
  CheckpointMeta meta;
  bool has_meta = false;
  std::vector<RangeRecord> records;
  uint64_t valid_bytes = 0;
  bool torn_tail = false;
  try {
    for (;;) {
      auto rec = read_record(fd);
      if (!rec.ok) break;
      ByteReader r(rec.payload);
      try {
        if (rec.type == RecordType::kRunMeta && !has_meta) {
          meta = get_meta(r);
          has_meta = true;
        } else if (rec.type == RecordType::kRangeDone && has_meta) {
          records.push_back(get_range(r));
        } else {
          break;
        }
      } catch (const std::exception&) {
        break;  // structurally damaged despite CRC: compact the prefix
      }
      valid_bytes += sizeof(RecordHeader) + rec.payload.size();
    }
    const off_t end = ::lseek(fd, 0, SEEK_END);
    st.bytes_before = end > 0 ? uint64_t(end) : 0;
    torn_tail = st.bytes_before > valid_bytes;
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  st.ranges_before = records.size();
  st.bytes_after = st.bytes_before;
  st.ranges_after = records.size();
  if (!has_meta) return st;  // fresh or foreign file: leave it to replay

  // Phase 2: coalesce contiguous completed ranges into spans. Records are
  // disjoint (the ledger retires each range exactly once) but land in
  // completion order, so sort by task range first.
  std::sort(records.begin(), records.end(),
            [](const RangeRecord& a, const RangeRecord& b) { return a.first < b.first; });
  struct Span {
    uint64_t first = 0;
    uint64_t count = 0;
  };
  std::vector<Span> spans;
  for (const auto& rec : records) {
    if (!spans.empty() && spans.back().first + spans.back().count == rec.first)
      spans.back().count += rec.count;
    else
      spans.push_back({rec.first, rec.count});
  }
  st.ranges_after = spans.size();
  if (spans.size() == records.size() && !torn_tail) return st;  // already minimal

  // Phase 3: tournament-merge every recorded block. The drained result is
  // the maximally-merged decomposition of everything journaled so far; a
  // merged node is by construction fully covered, so each drained block
  // lies inside exactly one span. Re-adding these blocks at replay performs
  // the remaining merges in the same tree positions an uninterrupted run
  // would, keeping the root bit-identical.
  std::vector<MergedBlock> blocks;
  try {
    ShardMerger merger(meta.total);
    for (auto& rec : records)
      for (auto& b : rec.blocks) merger.add(b.level, b.index, std::move(b.partial));
    blocks = merger.drain_blocks();
  } catch (const std::exception&) {
    return st;  // overlapping/out-of-range blocks: let replay reject it loudly
  }

  // Partition the drained blocks into spans and insist each span is tiled
  // exactly (block nominal sizes clip at `total` for promoted ragged-edge
  // nodes). A mismatch means the journal violates the ledger's invariants —
  // leave the file alone so replay reports it against the original bytes.
  std::vector<std::pair<size_t, size_t>> span_blocks;
  {
    size_t bi = 0;
    for (const auto& s : spans) {
      const size_t begin = bi;
      uint64_t covered = 0;
      while (bi < blocks.size() && (blocks[bi].index << blocks[bi].level) < s.first + s.count) {
        const uint64_t f = blocks[bi].index << blocks[bi].level;
        covered += std::min(meta.total - f, uint64_t(1) << blocks[bi].level);
        ++bi;
      }
      if (covered != s.count || bi - begin > 128) return st;
      span_blocks.emplace_back(begin, bi);
    }
    if (bi != blocks.size()) return st;
  }

  // Phase 4: tmp + rename, same record framing the writer uses. The
  // original journal stays valid until the atomic rename lands.
  const std::string tmp = path + ".compact.tmp";
  int wfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (wfd < 0) fail_errno("open " + tmp);
  uint64_t written = 0;
  try {
    auto append = [&](RecordType type, const std::vector<uint8_t>& payload) {
      RecordHeader h{kCheckpointMagic, kCheckpointVersion, host_endian(), uint8_t(type),
                     uint64_t(payload.size()), crc32(payload.data(), payload.size()), 0};
      write_exact(wfd, &h, sizeof(h));
      if (!payload.empty()) write_exact(wfd, payload.data(), payload.size());
      written += sizeof(h) + payload.size();
    };
    ByteWriter mw;
    put_meta(mw, meta);
    append(RecordType::kRunMeta, mw.buffer());
    for (size_t si = 0; si < spans.size(); ++si) {
      ByteWriter w;
      w.put<uint64_t>(spans[si].first);
      w.put<uint64_t>(spans[si].count);
      w.put<uint32_t>(uint32_t(span_blocks[si].second - span_blocks[si].first));
      for (size_t i = span_blocks[si].first; i < span_blocks[si].second; ++i) {
        w.put<int32_t>(int32_t(blocks[i].level));
        w.put<uint64_t>(blocks[i].index);
        put_tensor(w, blocks[i].partial);
      }
      append(RecordType::kRangeDone, w.buffer());
    }
    if (::fsync(wfd) != 0) fail_errno("fsync " + tmp);
  } catch (...) {
    ::close(wfd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (::close(wfd) != 0) {
    ::unlink(tmp.c_str());
    fail_errno("close " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail_errno("rename " + tmp);
  }
  // Make the replacement durable: a crash after compaction must find the
  // compacted file, not a unlinked original.
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  st.bytes_after = written;
  st.compacted = true;
  obs::trace_instant(obs::EventKind::kCheckpointAppend, st.bytes_before, st.bytes_after);
  return st;
}

CheckpointWriter::CheckpointWriter(const std::string& dir, const CheckpointMeta& meta,
                                   double fsync_interval_seconds)
    : dir_(dir), fsync_interval_(fsync_interval_seconds) {
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) fail_errno("mkdir " + dir);
  fd_ = ::open(journal_path(dir).c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd_ < 0) fail_errno("open " + journal_path(dir));
  ByteWriter w;
  put_meta(w, meta);
  append_record(uint8_t(RecordType::kRunMeta), w.buffer());
  sync();
  // Make the journal's directory entry durable too: a crash right after
  // creation must still find the file on restart.
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

CheckpointWriter::CheckpointWriter(const std::string& dir, uint64_t valid_bytes,
                                   double fsync_interval_seconds)
    : dir_(dir), fsync_interval_(fsync_interval_seconds) {
  fd_ = ::open(journal_path(dir).c_str(), O_WRONLY | O_CLOEXEC);
  if (fd_ < 0) fail_errno("open " + journal_path(dir));
  // Drop the torn tail the replay stopped at, then append. Truncating
  // before the first append keeps the invariant "every byte in the file is
  // a valid record prefix" — garbage mid-file would end a future replay
  // early and silently discard the records behind it.
  if (::ftruncate(fd_, off_t(valid_bytes)) != 0) fail_errno("ftruncate");
  if (::lseek(fd_, 0, SEEK_END) < 0) fail_errno("lseek");
  bytes_ = valid_bytes;
  sync();
}

CheckpointWriter::~CheckpointWriter() {
  if (fd_ >= 0) {
    if (dirty_) ::fsync(fd_);  // best effort; destructors must not throw
    ::close(fd_);
  }
}

void CheckpointWriter::append_record(uint8_t type, const std::vector<uint8_t>& payload) {
  obs::TraceScope tr(obs::EventKind::kCheckpointAppend, sizeof(RecordHeader) + payload.size());
  RecordHeader h{kCheckpointMagic, kCheckpointVersion, host_endian(), type,
                 uint64_t(payload.size()), crc32(payload.data(), payload.size()), 0};
  write_exact(fd_, &h, sizeof(h));
  if (!payload.empty()) write_exact(fd_, payload.data(), payload.size());
  bytes_ += sizeof(h) + payload.size();
  dirty_ = true;
}

void CheckpointWriter::on_range_complete(uint64_t first, uint64_t count,
                                         const std::vector<LedgerBlock>& blocks) {
  ByteWriter w;
  w.put<uint64_t>(first);
  w.put<uint64_t>(count);
  w.put<uint32_t>(uint32_t(blocks.size()));
  for (const auto& b : blocks) {
    w.put<int32_t>(int32_t(b.level));
    w.put<uint64_t>(b.index);
    put_tensor(w, b.partial);
  }
  append_record(uint8_t(RecordType::kRangeDone), w.buffer());
  ++ranges_;
  if (fsync_interval_ <= 0 || last_sync_.seconds() >= fsync_interval_) sync();
}

void CheckpointWriter::sync() {
  obs::TraceScope tr(obs::EventKind::kCheckpointFsync, bytes_);
  if (::fsync(fd_) != 0) fail_errno("fsync");
  dirty_ = false;
  ++syncs_;
  last_sync_.reset();
}

std::string CheckpointWriter::health_json() const {
  // Minimal escaping for the directory path (it is operator-supplied text
  // inside a JSON string).
  std::string dir;
  for (char c : dir_) {
    if (c == '"' || c == '\\') dir += '\\';
    if (uint8_t(c) >= 0x20) dir += c;
  }
  std::ostringstream o;
  o.setf(std::ios::fixed);
  o << std::setprecision(3);
  o << "{\"dir\":\"" << dir << "\",\"journal_bytes\":" << bytes_
    << ",\"ranges_journaled\":" << ranges_ << ",\"fsyncs\":" << syncs_
    << ",\"last_fsync_age_seconds\":" << last_sync_.seconds()
    << ",\"dirty\":" << (dirty_ ? "true" : "false") << "}";
  return o.str();
}

}  // namespace ltns::dist
