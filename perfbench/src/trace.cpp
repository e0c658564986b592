#include "trace.hpp"

#include <chrono>
#include <map>

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = current_;
  s.start = now_seconds();
  spans_.push_back(std::move(s));
  current_ = int(spans_.size()) - 1;
  return current_;
}

void SpanLog::close(int id) {
  spans_[size_t(id)].end = now_seconds();
  current_ = spans_[size_t(id)].parent;
}

double SpanLog::self(int id) const {
  double d = spans_[size_t(id)].duration();
  for (const Span& s : spans_)
    if (s.parent == id) d -= s.duration();
  return d;
}

double SpanLog::total(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_)
    if (s.name == name) t += s.duration();
  return t;
}

double SpanLog::top_level_self() const {
  double t = 0;
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent < 0) t += self(int(i));
  return t;
}

void SpanLog::print(std::FILE* out) const {
  struct Row {
    int count = 0;
    double total = 0, self = 0;
  };
  std::vector<std::string> order;
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto [it, fresh] = rows.try_emplace(spans_[i].name);
    if (fresh) order.push_back(spans_[i].name);
    it->second.count += 1;
    it->second.total += spans_[i].duration();
    it->second.self += self(int(i));
  }
  std::fprintf(out, "%-22s %6s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& name : order) {
    const Row& r = rows[name];
    std::fprintf(out, "%-22s %6d %12.6f %12.6f\n", name.c_str(), r.count, r.total, r.self);
  }
}

namespace {

std::atomic<uint64_t> g_next_table_set{1};

void add_relaxed(std::atomic<double>& a, double v) {
  a.store(a.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}

}  // namespace

KernelTables::KernelTables() : id_(g_next_table_set.fetch_add(1)) {}

KernelTables::Table& KernelTables::local() {
  // One cached table per thread; the id (never reused) tells a table of an
  // earlier, destroyed KernelTables apart from this one.
  thread_local uint64_t owner = 0;
  thread_local Table* table = nullptr;
  if (owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    tables_.push_back(std::make_unique<Table>());
    table = tables_.back().get();
    owner = id_;
  }
  return *table;
}

void KernelTables::record(Kernel k, double seconds, double bytes, double flops,
                          double pack_bytes) {
  Cell& c = local().cells[int(k)];
  c.calls.store(c.calls.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  add_relaxed(c.seconds, seconds);
  add_relaxed(c.bytes, bytes);
  add_relaxed(c.flops, flops);
  add_relaxed(c.pack_bytes, pack_bytes);
}

KernelTotals KernelTables::total(Kernel k) const {
  std::lock_guard<std::mutex> lock(mu_);
  KernelTotals t;
  for (const auto& table : tables_) {
    const Cell& c = table->cells[int(k)];
    t.calls += c.calls.load(std::memory_order_relaxed);
    t.seconds += c.seconds.load(std::memory_order_relaxed);
    t.bytes += c.bytes.load(std::memory_order_relaxed);
    t.flops += c.flops.load(std::memory_order_relaxed);
    t.pack_bytes += c.pack_bytes.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace perfbench
