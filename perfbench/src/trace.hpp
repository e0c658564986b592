// Benchmark-side tracing for the traced run (--trace 1).
//
// Two recorders, both kept in memory until the run ends:
//
//  * SpanLog — one span per layer call, recorded by the benchmark's own
//    thread around calls into ltns's public functions (name, start, end,
//    parent). A span's self time is its duration minus its direct children.
//  * KernelTables — per-thread named-event tables for the ~10^6 kernel calls
//    of a c25 run: each thread aggregates count, seconds, bytes and flops per
//    kernel name into its own table, never one record per call, and the
//    tables are summed once after the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

double now_seconds();  // steady clock

struct Span {
  std::string name;
  int parent = -1;
  double start = 0;
  double end = 0;
  double duration() const { return end - start; }
};

class SpanLog {
 public:
  int open(std::string name);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Summed duration of every span with this name.
  double total(const std::string& name) const;
  // Duration minus the direct children's durations.
  double self(int id) const;
  // Summed self time of the top-level spans: the part no layer span covers.
  double top_level_self() const;
  // Per-name table (count, total, self) in first-seen order.
  void print(std::FILE* out) const;

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

// RAII span; a null log makes it a no-op, so untraced code paths share the
// traced ones without paying for spans.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->open(std::move(name)) : -1) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }

 private:
  SpanLog* log_;
  int id_;
};

enum class Kernel : int { kGemm = 0, kPermute = 1, kStemWindow = 2 };
inline constexpr int kNumKernels = 3;

struct KernelTotals {
  uint64_t calls = 0;
  double seconds = 0;     // summed over threads (worker-seconds)
  double bytes = 0;       // computed from operand shapes
  double flops = 0;       // computed from operand shapes (gemm only)
  double pack_bytes = 0;  // bytes the backend reported as staged to-device
};

class KernelTables {
 public:
  KernelTables();
  KernelTables(const KernelTables&) = delete;
  KernelTables& operator=(const KernelTables&) = delete;

  // Called from any worker thread; touches only that thread's table.
  void record(Kernel k, double seconds, double bytes, double flops, double pack_bytes);
  // Sums every thread's table. Call once the recording threads are idle
  // (after the run that used them has returned).
  KernelTotals total(Kernel k) const;

 private:
  // Single writer (the owning thread); relaxed atomics keep the final
  // cross-thread read free of data races.
  struct Cell {
    std::atomic<uint64_t> calls{0};
    std::atomic<double> seconds{0}, bytes{0}, flops{0}, pack_bytes{0};
  };
  struct Table {
    Cell cells[kNumKernels];
  };
  Table& local();

  const uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Table>> tables_;  // guarded by mu_
};

}  // namespace perfbench
