// TimingBackend: a device::DeviceBackend that forwards every call to the
// backend make_backend(spec) builds and times the three kernels into
// per-thread KernelTables. Used only in the traced run, through
// exec::SliceRunOptions::backend; the traced run asserts its amplitude is
// bitwise equal to the untraced run's, so the wrapper provably changes
// nothing but the clock reads.
#pragma once

#include <memory>
#include <string>

#include "device/backend.hpp"
#include "trace.hpp"

namespace perfbench {

class TimingBackend final : public ltns::device::DeviceBackend {
 public:
  TimingBackend(const std::string& spec, KernelTables* tables);

  const char* name() const override { return inner_->name(); }
  ltns::device::DeviceCaps capabilities() const override { return inner_->capabilities(); }

  ltns::exec::cfloat* alloc_elems(size_t n) override { return inner_->alloc_elems(n); }
  void free_elems(ltns::exec::cfloat* p, size_t n) override { inner_->free_elems(p, n); }
  void upload(ltns::exec::cfloat* dst, const ltns::exec::cfloat* src, size_t n,
              ltns::device::DeviceStats* stats) override {
    inner_->upload(dst, src, n, stats);
  }
  void download(ltns::exec::cfloat* dst, const ltns::exec::cfloat* src, size_t n,
                ltns::device::DeviceStats* stats) override {
    inner_->download(dst, src, n, stats);
  }

  void gemm(int m, int n, int k, const ltns::exec::cfloat* a, const ltns::exec::cfloat* b,
            ltns::exec::cfloat* c, ltns::ThreadPool* pool,
            ltns::device::DeviceStats* stats) override;
  ltns::exec::Tensor permute(const ltns::exec::Tensor& t, const std::vector<int>& new_ixs,
                             ltns::device::DeviceStats* stats) override;
  ltns::exec::Tensor run_stem_window(ltns::exec::Tensor w, const ltns::exec::Tensor* branches,
                                     int n_steps, ltns::exec::ContractStats* cs,
                                     ltns::device::DeviceStats* stats,
                                     size_t* peak_elems = nullptr) override;

 private:
  TimingBackend(std::unique_ptr<ltns::device::DeviceBackend> inner, KernelTables* tables);

  std::unique_ptr<ltns::device::DeviceBackend> inner_;
  KernelTables* tables_;
};

}  // namespace perfbench
