#include "timing_backend.hpp"

namespace perfbench {

namespace {

constexpr double kElemBytes = sizeof(ltns::exec::cfloat);

double to_device_bytes(const ltns::device::DeviceStats* stats) {
  return stats != nullptr ? stats->bytes_to_device : 0;
}

}  // namespace

TimingBackend::TimingBackend(std::unique_ptr<ltns::device::DeviceBackend> inner,
                             KernelTables* tables)
    : DeviceBackend(inner->precision()), inner_(std::move(inner)), tables_(tables) {}

TimingBackend::TimingBackend(const std::string& spec, KernelTables* tables)
    : TimingBackend(ltns::device::make_backend(spec), tables) {}

void TimingBackend::gemm(int m, int n, int k, const ltns::exec::cfloat* a,
                         const ltns::exec::cfloat* b, ltns::exec::cfloat* c,
                         ltns::ThreadPool* pool, ltns::device::DeviceStats* stats) {
  const double packed0 = to_device_bytes(stats);
  const double t0 = now_seconds();
  inner_->gemm(m, n, k, a, b, c, pool, stats);
  const double dt = now_seconds() - t0;
  const double dm = m, dn = n, dk = k;
  // Complex GEMM: 4 real multiplies + 4 real adds per multiply-add.
  tables_->record(Kernel::kGemm, dt, (dm * dk + dk * dn + dm * dn) * kElemBytes,
                  8.0 * dm * dn * dk, to_device_bytes(stats) - packed0);
}

ltns::exec::Tensor TimingBackend::permute(const ltns::exec::Tensor& t,
                                          const std::vector<int>& new_ixs,
                                          ltns::device::DeviceStats* stats) {
  const double t0 = now_seconds();
  ltns::exec::Tensor out = inner_->permute(t, new_ixs, stats);
  // One read and one write of every element.
  tables_->record(Kernel::kPermute, now_seconds() - t0, 2.0 * double(t.size()) * kElemBytes,
                  0, 0);
  return out;
}

ltns::exec::Tensor TimingBackend::run_stem_window(ltns::exec::Tensor w,
                                                  const ltns::exec::Tensor* branches,
                                                  int n_steps, ltns::exec::ContractStats* cs,
                                                  ltns::device::DeviceStats* stats,
                                                  size_t* peak_elems) {
  double bytes = double(w.size());
  for (int s = 0; s < n_steps; ++s) bytes += double(branches[s].size());
  const double packed0 = to_device_bytes(stats);
  const double t0 = now_seconds();
  ltns::exec::Tensor out = inner_->run_stem_window(std::move(w), branches, n_steps, cs, stats,
                                                   peak_elems);
  bytes += double(out.size());
  tables_->record(Kernel::kStemWindow, now_seconds() - t0, bytes * kElemBytes, 0,
                  to_device_bytes(stats) - packed0);
  return out;
}

}  // namespace perfbench
