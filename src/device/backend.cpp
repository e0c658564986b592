#include "device/backend.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/aligned_alloc.hpp"
#include "util/timer.hpp"

namespace ltns::device {

namespace {

constexpr double kBytesPerElem = sizeof(exec::cfloat);

}  // namespace

exec::cfloat* DeviceBackend::alloc_elems(size_t n) {
  util::AlignedAllocator<exec::cfloat, exec::kTensorAlignment> a;
  return a.allocate(n);
}

void DeviceBackend::free_elems(exec::cfloat* p, size_t n) {
  util::AlignedAllocator<exec::cfloat, exec::kTensorAlignment> a;
  a.deallocate(p, n);
}

void DeviceBackend::upload(exec::cfloat* dst, const exec::cfloat* src, size_t n,
                           DeviceStats* stats) {
  obs::TraceScope tr(obs::EventKind::kDeviceUpload, uint64_t(double(n) * kBytesPerElem));
  Timer t;
  std::copy(src, src + n, dst);
  if (stats) {
    stats->bytes_to_device += double(n) * kBytesPerElem;
    stats->ns_to_device += t.seconds() * 1e9;
    stats->uploads += 1;
  }
}

void DeviceBackend::download(exec::cfloat* dst, const exec::cfloat* src, size_t n,
                             DeviceStats* stats) {
  obs::TraceScope tr(obs::EventKind::kDeviceDownload, uint64_t(double(n) * kBytesPerElem));
  Timer t;
  std::copy(src, src + n, dst);
  if (stats) {
    stats->bytes_to_host += double(n) * kBytesPerElem;
    stats->ns_to_host += t.seconds() * 1e9;
    stats->downloads += 1;
  }
}

exec::Tensor DeviceBackend::contract(const exec::Tensor& a, const exec::Tensor& b,
                                     ThreadPool* pool, exec::ContractStats* cs,
                                     DeviceStats* stats) {
  return exec::contract(a, b, pool, cs, this, stats);
}

exec::Tensor DeviceBackend::run_stem_window(exec::Tensor w, const exec::Tensor* branches,
                                            int n_steps, exec::ContractStats* cs,
                                            DeviceStats* stats, size_t* peak_elems) {
  size_t peak = w.size();
  for (int k = 0; k < n_steps; ++k) {
    exec::Tensor wn = contract(w, branches[k], /*pool=*/nullptr, cs, stats);  // serial: one CPE
    peak = std::max(peak, w.size() + branches[k].size() + wn.size());
    w = std::move(wn);
    if (stats) stats->stem_steps += 1;
  }
  if (peak_elems) *peak_elems = peak;
  return w;
}

// --- registry --------------------------------------------------------------

// Factories live in their backend's translation unit; the explicit list
// (rather than static self-registration) keeps construction order trivial.
std::unique_ptr<DeviceBackend> make_host_backend(exec::Precision prec);
std::unique_ptr<DeviceBackend> make_simd_backend(exec::Precision prec);

std::string BackendSpec::spec() const {
  if (precision == exec::Precision::kFp32) return name;
  return name + "+" + exec::precision_name(precision);
}

BackendSpec parse_backend_spec(const std::string& spec) {
  BackendSpec out;
  if (spec.empty()) return out;
  const size_t plus = spec.find('+');
  if (plus == std::string::npos) {
    out.name = spec;
    return out;
  }
  out.name = spec.substr(0, plus);
  const std::string prec = spec.substr(plus + 1);
  if (prec == "fp32")
    out.precision = exec::Precision::kFp32;
  else if (prec == "bf16")
    out.precision = exec::Precision::kBf16;
  else
    throw std::invalid_argument("unknown backend precision '" + prec + "' in spec '" + spec +
                                "'; use fp32 or bf16");
  if (out.name.empty()) out.name = "host";
  return out;
}

std::string merge_backend_override(const std::string& job_spec,
                                   const std::string& override_spec) {
  if (override_spec.empty()) return job_spec.empty() ? "host" : job_spec;
  BackendSpec merged = parse_backend_spec(override_spec);
  if (override_spec.find('+') == std::string::npos)
    merged.precision = parse_backend_spec(job_spec).precision;
  return merged.spec();
}

std::vector<BackendInfo> available_backends() {
  const exec::Precision fp32 = exec::Precision::kFp32;
  std::vector<BackendInfo> out;
  out.push_back({"host", make_host_backend(fp32)->capabilities()});
  out.push_back({"simd", make_simd_backend(fp32)->capabilities()});
  return out;
}

std::unique_ptr<DeviceBackend> make_backend(const std::string& spec) {
  const BackendSpec s = parse_backend_spec(spec);
  if (s.name == "host") return make_host_backend(s.precision);
  if (s.name == "simd") return make_simd_backend(s.precision);
  std::ostringstream msg;
  msg << "unknown device backend '" << s.name << "'; known backends:";
  for (const auto& b : available_backends()) msg << " " << b.name;
  msg << " (each accepts a +fp32 or +bf16 precision suffix)";
  throw std::invalid_argument(msg.str());
}

std::string backend_help() {
  std::ostringstream o;
  o << "device backends (spec: name[+fp32|+bf16], default fp32):\n";
  for (const auto& b : available_backends()) {
    o << "  " << b.name << "\n"
      << "      " << b.caps.description << "\n"
      << "      alignment=" << b.caps.alignment << "B simd_lanes=" << b.caps.simd_lanes
      << " isa=" << b.caps.isa << "\n";
  }
  return o.str();
}

}  // namespace ltns::device
