// The four benchmark workloads (see perfbench/README.md for their make-up):
//
//   amp-c25-sliced       one closed c25 amplitude, bound 2^16, in-process
//   query-c20-mixed      a seeded query mix, cold then warm pass, bound 2^16
//   plan-sycamore53-m20  planning only, Sycamore-53 m=20, bound 2^30
//   amp-c25-elastic      the c25 amplitude at bound 2^18, 2 forked x 2 workers
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) redo one operation layer by layer and report the per-layer
// metrics. Every answer is checked; see checks.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;        // self-check sizes: same code, tiny circuits
  std::string refs_path;   // checked-in c25 reference amplitudes
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // failed checks; empty = correct
};

RunReport run_workload(const RunConfig& cfg);

// Writes the c25 statevector reference amplitudes (about 50 s, 512 MiB).
int make_references(const std::string& path);

}  // namespace perfbench
