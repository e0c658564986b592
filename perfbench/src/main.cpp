// ltns_perfbench — one workload run, or the c25 reference generator.
//
//   ltns_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--refs PATH] [--toy]
//   ltns_perfbench make-refs PATH
//
// Prints the machine facts and any failed check to stderr, and the result
// as one JSON object on the last line of stdout. Exit status 0 only when
// every check passed. perfbench/run.py builds and drives this binary.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "device/cpu_probe.hpp"
#include "obs/build_info.hpp"
#include "workloads.hpp"

namespace {

std::string meminfo_total() {
  std::ifstream in("/proc/meminfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("MemTotal:", 0) == 0) return line.substr(9);
  return "unknown";
}

std::string l2_size() {
  const long bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (bytes > 0) return std::to_string(bytes / 1024) + " kB";
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index2/size");
  std::string s;
  return std::getline(in, s) ? s : "unknown";
}

void print_machine_facts() {
  std::fprintf(stderr, "machine: nproc %ld, isa %s, L2 %s, MemTotal %s\nbuild: %s\n",
               sysconf(_SC_NPROCESSORS_ONLN), ltns::device::probe_isa_label().c_str(),
               l2_size().c_str(), meminfo_total().c_str(), ltns::obs::build_info_json().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: ltns_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--refs PATH] [--toy]\n       ltns_perfbench make-refs PATH\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 3 && std::string(argv[1]) == "make-refs") return make_references(argv[2]);
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--toy") cfg.toy = true;
    else if (a == "--workload" && has_value) cfg.workload = argv[++i];
    else if (a == "--seed" && has_value) cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has_value) cfg.seconds = std::atof(argv[++i]);
    else if (a == "--trace" && has_value) cfg.trace = std::string(argv[++i]) != "0";
    else if (a == "--refs" && has_value) cfg.refs_path = argv[++i];
    else return usage();
  }
  if (cfg.workload.empty() || !(cfg.seconds > 0)) return usage();
  print_machine_facts();

  RunReport rep;
  try {
    rep = run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  for (const auto& p : rep.problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
  std::string json = "{\"correct\": " + std::string(rep.problems.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", rep.metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + rep.metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + rep.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return rep.problems.empty() ? 0 : 1;
}
