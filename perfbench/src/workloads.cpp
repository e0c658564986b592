#include "workloads.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "api/simulator.hpp"
#include "checks.hpp"
#include "circuit/circuit.hpp"
#include "circuit/lowering.hpp"
#include "core/planner.hpp"
#include "exec/fused_executor.hpp"
#include "exec/shard_runner.hpp"
#include "exec/slice_runner.hpp"
#include "path/optimizer.hpp"
#include "query/engine.hpp"
#include "query/eval.hpp"
#include "query/grouper.hpp"
#include "sv/statevector.hpp"
#include "timing_backend.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace api = ltns::api;
namespace circuit = ltns::circuit;
namespace core = ltns::core;
namespace exec = ltns::exec;
namespace query = ltns::query;

namespace {

// ---------------------------------------------------------------------------
// Shared helpers

uint64_t mix_seed(uint64_t seed, uint64_t salt) { return ltns::Rng(seed ^ salt).next_u64(); }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// getrusage high-water mark; `children` adds the largest reaped child.
double peak_rss_mib(bool children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double kib = double(self.ru_maxrss);
  if (children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    kib += double(kids.ru_maxrss);
  }
  return kib / 1024.0;
}

circuit::Circuit make_circuit(const circuit::Device& dev, int cycles, uint64_t seed) {
  circuit::RqcOptions o;
  o.cycles = cycles;
  o.seed = seed;
  return circuit::random_quantum_circuit(dev, o);
}

// The fixed c25 circuit the two amplitude workloads and the references use.
circuit::Circuit c25_circuit() { return make_circuit(circuit::Device::grid(5, 5), 12, 7); }

// Runs `round` until the window closes: a round starts only while the
// window still has room for one more of the last round's length, and at
// least one round always runs. Every run thus attempts whole rounds.
template <class Round>
void run_rounds(double seconds, Round round) {
  const double t0 = now_seconds();
  double last = 0;
  do {
    const double r0 = now_seconds();
    round();
    last = now_seconds() - r0;
  } while (now_seconds() - t0 + last <= seconds);
}

void print_samples(const char* what, const std::vector<double>& v) {
  std::fprintf(stderr, "%zu samples of %s:", v.size(), what);
  for (double x : v) std::fprintf(stderr, " %.4f", x);
  std::fprintf(stderr, "\n");
}

// The same configuration at self-check size: one warm-up operation on it
// triggers the process-wide lazy set-up (thread pool, scheduler, CPU probe)
// before the measured window opens.
RunConfig toy_of(const RunConfig& cfg) {
  RunConfig toy = cfg;
  toy.toy = true;
  return toy;
}

// Runs `check` in a forked child so the memory it needs (a statevector)
// never reaches this process's RSS high-water mark. The child reports
// through its exit status and prints its problems to stderr.
void check_in_child(const std::function<void(std::vector<std::string>*)>& check,
                    std::vector<std::string>* problems) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    problems->push_back("fork for the statevector check failed");
    return;
  }
  if (pid == 0) {
    std::vector<std::string> found;
    check(&found);
    for (const auto& p : found) std::fprintf(stderr, "check: %s\n", p.c_str());
    std::fflush(stderr);
    _exit(found.empty() ? 0 : 1);  // no atexit: the parent's pool threads do not exist here
  }
  int status = 0;
  pid_t waited = -1;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    problems->push_back("statevector check failed (see stderr)");
}

// ---------------------------------------------------------------------------
// Metric tables

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"wall_s", "s"},       {"setup_s", "s"},         {"first_answer_s", "s"},
    {"peak_rss_mib", "MiB"}, {"sliced_flops", "flop"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"circuit.lower_s", "s"},
    {"path.search_s", "s"},
    {"path.calls", "count"},
    {"path.log2_flops", "log2"},
    {"path.max_log2_size", "log2"},
    {"core.slice_s", "s"},
    {"core.slice_edges", "count"},
    {"core.overhead", "ratio"},
    {"core.subtasks", "count"},
    {"exec.fused_plan_s", "s"},
    {"exec.run_s", "s"},
    {"exec.flops", "flop"},
    {"exec.gflops", "Gflop/s"},
    {"device.permute_s", "s"},
    {"device.permute_calls", "count"},
    {"device.permute_bytes", "B"},
    {"device.permute_gbps", "GB/s"},
    {"device.gemm_s", "s"},
    {"device.gemm_calls", "count"},
    {"device.gemm_gflops", "Gflop/s"},
    {"device.gemm_flops_per_byte", "flop/B"},
    {"device.stem_window_s", "s"},
    {"device.stem_window_calls", "count"},
    {"device.pack_bytes", "B"},
    {"runtime.tasks", "count"},
    {"runtime.steals", "count"},
    {"runtime.utilization", "ratio"},
    {"runtime.reduce_s", "s"},
    {"dist.run_s", "s"},
    {"dist.shard_wall_max_s", "s"},
    {"dist.coord_overhead_s", "s"},
    {"dist.leases", "count"},
    {"dist.ranges_stolen", "count"},
    {"dist.straggler_wait_s", "s"},
    {"cache.plan_hits", "count"},
    {"cache.plan_misses", "count"},
    {"cache.result_hits", "count"},
    {"cache.superset_hits", "count"},
    {"cache.warm_pass_s", "s"},
    {"query.groups", "count"},
    {"query.contractions", "count"},
    {"query.plan_rebuilds", "count"},
    {"query.plan_s", "s"},
    {"query.exec_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.untraced_wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.unattributed_s", "s"},
};

// Every metric of one table, in table order, with the values set by name;
// a layer a workload does not exercise reads 0.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<std::pair<const char*, const char*>>& table) {
    for (const auto& [name, unit] : table) metrics_.push_back({name, 0, unit});
  }
  void set(const std::string& name, double value) {
    for (auto& m : metrics_)
      if (m.name == name) {
        m.value = std::isfinite(value) ? value : 0;
        return;
      }
    throw std::logic_error("unknown metric " + name);
  }
  std::vector<Metric> take() { return std::move(metrics_); }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Layer-by-layer planning (traced runs): core::make_plan's default
// (lifetime + refiner) pipeline, one public call per layer, each in a span.

struct LayeredPlan {
  circuit::LoweredNetwork lowered;  // pinned: plan.tree points into lowered.net
  ltns::path::PathResult path;
  core::Plan plan;
};

std::unique_ptr<LayeredPlan> plan_by_layers(const circuit::Circuit& c,
                                            const circuit::LoweringOptions& lo,
                                            const core::PlanOptions& po, SpanLog* log) {
  if (po.slicer != core::SlicerKind::kLifetimeRefined)
    throw std::logic_error("plan_by_layers follows the lifetime-refined slicer only");
  auto lp = std::make_unique<LayeredPlan>();
  {
    SpanScope s(log, "circuit.lower");
    lp->lowered = circuit::lower(c, lo);
    circuit::simplify(lp->lowered);
  }
  const auto& net = lp->lowered.net;
  {
    SpanScope s(log, "path.search");
    lp->path = ltns::path::find_path(net, po.path);
  }
  SpanScope s(log, "core.slice");
  double open_log2 = 0;
  for (int e : net.open_edges()) open_log2 += net.edge(e).log2w;
  const double target = std::max(po.target_log2size, open_log2);
  core::Plan& p = lp->plan;
  p.path = lp->path.path;
  p.path_method = lp->path.method;
  p.tree = std::make_shared<ltns::tn::ContractionTree>(
      ltns::tn::ContractionTree::build(net, p.path));
  p.stem = ltns::tn::extract_stem(*p.tree);
  core::SliceFinderOptions f;
  f.target_log2size = target;
  core::SliceSet found = core::lifetime_slice_finder(p.stem, f);
  core::SliceRefinerOptions r = po.refiner;
  r.target_log2size = target;
  r.seed = po.seed;
  p.slices = core::refine_slices(p.stem, std::move(found), r);
  p.metrics = core::evaluate_slicing(*p.tree, p.slices);
  return lp;
}

// Per-layer figures gathered over the plans and runs of one traced op.
struct LayerFigures {
  std::vector<const LayeredPlan*> plans;
  double run_s = 0;
  double flops = 0;
  uint64_t tasks = 0, steals = 0;
  double util_weighted = 0;  // utilization x tasks
  double reduce_s = 0;

  void add_run(const exec::ExecStats& stats, const ltns::runtime::ExecutorSnapshot& ex,
               double seconds) {
    run_s += seconds;
    flops += stats.flops;
    tasks += ex.finished;
    steals += ex.stolen;
    util_weighted += ex.ema_utilization * double(ex.finished);
    reduce_s += ex.reduce.seconds;
  }

  void report(MetricSet& m, const SpanLog& log) const {
    m.set("circuit.lower_s", log.total("circuit.lower"));
    m.set("path.search_s", log.total("path.search"));
    m.set("core.slice_s", log.total("core.slice"));
    m.set("exec.fused_plan_s", log.total("exec.fused_plan"));
    if (!plans.empty()) {
      double log2_flops = 0, max_size = 0, edges = 0, log2_over = 0, log2_sub = 0;
      for (const LayeredPlan* p : plans) {
        log2_flops += p->path.log2cost;
        max_size = std::max(max_size, p->path.log2size);
        edges += p->plan.num_slices();
        log2_over += p->plan.metrics.log2_overhead;
        log2_sub += p->plan.metrics.log2_num_subtasks;
      }
      const double k = double(plans.size());
      // Per-plan means; overhead and subtasks as geometric means.
      m.set("path.log2_flops", log2_flops / k);
      m.set("path.max_log2_size", max_size);
      m.set("core.slice_edges", edges / k);
      m.set("core.overhead", std::exp2(log2_over / k));
      m.set("core.subtasks", std::exp2(log2_sub / k));
    }
    if (run_s > 0) {
      m.set("exec.run_s", run_s);
      m.set("exec.flops", flops);
      m.set("exec.gflops", flops / run_s / 1e9);
      m.set("runtime.tasks", double(tasks));
      m.set("runtime.steals", double(steals));
      m.set("runtime.utilization", tasks > 0 ? util_weighted / double(tasks) : 0);
      m.set("runtime.reduce_s", reduce_s);
    }
  }
};

void report_kernels(MetricSet& m, const KernelTables& kt) {
  const KernelTotals p = kt.total(Kernel::kPermute);
  const KernelTotals g = kt.total(Kernel::kGemm);
  const KernelTotals w = kt.total(Kernel::kStemWindow);
  m.set("device.permute_s", p.seconds);
  m.set("device.permute_calls", double(p.calls));
  m.set("device.permute_bytes", p.bytes);
  m.set("device.permute_gbps", p.seconds > 0 ? p.bytes / p.seconds / 1e9 : 0);
  m.set("device.gemm_s", g.seconds);
  m.set("device.gemm_calls", double(g.calls));
  m.set("device.gemm_gflops", g.seconds > 0 ? g.flops / g.seconds / 1e9 : 0);
  m.set("device.gemm_flops_per_byte", g.bytes > 0 ? g.flops / g.bytes : 0);
  m.set("device.stem_window_s", w.seconds);
  m.set("device.stem_window_calls", double(w.calls));
  m.set("device.pack_bytes", g.pack_bytes + w.pack_bytes);
}

void report_trace(MetricSet& m, const SpanLog& log, double untraced_wall) {
  const double traced = log.total("op");
  m.set("trace.wall_s", traced);
  m.set("trace.untraced_wall_s", untraced_wall);
  m.set("trace.overhead_s", traced - untraced_wall);
  m.set("trace.unattributed_s", log.top_level_self());
  std::fprintf(stderr, "traced spans (kept in memory, %zu recorded):\n", log.spans().size());
  log.print(stderr);
}

// In-process execution of a layered plan, as api::Simulator runs it, on
// subtasks [0, num_tasks) (0 = all of them).
exec::Tensor run_in_process(const LayeredPlan& lp, const api::SimulatorOptions& opt,
                            ltns::device::DeviceBackend* backend, SpanLog* log,
                            LayerFigures* fig, uint64_t num_tasks = 0) {
  exec::FusedPlan fused;
  {
    SpanScope s(log, "exec.fused_plan");
    fused = exec::plan_fused(lp.plan.stem, lp.plan.slices.to_vector(), opt.ldm_elems);
  }
  auto leaves = [&lp](ltns::tn::VertId v) -> const exec::Tensor& {
    return lp.lowered.tensors[size_t(v)];
  };
  exec::SliceRunOptions ro;
  ro.num_tasks = num_tasks;
  ro.executor = opt.executor;
  ro.scheduler = opt.scheduler;
  ro.grain = opt.grain;
  ro.pool = opt.pool != nullptr ? opt.pool : &ltns::ThreadPool::global();
  ro.fused = opt.fused ? &fused : nullptr;
  ro.backend = backend;
  const double t0 = now_seconds();
  exec::SliceRunResult rr;
  {
    SpanScope s(log, "exec.run");
    rr = exec::run_sliced(*lp.plan.tree, leaves, lp.plan.slices, ro);
  }
  if (fig != nullptr) fig->add_run(rr.stats, rr.executor_stats, now_seconds() - t0);
  if (!rr.completed) throw std::runtime_error("run_sliced did not complete");
  return std::move(rr.accumulated);
}

// Kernel-timed variant for the traced runs.
exec::Tensor run_in_process_timed(const LayeredPlan& lp, const api::SimulatorOptions& opt,
                                  SpanLog* log, KernelTables* kt, LayerFigures* fig) {
  TimingBackend backend(api::effective_backend_spec(opt), kt);
  return run_in_process(lp, opt, &backend, log, fig);
}

void expect_same_plan(const core::SlicedMetrics& a, const core::SlicedMetrics& b,
                      const std::string& what, std::vector<std::string>* problems) {
  if (a.log2_total_cost != b.log2_total_cost || a.log2_num_subtasks != b.log2_num_subtasks)
    problems->push_back(what + ": layer-by-layer plan differs from the program's plan");
}

// ---------------------------------------------------------------------------
// amp-c25-sliced / amp-c25-elastic

struct AmpInput {
  circuit::Circuit circ;
  std::vector<int> bits;
  cplx reference;
  api::SimulatorOptions opt;
  bool elastic = false;
};

AmpInput amp_input(const RunConfig& cfg, bool elastic) {
  AmpInput in;
  in.elastic = elastic;
  if (cfg.toy) {
    in.circ = make_circuit(circuit::Device::grid(3, 3), 8, 7);
    ltns::Rng rng(mix_seed(cfg.seed, 0xa3));
    in.bits.resize(size_t(in.circ.num_qubits));
    for (int& b : in.bits) b = int(rng.next_u64() >> 63);
    in.reference = ltns::sv::simulate_amplitude(in.circ, in.bits);
  } else {
    in.circ = c25_circuit();
    const auto refs = load_references(cfg.refs_path, in.circ.num_qubits);
    if (refs.empty()) throw std::runtime_error("cannot read references from " + cfg.refs_path);
    const auto& r = refs[size_t(mix_seed(cfg.seed, 0xa3) % refs.size())];
    in.bits = r.bits;
    in.reference = r.amplitude;
  }
  in.opt.backend = "simd";
  in.opt.plan.target_log2size = cfg.toy ? (elastic ? 5 : 4) : (elastic ? 18 : 16);
  if (elastic) {
    in.opt.sharding.processes = 2;
    in.opt.sharding.workers_per_process = 2;
    in.opt.sharding.elastic = true;
  }
  return in;
}

struct AmpSample {
  cplx amplitude;
  double wall = 0;
  double setup = 0;
  core::SlicedMetrics slicing;
  std::string error;  // non-empty: the operation failed
};

// One operation: Simulator construction to the answer.
AmpSample amp_op(const AmpInput& in) {
  AmpSample s;
  const double t0 = now_seconds();
  api::Simulator sim(in.circ, in.opt);
  const double tp = now_seconds();
  const api::PreparedPlan plan = sim.prepare(in.bits);
  s.setup = now_seconds() - tp;
  const api::AmplitudeResult r = sim.amplitude(plan);
  s.wall = now_seconds() - t0;
  s.amplitude = r.amplitude;
  s.slicing = plan.slicing();
  s.error = r.telemetry.error;
  if (s.error.empty() && !r.completed) s.error = "run did not complete";
  return s;
}

// The first contraction in a process runs measurably slower than later
// ones (allocator and page warm-up, ~10% at c25). Before the window opens,
// run 1/16 of this workload's own subtasks in-process, so every measured
// operation starts from the same warm state; forked shard workers inherit
// it from this process.
void warm_up(const AmpInput& in) {
  circuit::LoweringOptions lo;
  lo.output_bits = in.bits;
  const auto lp = plan_by_layers(in.circ, lo, in.opt.plan, nullptr);
  const auto backend = ltns::device::make_backend(api::effective_backend_spec(in.opt));
  const uint64_t tasks = uint64_t(std::exp2(lp->plan.metrics.log2_num_subtasks));
  (void)run_in_process(*lp, in.opt, backend.get(), nullptr, nullptr,
                       std::max<uint64_t>(1, tasks / 16));
}

void check_amp(const AmpInput& in, const AmpSample& s, RunReport* rep) {
  std::string why;
  if (s.error.empty() && !amplitude_close(s.amplitude, in.reference, in.circ.num_qubits, &why))
    rep->problems.push_back(why);
}

RunReport run_amp(const RunConfig& cfg, bool elastic) {
  const AmpInput in = amp_input(cfg, elastic);
  RunReport rep;
  warm_up(in);
  std::vector<AmpSample> samples;
  run_rounds(cfg.seconds, [&] { samples.push_back(amp_op(in)); });
  // Set-up is cheap next to the contraction (~0.1 s, spreading ±12% from
  // one prepare() to the next): take 11 cold samples per run, so setup_s is
  // a median even when one round fits.
  std::vector<double> setups;
  for (const auto& s : samples) setups.push_back(s.setup);
  while (setups.size() < 11) {
    api::Simulator sim(in.circ, in.opt);
    const double t0 = now_seconds();
    (void)sim.prepare(in.bits);
    setups.push_back(now_seconds() - t0);
  }
  std::vector<double> walls;
  for (const auto& s : samples) {
    ++rep.attempted;
    if (!s.error.empty()) {
      ++rep.failed;
      continue;
    }
    walls.push_back(s.wall);
    check_amp(in, s, &rep);
    if (s.amplitude != samples.front().amplitude)
      rep.problems.push_back("amplitude differs between repeated runs");
  }
  print_samples("wall_s", walls);
  print_samples("setup_s", setups);
  MetricSet m(kEndToEnd);
  m.set("wall_s", median(walls));
  m.set("setup_s", median(setups));
  m.set("first_answer_s", median(walls));  // one answer per operation
  m.set("peak_rss_mib", peak_rss_mib(elastic));
  m.set("sliced_flops", std::exp2(samples.front().slicing.log2_total_cost));
  rep.metrics = m.take();
  return rep;
}

RunReport trace_amp(const RunConfig& cfg, bool elastic) {
  const AmpInput in = amp_input(cfg, elastic);
  RunReport rep;
  warm_up(in);
  const AmpSample base = amp_op(in);
  rep.attempted = 2;
  if (!base.error.empty()) rep.failed = 2;
  check_amp(in, base, &rep);

  SpanLog log;
  KernelTables kernels;
  LayerFigures fig;
  MetricSet m(kPerLayer);
  const uint64_t calls0 = ltns::path::find_path_invocations();
  cplx amplitude;
  std::unique_ptr<LayeredPlan> lp;
  {
    SpanScope op(&log, "op");
    circuit::LoweringOptions lo;
    lo.output_bits = in.bits;
    lp = plan_by_layers(in.circ, lo, in.opt.plan, &log);
    fig.plans.push_back(lp.get());
    exec::Tensor acc;
    if (!elastic) {
      acc = run_in_process_timed(*lp, in.opt, &log, &kernels, &fig);
    } else {
      exec::FusedPlan fused;
      {
        SpanScope s(&log, "exec.fused_plan");
        fused = exec::plan_fused(lp->plan.stem, lp->plan.slices.to_vector(), in.opt.ldm_elems);
      }
      auto leaves = [&lp](ltns::tn::VertId v) -> const exec::Tensor& {
        return lp->lowered.tensors[size_t(v)];
      };
      exec::ShardRunOptions so;  // as api::Simulator fills it
      so.processes = in.opt.sharding.processes;
      so.workers_per_process = in.opt.sharding.workers_per_process;
      so.executor = in.opt.executor;
      so.grain = in.opt.grain;
      so.fused = &fused;
      so.elastic = in.opt.sharding.elastic;
      so.lease_size = in.opt.sharding.lease_size;
      so.heartbeat_seconds = in.opt.sharding.heartbeat_seconds;
      so.stall_timeout_seconds = in.opt.sharding.stall_timeout_seconds;
      so.backend = api::effective_backend_spec(in.opt);
      const double t0 = now_seconds();
      exec::ShardRunResult sr;
      {
        SpanScope s(&log, "dist.run");
        sr = exec::run_sharded(*lp->plan.tree, leaves, lp->plan.slices, so);
      }
      const double run_s = now_seconds() - t0;
      if (!sr.completed || !sr.error.empty())
        throw std::runtime_error("traced run_sharded failed: " + sr.error);
      fig.add_run(sr.stats, sr.executor_stats, run_s);
      double shard_max = 0;
      for (const auto& sh : sr.shards) shard_max = std::max(shard_max, sh.wall_seconds);
      m.set("dist.run_s", run_s);
      m.set("dist.shard_wall_max_s", shard_max);
      m.set("dist.coord_overhead_s", run_s - shard_max);
      m.set("dist.leases", double(sr.rebalance.leases_completed));
      m.set("dist.ranges_stolen", double(sr.rebalance.ranges_stolen));
      m.set("dist.straggler_wait_s", sr.rebalance.straggler_wait_seconds);
      acc = std::move(sr.accumulated);
    }
    amplitude = cplx(acc.data()[0]) * lp->lowered.scalar;
  }
  m.set("path.calls", double(ltns::path::find_path_invocations() - calls0));
  if (base.error.empty()) {
    if (amplitude != base.amplitude)
      rep.problems.push_back("traced amplitude is not bitwise equal to the untraced one");
    expect_same_plan(lp->plan.metrics, base.slicing, "amplitude plan", &rep.problems);
  }
  fig.report(m, log);
  report_kernels(m, kernels);
  report_trace(m, log, base.wall);
  rep.metrics = m.take();
  return rep;
}

// ---------------------------------------------------------------------------
// query-c20-mixed

struct QueryInput {
  circuit::Circuit circ;
  std::vector<query::Query> cold, warm;
  api::SimulatorOptions opt;
};

std::string pattern(const std::vector<int>& bits, const std::vector<int>& open) {
  std::string s;
  for (int b : bits) s += b != 0 ? '1' : '0';
  for (int q : open) s[size_t(q)] = '?';
  return s;
}

// The grouping query::Engine applies with its default options.
query::GrouperOptions engine_grouping() {
  query::GrouperOptions go;
  go.max_open = query::EngineOptions{}.max_open;
  go.group_amplitudes = query::EngineOptions{}.group_amplitudes;
  return go;
}

std::vector<query::Query> parse_or_throw(const std::string& text, int n) {
  auto parsed = query::parse_queries(text, n);
  if (!parsed.ok()) throw std::runtime_error("generated query file rejected: " + parsed.error);
  return std::move(parsed.queries);
}

// The seeded query mix. Open positions are fixed, so the group structure
// (and with it the amount of work) is the same for every seed; the seed
// draws every bit, sample seed and Pauli letter. Draws that would let the
// grouper merge differently are redrawn.
QueryInput query_input(const RunConfig& cfg) {
  QueryInput in;
  in.circ = cfg.toy ? make_circuit(circuit::Device::grid(3, 4), 8, 7)
                    : make_circuit(circuit::Device::grid(4, 5), 12, 7);
  in.opt.backend = "simd";
  in.opt.plan.target_log2size = cfg.toy ? 6 : 16;
  const int n = in.circ.num_qubits;
  const int batch_open = cfg.toy ? 4 : 8;
  const int n_amp = cfg.toy ? 3 : 6;
  const int n_samples = 2000;
  std::vector<int> batch_q, s1_q, t_q;
  for (int i = 0; i < batch_open; ++i) {
    const int q = n - batch_open + i;
    batch_q.push_back(q);
    (i < batch_open / 2 ? s1_q : t_q).push_back(q);
  }
  const std::vector<int> s2_q = {1, 3, 5, 7};
  const std::vector<int> e_q = {0, 2, 6};
  const size_t expected_groups = size_t(n_amp) + 5;

  ltns::Rng rng(mix_seed(cfg.seed, 0x9e));
  auto draw_bits = [&] {
    std::vector<int> b(static_cast<size_t>(n));
    for (int& x : b) x = int(rng.next_u64() >> 63);
    return b;
  };
  auto paulis = [&] {
    std::string p(size_t(n), 'I');
    for (int q : e_q) p[size_t(q)] = "XYZ"[rng.next_u64() % 3];
    return p;
  };
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::string amps;
    for (int i = 0; i < n_amp; ++i) amps += "amp " + pattern(draw_bits(), {}) + "\n";
    const auto base_a = draw_bits(), base_b = draw_bits();
    const std::string batch_a = "batch " + pattern(base_a, batch_q) + "\n";
    const std::string batch_b = "batch " + pattern(base_b, batch_q) + "\n";
    auto sample = [&](const std::vector<int>& base, const std::vector<int>& open) {
      return "sample " + std::to_string(n_samples) + " " + std::to_string(rng.next_u64() >> 16) +
             " " + pattern(base, open) + "\n";
    };
    const std::string s1 = sample(base_a, s1_q);
    const std::string s2 = sample(draw_bits(), s2_q);
    const std::string t = sample(base_b, t_q);
    const std::string e1 = "expect " + paulis() + " " + pattern(draw_bits(), {}) + "\n";
    const std::string e2 = "expect " + paulis() + " " + pattern(draw_bits(), {}) + "\n";
    // Cold: everything asked for the first time. Warm: the same questions
    // again, with batch B replaced by a follow-up sample it covers.
    in.cold = parse_or_throw(amps + batch_a + batch_b + s1 + s2 + e1 + e2, n);
    in.warm = parse_or_throw(amps + batch_a + s1 + s2 + e1 + e2 + t, n);
    const auto cold_groups = query::group_queries(in.cold, engine_grouping());
    const auto warm_groups = query::group_queries(in.warm, engine_grouping());
    std::map<std::vector<int>, int> distinct_amps;
    for (const auto& q : in.cold)
      if (q.kind == query::QueryKind::kAmplitude) ++distinct_amps[q.bits];
    if (cold_groups.size() == expected_groups && warm_groups.size() == expected_groups &&
        int(distinct_amps.size()) == n_amp)
      return in;
  }
  throw std::runtime_error("could not draw a query mix with the intended grouping");
}

struct QuerySample {
  double wall = 0, first = 0, setup = 0;
  std::vector<query::QueryResult> results;  // cold then warm, in stream order
  query::EngineStats cold_stats;
  ltns::cache::CacheStats cache;
  uint64_t cold_path_calls = 0;
};

// One operation: a fresh Simulator, the cold pass, then the warm pass.
QuerySample query_op(const QueryInput& in, SpanLog* log) {
  QuerySample s;
  SpanScope op(log, "op");
  const double t0 = now_seconds();
  api::Simulator sim(in.circ, in.opt);
  query::Engine engine(sim, query::EngineOptions{});
  {
    SpanScope span(log, "query.cold");
    const uint64_t calls0 = ltns::path::find_path_invocations();
    const double tc = now_seconds();
    s.first = -1;
    s.cold_stats = engine.run(in.cold, [&](const query::QueryResult& r) {
      if (s.first < 0) s.first = now_seconds() - tc;
      s.results.push_back(r);
    });
    s.cold_path_calls = ltns::path::find_path_invocations() - calls0;
  }
  {
    SpanScope span(log, "query.warm");
    engine.run(in.warm, [&](const query::QueryResult& r) { s.results.push_back(r); });
  }
  s.wall = now_seconds() - t0;
  s.setup = s.cold_stats.plan_seconds;
  s.cache = sim.cache_stats();
  return s;
}

bool same_result(const query::QueryResult& a, const query::QueryResult& b) {
  return a.kind == b.kind && a.id == b.id && a.error == b.error &&
         a.amplitudes == b.amplitudes && a.samples == b.samples &&
         a.expectation == b.expectation;
}

bool same_results(const QuerySample& a, const QuerySample& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t i = 0; i < a.results.size(); ++i)
    if (!same_result(a.results[i], b.results[i])) return false;
  return true;
}

// The Query each streamed result answers (ids are 1-based file positions).
const query::Query& query_for(const QueryInput& in, size_t result_index,
                              const query::QueryResult& r) {
  const auto& list = result_index < in.cold.size() ? in.cold : in.warm;
  return list[size_t(r.id - 1)];
}

void check_query_sample(const QueryInput& in, const QuerySample& s, RunReport* rep) {
  if (s.results.size() != in.cold.size() + in.warm.size()) {
    rep->problems.push_back("engine streamed the wrong number of answers");
    return;
  }
  check_in_child(
      [&](std::vector<std::string>* problems) {
        ltns::sv::Statevector sv(in.circ.num_qubits);
        sv.run(in.circ);
        for (size_t i = 0; i < s.results.size(); ++i)
          check_query_answer(query_for(in, i, s.results[i]), s.results[i], sv, problems);
      },
      &rep->problems);
}

void count_query_failures(const QuerySample& s, RunReport* rep) {
  for (const auto& r : s.results) {
    ++rep->attempted;
    if (!r.error.empty()) ++rep->failed;
  }
}

// Eq. 4 cost summed over the cold pass's contractions: one plan per open
// signature (later same-signature groups reuse its structure).
double query_sliced_flops(const QueryInput& in) {
  api::Simulator sim(in.circ, in.opt);
  std::map<std::vector<int>, double> cost_by_signature;
  double total = 0;
  for (const auto& g : query::group_queries(in.cold, engine_grouping())) {
    auto it = cost_by_signature.find(g.open_qubits);
    if (it == cost_by_signature.end())
      it = cost_by_signature
               .emplace(g.open_qubits, std::exp2(sim.prepare(g.base_bits, g.open_qubits)
                                                     .slicing()
                                                     .log2_total_cost))
               .first;
    total += it->second;
  }
  return total;
}

RunReport run_query(const RunConfig& cfg) {
  const QueryInput in = query_input(cfg);
  RunReport rep;
  (void)query_op(query_input(toy_of(cfg)), nullptr);
  std::vector<QuerySample> samples;
  run_rounds(cfg.seconds, [&] { samples.push_back(query_op(in, nullptr)); });
  std::vector<double> walls, firsts, setups;
  for (const auto& s : samples) {
    count_query_failures(s, &rep);
    walls.push_back(s.wall);
    firsts.push_back(s.first);
    setups.push_back(s.setup);
    if (!same_results(s, samples.front()))
      rep.problems.push_back("query answers differ between repeated runs");
  }
  print_samples("wall_s", walls);
  print_samples("setup_s", setups);
  MetricSet m(kEndToEnd);
  m.set("wall_s", median(walls));
  m.set("setup_s", median(setups));
  m.set("first_answer_s", median(firsts));
  m.set("peak_rss_mib", peak_rss_mib(false));
  m.set("sliced_flops", query_sliced_flops(in));
  rep.metrics = m.take();
  check_query_sample(in, samples.front(), &rep);
  return rep;
}

RunReport trace_query(const RunConfig& cfg) {
  const QueryInput in = query_input(cfg);
  RunReport rep;
  (void)query_op(query_input(toy_of(cfg)), nullptr);
  const QuerySample base = query_op(in, nullptr);
  count_query_failures(base, &rep);
  check_query_sample(in, base, &rep);

  SpanLog log;
  KernelTables kernels;
  LayerFigures fig;
  MetricSet m(kPerLayer);
  const QuerySample traced = query_op(in, &log);
  count_query_failures(traced, &rep);
  if (!same_results(traced, base))
    rep.problems.push_back("traced query answers are not bitwise equal to the untraced ones");

  // Replay: the first group of every open signature in the cold pass, one
  // public layer call at a time, with the kernels timed. Its answers must
  // match the engine's to the bit.
  std::vector<std::unique_ptr<LayeredPlan>> plans;
  {
    SpanScope replay(&log, "replay");
    std::set<std::vector<int>> seen;
    for (const auto& g : query::group_queries(in.cold, engine_grouping())) {
      if (!seen.insert(g.open_qubits).second) continue;
      circuit::LoweringOptions lo;
      lo.output_bits = g.base_bits;
      lo.open_qubits = g.open_qubits;
      plans.push_back(plan_by_layers(in.circ, lo, in.opt.plan, &log));
      const LayeredPlan& lp = *plans.back();
      fig.plans.push_back(&lp);
      const exec::Tensor acc = run_in_process_timed(lp, in.opt, &log, &kernels, &fig);
      std::vector<cplx> amps =
          g.open_qubits.empty()
              ? std::vector<cplx>{cplx(acc.data()[0]) * lp.lowered.scalar}
              : query::amplitudes_from_tensor(acc, lp.lowered, g.open_qubits);
      for (int member : g.members) {
        const query::QueryResult r = query::evaluate_query(in.cold[size_t(member)],
                                                           g.open_qubits, amps);
        const auto& engine_r = base.results;
        const bool match = std::any_of(engine_r.begin(), engine_r.begin() + long(in.cold.size()),
                                       [&](const query::QueryResult& e) {
                                         return e.id == r.id && same_result(e, r);
                                       });
        if (!match)
          rep.problems.push_back("replayed answer to query " + std::to_string(r.id) +
                                 " is not bitwise equal to the engine's");
      }
    }
  }
  fig.report(m, log);
  report_kernels(m, kernels);
  m.set("path.calls", double(traced.cold_path_calls));
  m.set("cache.plan_hits", double(traced.cache.plan.hits()));
  m.set("cache.plan_misses", double(traced.cache.plan.misses));
  m.set("cache.result_hits", double(traced.cache.result.hits()));
  m.set("cache.superset_hits", double(traced.cache.superset_hits));
  m.set("cache.warm_pass_s", log.total("query.warm"));
  m.set("query.groups", double(traced.cold_stats.groups));
  m.set("query.contractions", double(traced.cold_stats.contractions));
  m.set("query.plan_rebuilds", double(traced.cold_stats.plan_rebuilds));
  m.set("query.plan_s", traced.cold_stats.plan_seconds);
  m.set("query.exec_s", traced.cold_stats.exec_seconds);
  report_trace(m, log, base.wall);
  rep.metrics = m.take();
  return rep;
}

// ---------------------------------------------------------------------------
// plan-sycamore53-m20

struct PlanInput {
  std::vector<circuit::Circuit> circuits;
  core::PlanOptions opt;  // the planner's defaults: 2^30 bound
};

PlanInput plan_input(const RunConfig& cfg) {
  PlanInput in;
  const int cycles = cfg.toy ? 4 : 20;
  for (uint64_t i = 0; i < 3; ++i)
    in.circuits.push_back(
        make_circuit(circuit::Device::sycamore53(), cycles, mix_seed(cfg.seed, 0x5c + i)));
  if (cfg.toy) in.opt.target_log2size = 8;  // small enough to force slicing
  return in;
}

struct Planned {
  circuit::LoweredNetwork lowered;  // pinned: plan.tree points into lowered.net
  core::Plan plan;
};

struct PlanRound {
  std::vector<std::unique_ptr<Planned>> plans;
  std::vector<double> seconds;  // per circuit
  double wall = 0;
};

// One operation: plan every circuit of the set, the way prepare() does.
PlanRound plan_op(const PlanInput& in) {
  PlanRound round;
  const double t0 = now_seconds();
  for (const auto& c : in.circuits) {
    auto p = std::make_unique<Planned>();
    const double tc = now_seconds();
    p->lowered = circuit::lower(c);
    circuit::simplify(p->lowered);
    p->plan = core::make_plan(p->lowered.net, in.opt);
    round.seconds.push_back(now_seconds() - tc);
    round.plans.push_back(std::move(p));
  }
  round.wall = now_seconds() - t0;
  return round;
}

RunReport run_plan(const RunConfig& cfg) {
  const PlanInput in = plan_input(cfg);
  RunReport rep;
  (void)plan_op(plan_input(toy_of(cfg)));
  std::vector<PlanRound> rounds;
  run_rounds(cfg.seconds, [&] {
    PlanRound r = plan_op(in);
    if (!rounds.empty()) {  // later rounds must repeat round 0; then keep only timings
      for (size_t i = 0; i < r.plans.size(); ++i)
        if (r.plans[i]->plan.metrics.log2_total_cost !=
            rounds.front().plans[i]->plan.metrics.log2_total_cost)
          rep.problems.push_back("plan differs between repeated rounds");
      r.plans.clear();
    }
    rounds.push_back(std::move(r));
  });
  std::vector<double> walls, firsts, setups;
  for (const auto& r : rounds) {
    rep.attempted += r.seconds.size();
    walls.push_back(r.wall);
    firsts.push_back(r.seconds.front());
    setups.insert(setups.end(), r.seconds.begin(), r.seconds.end());
  }
  double log2_sum = 0;
  for (const auto& p : rounds.front().plans) {
    check_plan(p->plan, in.opt.target_log2size, &rep.problems);
    log2_sum += p->plan.metrics.log2_total_cost;
  }
  print_samples("wall_s", walls);
  print_samples("setup_s", setups);
  MetricSet m(kEndToEnd);
  m.set("wall_s", median(walls));
  m.set("setup_s", median(setups));
  m.set("first_answer_s", median(firsts));
  m.set("peak_rss_mib", peak_rss_mib(false));
  // Geometric mean over the circuit set.
  m.set("sliced_flops", std::exp2(log2_sum / double(in.circuits.size())));
  rep.metrics = m.take();
  return rep;
}

RunReport trace_plan(const RunConfig& cfg) {
  const PlanInput in = plan_input(cfg);
  RunReport rep;
  (void)plan_op(plan_input(toy_of(cfg)));
  const PlanRound base = plan_op(in);
  rep.attempted = 2 * in.circuits.size();
  for (const auto& p : base.plans) check_plan(p->plan, in.opt.target_log2size, &rep.problems);

  SpanLog log;
  LayerFigures fig;
  MetricSet m(kPerLayer);
  const uint64_t calls0 = ltns::path::find_path_invocations();
  std::vector<std::unique_ptr<LayeredPlan>> plans;
  {
    SpanScope op(&log, "op");
    for (const auto& c : in.circuits) plans.push_back(plan_by_layers(c, {}, in.opt, &log));
  }
  m.set("path.calls", double(ltns::path::find_path_invocations() - calls0));
  for (size_t i = 0; i < plans.size(); ++i) {
    fig.plans.push_back(plans[i].get());
    expect_same_plan(plans[i]->plan.metrics, base.plans[i]->plan.metrics,
                     "circuit " + std::to_string(i), &rep.problems);
    if (plans[i]->plan.slices.to_vector() != base.plans[i]->plan.slices.to_vector())
      rep.problems.push_back("circuit " + std::to_string(i) + ": slice sets differ");
  }
  fig.report(m, log);
  report_trace(m, log, base.wall);
  rep.metrics = m.take();
  return rep;
}

}  // namespace

RunReport run_workload(const RunConfig& cfg) {
  const std::string& w = cfg.workload;
  if (w == "amp-c25-sliced") return cfg.trace ? trace_amp(cfg, false) : run_amp(cfg, false);
  if (w == "amp-c25-elastic") return cfg.trace ? trace_amp(cfg, true) : run_amp(cfg, true);
  if (w == "query-c20-mixed") return cfg.trace ? trace_query(cfg) : run_query(cfg);
  if (w == "plan-sycamore53-m20") return cfg.trace ? trace_plan(cfg) : run_plan(cfg);
  throw std::invalid_argument("unknown workload '" + w + "'");
}

int make_references(const std::string& path) {
  const circuit::Circuit c = c25_circuit();
  ltns::sv::Statevector sv(c.num_qubits);
  sv.run(c);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::perror(path.c_str());
    return 1;
  }
  std::fprintf(out,
               "# <bits> <re> <im>: statevector amplitudes of the c25 circuit\n"
               "# (random_quantum_circuit(grid 5x5, cycles 12, seed 7)).\n"
               "# Regenerate: .bench_build/ltns_perfbench make-refs %s\n",
               path.c_str());
  for (const auto& bits : reference_bitstrings(c.num_qubits, 64)) {
    const cplx a = sv.amplitude_bits(bits);
    for (int b : bits) std::fputc(b != 0 ? '1' : '0', out);
    std::fprintf(out, " %.17g %.17g\n", a.real(), a.imag());
  }
  return std::fclose(out) == 0 ? 0 : 1;
}

}  // namespace perfbench
