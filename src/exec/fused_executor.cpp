#include "exec/fused_executor.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>

#include "device/backend.hpp"
#include "util/timer.hpp"

namespace ltns::exec {

void DmaStats::record_get(double bytes, double granularity) {
  bytes_get += bytes;
  if (granularity > 0) transfers_get += bytes / granularity;
  min_granularity = std::min(min_granularity, granularity);
  granularity_weight += bytes * granularity;
}

void DmaStats::record_put(double bytes, double granularity) {
  bytes_put += bytes;
  if (granularity > 0) transfers_put += bytes / granularity;
  min_granularity = std::min(min_granularity, granularity);
  granularity_weight += bytes * granularity;
}

void DmaStats::merge(const DmaStats& o) {
  bytes_get += o.bytes_get;
  bytes_put += o.bytes_put;
  rma_bytes += o.rma_bytes;
  transfers_get += o.transfers_get;
  transfers_put += o.transfers_put;
  min_granularity = std::min(min_granularity, o.min_granularity);
  granularity_weight += o.granularity_weight;
}

int FusedPlan::fused_steps() const {
  int c = 0;
  for (const auto& w : windows)
    if (w.in_ldm) c += w.end_step - w.begin_step;
  return c;
}

double FusedPlan::average_fused_length() const {
  int steps = 0, wins = 0;
  for (const auto& w : windows)
    if (w.in_ldm) {
      steps += w.end_step - w.begin_step;
      ++wins;
    }
  return wins ? double(steps) / wins : 0.0;
}

namespace {

constexpr double kBytesPerElem = sizeof(cfloat);  // 8

// Index set of a tree node with process-sliced edges removed.
IndexSet unsliced_ixs(const tn::ContractionTree& tree, int node, const IndexSet& sliced) {
  IndexSet s = tree.node(node).ixs;
  s -= sliced;
  return s;
}

}  // namespace

FusedPlan plan_fused(const tn::Stem& stem, const std::vector<int>& process_sliced,
                     size_t ldm_elems, bool cooperative_dma) {
  const tn::ContractionTree& tree = *stem.tree;
  FusedPlan plan;
  plan.stem = &stem;
  plan.process_sliced = process_sliced;
  plan.ldm_elems = ldm_elems;
  plan.cooperative_dma = cooperative_dma;

  IndexSet S(tree.network()->num_edges());
  for (int e : process_sliced) S.insert(e);

  const int n_steps = stem.length() - 1;
  int i = 0;
  while (i < n_steps) {
    IndexSet T = unsliced_ixs(tree, stem.nodes[size_t(i)], S);
    // Union of branch indices over the candidate window; K_T = T ∩ that.
    IndexSet touched(tree.network()->num_edges());
    FusedWindow win;
    win.begin_step = i;
    int j = i;
    size_t peak = 0;
    int s2 = 0;
    while (j < n_steps) {
      IndexSet bj = unsliced_ixs(tree, stem.branches[size_t(j)], S);
      IndexSet touched2 = touched | bj;
      IndexSet keptT = T & touched2;
      int s2_try = T.count() - keptT.count();
      // Walk the window's working sets and find the peak LDM demand.
      IndexSet w = keptT;
      size_t peak_try = 0;
      bool fits = true;
      for (int k = win.begin_step; k <= j; ++k) {
        IndexSet bk = unsliced_ixs(tree, stem.branches[size_t(k)], S);
        IndexSet wn = w ^ bk;
        size_t need = (size_t(1) << w.count()) + (size_t(1) << bk.count()) +
                      (size_t(1) << wn.count());
        peak_try = std::max(peak_try, need);
        if (need > ldm_elems) {
          fits = false;
          break;
        }
        w = wn;
      }
      if (!fits) break;
      touched = touched2;
      peak = peak_try;
      s2 = s2_try;
      ++j;
    }
    if (j == i) {
      // Not even one step fits: main-memory fallback for this step.
      win.end_step = i + 1;
      win.in_ldm = false;
      win.secondary_count = 0;
      win.ldm_peak_elems = 0;
    } else {
      win.end_step = j;
      win.in_ldm = true;
      win.secondary_count = s2;
      win.ldm_peak_elems = peak;
    }
    plan.windows.push_back(win);
    i = win.end_step;
  }
  return plan;
}

namespace {

// Contiguous-run length (in elements) of the kept axes at the tail of T's
// axis order — the DMA-get granularity of a strided sub-tensor load.
size_t tail_block_elems(const Tensor& t, const IndexSet& secondary) {
  size_t run = 0;
  for (int d = t.rank() - 1; d >= 0; --d) {
    if (secondary.contains(t.ixs()[size_t(d)])) break;
    ++run;
  }
  return size_t(1) << run;
}

struct WindowExec {
  const FusedPlan& plan;
  ThreadPool* pool;
  FusedStats* stats;
  device::DeviceBackend* backend;

  // Executes window `win` on current stem tensor `T` with pre-contracted
  // branch tensors; returns the new stem tensor.
  Tensor run(const FusedWindow& win, const Tensor& T, const std::vector<Tensor>& branches) {
    const tn::TensorNetwork& net = *plan.stem->tree->network();

    // Secondary slice set: T's indices untouched by the window's branches.
    IndexSet touched(net.num_edges());
    for (int k = win.begin_step; k < win.end_step; ++k)
      for (int e : branches[size_t(k)].ixs()) touched.insert(e);
    std::vector<int> secondary;   // in T's axis order
    std::vector<int> kept;
    IndexSet secondary_set(net.num_edges());
    for (int e : T.ixs()) {
      if (touched.contains(e)) {
        kept.push_back(e);
      } else {
        secondary.push_back(e);
        secondary_set.insert(e);
      }
    }
    assert(int(secondary.size()) == win.secondary_count);

    // Dry-run the first subtask shape to learn the output layout.
    // Output tensor: secondary axes leading (so each subtask's DMA-put is
    // one contiguous block), then the final working layout.
    const uint64_t n_sub = uint64_t(1) << secondary.size();
    const size_t get_block = tail_block_elems(T, secondary_set);

    // All subtasks share these read-only inputs.
    std::mutex merge_mu;
    Tensor out;               // allocated after first subtask reveals layout
    std::vector<int> w_ixs;   // final working-layout ixs
    bool out_ready = false;

    auto run_subtask = [&](uint64_t s) {
      ExecStats es;
      DmaStats ds;
      ScopedSeconds tmem(&es.memory_seconds);
      Tensor w = T.gather_fixed(secondary, s);
      tmem.close();
      double g = double(get_block) * kBytesPerElem;
      double moved = double(w.size()) * kBytesPerElem;
      if (plan.cooperative_dma && g < 512.0) {
        // §5.3.2: cooperative block load + RMA redistribution.
        ds.rma_bytes += moved;
        g = std::min(512.0, double(T.size()) * kBytesPerElem);
      }
      ds.record_get(moved, g);
      size_t ldm_peak = w.size();

      if (backend != nullptr) {
        // Batched device execution: the whole window's steps run on the
        // backend. The DMA model still counts each branch get.
        for (int k = win.begin_step; k < win.end_step; ++k) {
          const Tensor& b = branches[size_t(k)];
          ds.record_get(double(b.size()) * kBytesPerElem, double(b.size()) * kBytesPerElem);
        }
        ContractStats cs;
        size_t peak = 0;
        w = backend->run_stem_window(std::move(w), branches.data() + win.begin_step,
                                     win.end_step - win.begin_step, &cs, &es.device, &peak);
        es.flops += cs.flops;
        es.permute_elems += cs.permute_elems;
        es.gemm_seconds += cs.gemm_seconds;
        es.permute_seconds += cs.permute_seconds;
        ldm_peak = std::max(ldm_peak, peak);
      } else {
        for (int k = win.begin_step; k < win.end_step; ++k) {
          const Tensor& b = branches[size_t(k)];
          ds.record_get(double(b.size()) * kBytesPerElem, double(b.size()) * kBytesPerElem);
          ContractStats cs;
          Tensor wn = contract(w, b, nullptr, &cs);  // serial: this IS one CPE
          es.flops += cs.flops;
          es.permute_elems += cs.permute_elems;
          es.gemm_seconds += cs.gemm_seconds;
          es.permute_seconds += cs.permute_seconds;
          ldm_peak = std::max(ldm_peak, w.size() + b.size() + wn.size());
          w = std::move(wn);
        }
      }
      assert(ldm_peak <= plan.ldm_elems || !win.in_ldm);

      {
        std::lock_guard<std::mutex> lk(merge_mu);
        if (!out_ready) {
          w_ixs = w.ixs();
          std::vector<int> out_ixs = secondary;
          out_ixs.insert(out_ixs.end(), w_ixs.begin(), w_ixs.end());
          out = Tensor(out_ixs);
          out_ready = true;
        }
      }
      // Subtask writes its contiguous block (the DMA-put / stacking step).
      // fixed_all assigns bit i of `s` to secondary[i]; in the output layout
      // secondary[0] is the slowest axis, so the block index mirrors s.
      assert(w.ixs() == w_ixs && "subtasks must share the working layout");
      uint64_t block = 0;
      for (size_t i = 0; i < secondary.size(); ++i)
        block |= ((s >> i) & 1) << (secondary.size() - 1 - i);
      ScopedSeconds tput(&es.memory_seconds);
      std::copy(w.data().begin(), w.data().end(), out.data().begin() + size_t(block) * w.size());
      tput.close();
      ds.record_put(double(w.size()) * kBytesPerElem, double(w.size()) * kBytesPerElem);

      if (stats) {
        std::lock_guard<std::mutex> lk(merge_mu);
        stats->exec.merge(es);
        stats->dma.merge(ds);
        stats->ldm_subtasks += 1;
        stats->ldm_peak_elems = std::max(stats->ldm_peak_elems, ldm_peak);
      }
    };

    // The first subtask runs alone to fix the output layout; the rest in
    // parallel on the CPE grid.
    run_subtask(0);
    if (n_sub > 1) {
      if (pool != nullptr) {
        pool->parallel_for_each(size_t(n_sub - 1), [&](size_t idx) { run_subtask(idx + 1); });
      } else {
        for (uint64_t s = 1; s < n_sub; ++s) run_subtask(s);
      }
    }
    return out;
  }
};

}  // namespace

Tensor execute_fused(const FusedPlan& plan, const LeafProvider& leaves, uint64_t assignment,
                     ThreadPool* pool, FusedStats* stats, device::DeviceBackend* backend) {
  const tn::Stem& stem = *plan.stem;
  const tn::ContractionTree& tree = *stem.tree;

  // Pre-contract the branches and the bottom stem tensor.
  ExecStats branch_stats;
  std::vector<Tensor> branches(size_t(stem.length() - 1));
  for (int k = 0; k + 1 < stem.length(); ++k)
    branches[size_t(k)] = execute_subtree(tree, stem.branches[size_t(k)], leaves,
                                          plan.process_sliced, assignment, pool, &branch_stats,
                                          backend);
  Tensor cur = execute_subtree(tree, stem.nodes[0], leaves, plan.process_sliced, assignment,
                               pool, &branch_stats, backend);
  if (stats) stats->exec.merge(branch_stats);

  WindowExec we{plan, pool, stats, backend};
  for (const auto& win : plan.windows) {
    if (win.in_ldm) {
      cur = we.run(win, cur, branches);
    } else {
      // Main-memory fallback step.
      ContractStats cs;
      const Tensor& b = branches[size_t(win.begin_step)];
      Tensor next =
          contract(cur, b, pool, &cs, backend, stats ? &stats->exec.device : nullptr);
      if (stats) {
        stats->exec.flops += cs.flops;
        stats->exec.permute_elems += cs.permute_elems;
        stats->exec.gemm_seconds += cs.gemm_seconds;
        stats->exec.permute_seconds += cs.permute_seconds;
        stats->dma.record_get(double(cur.size() + b.size()) * kBytesPerElem, 512.0);
        stats->dma.record_put(double(next.size()) * kBytesPerElem, 512.0);
      }
      cur = std::move(next);
    }
  }
  return cur;
}

Tensor execute_stem_stepwise(const tn::Stem& stem, const LeafProvider& leaves,
                             const std::vector<int>& process_sliced, uint64_t assignment,
                             ThreadPool* pool, FusedStats* stats,
                             device::DeviceBackend* backend) {
  const tn::ContractionTree& tree = *stem.tree;
  ExecStats branch_stats;
  std::vector<Tensor> branches(size_t(stem.length() - 1));
  for (int k = 0; k + 1 < stem.length(); ++k)
    branches[size_t(k)] = execute_subtree(tree, stem.branches[size_t(k)], leaves, process_sliced,
                                          assignment, pool, &branch_stats, backend);
  Tensor cur = execute_subtree(tree, stem.nodes[0], leaves, process_sliced, assignment, pool,
                               &branch_stats, backend);
  if (stats) stats->exec.merge(branch_stats);

  for (int k = 0; k + 1 < stem.length(); ++k) {
    const Tensor& b = branches[size_t(k)];
    ContractStats cs;
    Tensor next = contract(cur, b, pool, &cs, backend, stats ? &stats->exec.device : nullptr);
    if (stats) {
      stats->exec.flops += cs.flops;
      stats->exec.permute_elems += cs.permute_elems;
      stats->exec.gemm_seconds += cs.gemm_seconds;
      stats->exec.permute_seconds += cs.permute_seconds;
      // Every step round-trips the operands and result through main memory.
      stats->dma.record_get(double(cur.size() + b.size()) * kBytesPerElem, 512.0);
      stats->dma.record_put(double(next.size()) * kBytesPerElem, 512.0);
    }
    cur = std::move(next);
  }
  return cur;
}

}  // namespace ltns::exec
