#include "core/slice_refiner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/rng.hpp"

namespace ltns::core {
namespace {

// Stem positions in the lifetime of `e` whose sliced tensor is exactly at
// the target rank — the paper's find_critical_tensors.
std::vector<int> find_critical_tensors(const tn::Stem& stem, const StemLifetimes& lt,
                                       const SlicingState& state, double target, EdgeId e) {
  std::vector<int> crit;
  const auto& iv = lt.of(e);
  for (int p = iv.begin; p <= iv.end; ++p) {
    double sz = state.node_log2size(stem.nodes[size_t(p)]);
    if (std::abs(sz - target) < 1e-9) crit.push_back(p);
  }
  return crit;
}

// Unsliced stem edges whose lifetime covers every critical position — the
// paper's find_candidate_indices.
std::vector<EdgeId> find_candidate_indices(const tn::Stem& stem, const StemLifetimes& lt,
                                           const IndexSet& S, const std::vector<int>& crit,
                                           EdgeId skip) {
  std::vector<EdgeId> out;
  if (crit.empty()) return out;
  // Any covering edge must be an index of the first critical tensor; scan
  // those instead of the whole edge universe.
  const auto& first_ixs = stem.tree->node(stem.nodes[size_t(crit.front())]).ixs;
  const auto& net = *stem.tree->network();
  first_ixs.for_each([&](int e) {
    // Never swap an open (output) edge in: the runners only merge additively
    // over closed edges, so open edges must survive to the root un-sliced.
    if (e == skip || S.contains(e) || net.edge(EdgeId(e)).b == tn::kNone) return;
    const auto& iv = lt.of(e);
    bool covers = true;
    for (int p : crit)
      if (!iv.contains(p)) {
        covers = false;
        break;
      }
    if (covers) out.push_back(EdgeId(e));
  });
  return out;
}

}  // namespace

SliceSet refine_slices(const tn::Stem& stem, SliceSet S, const SliceRefinerOptions& opt,
                       RefineStats* stats_out) {
  auto lt = StemLifetimes::build(stem);
  Rng rng(opt.seed);
  RefineStats stats;

  // Every move is evaluated on the lifetimes of the two edges it touches;
  // the state's cost and bound verdict equal evaluate_slicing's bitwise.
  SlicingState state(*stem.tree, std::move(S), opt.target_log2size);
  double cur_cost = state.log2_total_cost();
  stats.initial_log2cost = cur_cost;
  SliceSet best = state.slices();
  double best_cost = cur_cost;

  for (double T = opt.initial_temperature; T > opt.final_temperature; T *= opt.alpha) {
    for (int k = 0; k < opt.moves_per_temperature; ++k) {
      auto sliced = state.slices().to_vector();
      if (sliced.empty()) break;
      EdgeId a = sliced[rng.next_below(sliced.size())];

      auto crit = find_critical_tensors(stem, lt, state, opt.target_log2size, a);
      if (crit.empty()) {
        // `a` shields no critical tensor; if the whole tree stays within
        // bound without it, it is pure overhead — drop it.
        state.propose_remove(a);
        if (state.fits()) {
          state.commit();
          ++stats.dropped_useless;
          cur_cost = state.log2_total_cost();
          if (cur_cost < best_cost) {
            best = state.slices();
            best_cost = cur_cost;
          }
        } else {
          state.rollback();  // needed by a branch tensor after all
        }
        continue;
      }

      for (EdgeId b : find_candidate_indices(stem, lt, state.slices().edges(), crit, a)) {
        ++stats.proposed;
        state.propose_swap(a, b);
        bool take = false;
        if (state.fits()) {
          double new_cost = state.log2_total_cost();
          if (new_cost < cur_cost) {
            take = true;
          } else {
            // exp((C_ori − C_new)/C_ori / T) with huge C handled via the
            // linear-domain ratio 2^(Δlog2).
            double ratio = std::exp2(new_cost - cur_cost);
            double p = std::exp((1.0 - ratio) / T);
            if (rng.next_double() < p) {
              take = true;
              ++stats.uphill_accepted;
            }
          }
          if (take) cur_cost = new_cost;
        }
        if (take) {
          state.commit();
          ++stats.accepted;
          if (cur_cost < best_cost) {
            best = state.slices();
            best_cost = cur_cost;
          }
          a = b;  // the sliced edge under consideration is now b
        } else {
          state.rollback();
        }
      }
    }
  }

  stats.final_log2cost = best_cost;
  if (stats_out) *stats_out = stats;
  return best;
}

}  // namespace ltns::core
