// Slicing cost model: Eq. 2 (overhead) and Eq. 4 (sliced total cost).
//
// Slicing a set S of edges fixes those indices, splitting the contraction
// into Π_{e∈S} 2^{log2w(e)} independent subtasks. Inside one subtask, a
// contraction whose union index set meets S gets cheaper by the weight of
// the met indices; contractions untouched by S are recomputed identically in
// every subtask — that recomputation is the *slicing overhead*.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "tn/contraction_tree.hpp"
#include "util/index_set.hpp"
#include "util/log2math.hpp"

namespace ltns::core {

using tn::ContractionTree;
using tn::EdgeId;
using tn::TensorNetwork;

struct SlicedMetrics {
  double log2_num_subtasks = 0;      // Σ log2w over S
  double log2_cost_per_subtask = 0;  // C_slice(B) of Eq. 2, log2
  double log2_total_cost = 0;        // per-subtask × subtasks, log2
  double log2_overhead = 0;          // Eq. 2, log2 (0 ⇒ no overhead)
  double max_log2size = 0;           // biggest sliced intermediate
  double max_union_log2size = 0;     // biggest sliced contraction scope
  double overhead() const { return std::exp2(log2_overhead); }
};

class SliceSet {
 public:
  SliceSet() = default;  // empty shell; assign a real one before use
  explicit SliceSet(const TensorNetwork& net) : net_(&net), set_(net.num_edges()) {}

  const IndexSet& edges() const { return set_; }
  int size() const { return set_.count(); }
  bool contains(EdgeId e) const { return set_.contains(e); }
  void add(EdgeId e);
  void remove(EdgeId e);
  std::vector<EdgeId> to_vector() const { return set_.to_vector(); }
  // Σ log2w over the sliced edges == log2 of the subtask count.
  double log2_num_subtasks() const { return log2w_; }

 private:
  const TensorNetwork* net_ = nullptr;
  IndexSet set_;
  double log2w_ = 0;
};

// Evaluates Eq. 2 / Eq. 4 for `slices` over the whole tree.
SlicedMetrics evaluate_slicing(const ContractionTree& tree, const SliceSet& slices);

// Sliced log2 size of one tree node's output tensor.
double sliced_node_log2size(const ContractionTree& tree, int node, const IndexSet& slices);

// True iff every intermediate tensor fits 2^target_log2size after slicing.
bool satisfies_memory_bound(const ContractionTree& tree, const SliceSet& slices,
                            double target_log2size);

// Incremental Eq. 4 cost and memory-bound verdict of a slicing set under
// single-edge moves — the lifetime-based delta evaluation behind Algorithm 2.
//
// Moving edge e changes only the nodes of e's lifetime (Definition 1: the
// nodes whose `ixs` hold e) and the contractions whose `union_ixs` hold e.
// A proposal recomputes exactly those nodes with the same
// `tn::log2w_intersection` call `evaluate_slicing` makes, counts how many
// nodes exceed the bound, and replays the Eq. 4 log-sum-exp chain from the
// first contraction whose cost changed. Every value is therefore bitwise
// equal to what `evaluate_slicing` / `satisfies_memory_bound` return for
// the same set, for any edge weights.
//
// At most one proposal is pending; `commit` keeps it, `rollback` undoes it.
class SlicingState {
 public:
  SlicingState(const ContractionTree& tree, SliceSet slices, double target_log2size);

  const SliceSet& slices() const { return slices_; }
  // Sliced log2 size of one node; equals sliced_node_log2size bitwise.
  double node_log2size(int node) const { return size_[size_t(node)]; }
  // satisfies_memory_bound(tree, slices(), target) of the current set.
  bool fits() const { return num_over_ == 0; }
  // evaluate_slicing(tree, slices()).log2_total_cost of the current set.
  double log2_total_cost() const;

  void propose_swap(EdgeId a, EdgeId b);  // S − a + b
  void propose_remove(EdgeId a);          // S − a
  void commit();
  void rollback();

 private:
  void propose(EdgeId a, EdgeId b);  // slices_ already edited; b is kNone for a removal
  void end_proposal();

  const ContractionTree* tree_;
  double bound_;  // target + the 1e-9 tolerance satisfies_memory_bound allows
  SliceSet slices_;
  std::vector<std::vector<int>> lifetime_;      // per edge: nodes whose ixs hold it
  std::vector<int> chain_node_;                 // internal nodes in node order (Eq. 4 chain)
  std::vector<std::vector<int>> contractions_;  // per edge: chain positions whose union_ixs hold it
  std::vector<double> size_;                    // per node, sliced log2 size
  std::vector<double> cost_;                    // per chain position, sliced log2 cost
  std::vector<double> prefix_;                  // Eq. 4 log-sum-exp after each chain position
  int num_over_ = 0;                            // nodes whose sliced size exceeds bound_

  // The pending proposal: the set operations to invert and the old values.
  bool pending_ = false;
  EdgeId moved_a_ = tn::kNone, moved_b_ = tn::kNone;
  std::vector<std::pair<int, double>> undo_size_, undo_cost_;
  int num_over_before_ = 0;
  size_t dirty_from_ = 0;       // first chain position whose cost changed
  std::vector<double> replay_;  // prefix_ from dirty_from_ on, under the proposal
};

// Brute-force reference used by tests: enumerates all subtask assignments of
// the (unit-weight) sliced edges and sums per-subtask costs directly.
// Exponential in |S|; keep |S| small.
double brute_force_sliced_log2cost(const ContractionTree& tree, const SliceSet& slices);

}  // namespace ltns::core
