#include "core/slicing.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "core/lifetime.hpp"

namespace ltns::core {

void SliceSet::add(EdgeId e) {
  assert(!set_.contains(e));
  set_.insert(e);
  log2w_ += net_->edge(e).log2w;
}

void SliceSet::remove(EdgeId e) {
  assert(set_.contains(e));
  set_.erase(e);
  log2w_ -= net_->edge(e).log2w;
}

SlicedMetrics evaluate_slicing(const ContractionTree& tree, const SliceSet& slices) {
  const TensorNetwork& net = *tree.network();
  const IndexSet& S = slices.edges();
  SlicedMetrics m;
  m.log2_num_subtasks = slices.log2_num_subtasks();

  Log2Accumulator per_subtask;
  for (const auto& n : tree.nodes()) {
    double sz = n.log2size - tn::log2w_intersection(net, n.ixs, S);
    m.max_log2size = std::max(m.max_log2size, sz);
    if (n.is_leaf()) continue;
    // Sliced indices inside s_l ∪ s_r are fixed within a subtask: the
    // contraction loses exactly their weight (Eq. 4 term).
    double c = n.log2cost - tn::log2w_intersection(net, n.union_ixs, S);
    per_subtask.add(c);
    m.max_union_log2size = std::max(m.max_union_log2size, c);
  }
  m.log2_cost_per_subtask = per_subtask.value();
  m.log2_total_cost = m.log2_cost_per_subtask + m.log2_num_subtasks;
  m.log2_overhead = m.log2_total_cost - tree.total_log2cost();
  return m;
}

double sliced_node_log2size(const ContractionTree& tree, int node, const IndexSet& slices) {
  const auto& n = tree.node(node);
  return n.log2size - tn::log2w_intersection(*tree.network(), n.ixs, slices);
}

bool satisfies_memory_bound(const ContractionTree& tree, const SliceSet& slices,
                            double target_log2size) {
  for (int i = 0; i < tree.num_nodes(); ++i)
    if (sliced_node_log2size(tree, i, slices.edges()) > target_log2size + 1e-9) return false;
  return true;
}

namespace {

const std::vector<int> kNoNodes;

// Calls f once for every value in either of two ascending lists, in order.
template <typename F>
void for_each_in_either(const std::vector<int>& x, const std::vector<int>& y, F&& f) {
  size_t i = 0, j = 0;
  while (i < x.size() || j < y.size()) {
    if (j == y.size() || (i < x.size() && x[i] < y[j])) {
      f(x[i++]);
    } else {
      if (i < x.size() && x[i] == y[j]) ++i;
      f(y[j++]);
    }
  }
}

}  // namespace

SlicingState::SlicingState(const ContractionTree& tree, SliceSet slices, double target_log2size)
    : tree_(&tree),
      bound_(target_log2size + 1e-9),
      slices_(std::move(slices)),
      lifetime_(tree_lifetimes(tree)),
      contractions_(size_t(tree.network()->num_edges())),
      size_(size_t(tree.num_nodes())) {
  const TensorNetwork& net = *tree.network();
  const IndexSet& S = slices_.edges();
  Log2Accumulator per_subtask;
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const auto& n = tree.node(i);
    size_[size_t(i)] = n.log2size - tn::log2w_intersection(net, n.ixs, S);
    num_over_ += size_[size_t(i)] > bound_;
    if (n.is_leaf()) continue;
    const int pos = int(chain_node_.size());
    chain_node_.push_back(i);
    n.union_ixs.for_each([&](int e) { contractions_[size_t(e)].push_back(pos); });
    cost_.push_back(n.log2cost - tn::log2w_intersection(net, n.union_ixs, S));
    per_subtask.add(cost_.back());
    prefix_.push_back(per_subtask.value());
  }
}

double SlicingState::log2_total_cost() const {
  const auto& chain = replay_.empty() ? prefix_ : replay_;
  return (chain.empty() ? kLog2Zero : chain.back()) + slices_.log2_num_subtasks();
}

void SlicingState::propose_swap(EdgeId a, EdgeId b) {
  slices_.remove(a);
  slices_.add(b);
  propose(a, b);
}

void SlicingState::propose_remove(EdgeId a) {
  slices_.remove(a);
  propose(a, tn::kNone);
}

// Recomputes, once each, the nodes and contractions that hold a or b, then
// replays the Eq. 4 chain from the first changed contraction with the
// log2_add calls evaluate_slicing makes, in its order.
void SlicingState::propose(EdgeId a, EdgeId b) {
  assert(!pending_);
  pending_ = true;
  moved_a_ = a;
  moved_b_ = b;
  num_over_before_ = num_over_;
  const TensorNetwork& net = *tree_->network();
  const IndexSet& S = slices_.edges();
  const auto& b_lifetime = b == tn::kNone ? kNoNodes : lifetime_[size_t(b)];
  for_each_in_either(lifetime_[size_t(a)], b_lifetime, [&](int i) {
    double& sz = size_[size_t(i)];
    undo_size_.emplace_back(i, sz);
    num_over_ -= sz > bound_;
    sz = tree_->node(i).log2size - tn::log2w_intersection(net, tree_->node(i).ixs, S);
    num_over_ += sz > bound_;
  });
  const auto& a_pos = contractions_[size_t(a)];
  const auto& b_pos = b == tn::kNone ? kNoNodes : contractions_[size_t(b)];
  dirty_from_ = prefix_.size();
  for_each_in_either(a_pos, b_pos, [&](int pos) {
    dirty_from_ = std::min(dirty_from_, size_t(pos));
    const auto& n = tree_->node(chain_node_[size_t(pos)]);
    undo_cost_.emplace_back(pos, cost_[size_t(pos)]);
    cost_[size_t(pos)] = n.log2cost - tn::log2w_intersection(net, n.union_ixs, S);
  });
  double acc = dirty_from_ == 0 ? kLog2Zero : prefix_[dirty_from_ - 1];
  for (size_t k = dirty_from_; k < prefix_.size(); ++k) {
    acc = log2_add(acc, cost_[k]);
    replay_.push_back(acc);
  }
}

void SlicingState::commit() {
  assert(pending_);
  std::copy(replay_.begin(), replay_.end(), prefix_.begin() + std::ptrdiff_t(dirty_from_));
  end_proposal();
}

void SlicingState::rollback() {
  assert(pending_);
  for (auto [i, sz] : undo_size_) size_[size_t(i)] = sz;
  for (auto [pos, c] : undo_cost_) cost_[size_t(pos)] = c;
  num_over_ = num_over_before_;
  // Invert the set operations one by one rather than restoring a copy, so
  // the running Σ log2w takes the same floating-point path as a caller
  // that edits a SliceSet by hand.
  if (moved_b_ != tn::kNone) slices_.remove(moved_b_);
  slices_.add(moved_a_);
  end_proposal();
}

void SlicingState::end_proposal() {
  pending_ = false;
  undo_size_.clear();
  undo_cost_.clear();
  replay_.clear();
}

double brute_force_sliced_log2cost(const ContractionTree& tree, const SliceSet& slices) {
  const TensorNetwork& net = *tree.network();
  auto sliced = slices.to_vector();
  for (EdgeId e : sliced) {
    (void)e;
    assert(std::abs(net.edge(e).log2w - 1.0) < 1e-12 && "reference assumes unit weights");
  }
  const size_t n_tasks = size_t(1) << sliced.size();
  Log2Accumulator total;
  for (size_t task = 0; task < n_tasks; ++task) {
    // Every subtask runs the identical shrunken tree, so the assignment does
    // not change the cost — but we still loop to mirror the execution
    // structure the definition describes.
    Log2Accumulator sub;
    for (const auto& nd : tree.nodes()) {
      if (nd.is_leaf()) continue;
      sub.add(nd.log2cost - tn::log2w_intersection(net, nd.union_ixs, slices.edges()));
    }
    total.add(sub.value());
  }
  return total.value();
}

}  // namespace ltns::core
