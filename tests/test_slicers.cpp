// Tests for the three slicers: greedy baseline, Algorithm 1 (lifetime
// finder), Algorithm 2 (SA refiner) — plus the Theorem 1 flavored property
// that smaller lifetime-guided sets beat greedy overhead on RQC networks.
#include <gtest/gtest.h>

#include <cstring>

#include "core/greedy_slicer.hpp"
#include "core/slice_finder.hpp"
#include "core/slice_refiner.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ltns::core {
namespace {

struct Setup {
  circuit::LoweredNetwork ln;
  std::shared_ptr<tn::ContractionTree> tree;
  tn::Stem stem;
};

Setup make_setup(int rows, int cols, int cycles, uint64_t seed = 42) {
  Setup s{test::small_network(rows, cols, cycles, seed), nullptr, {}};
  s.tree = std::make_shared<tn::ContractionTree>(test::greedy_tree(s.ln.net, seed));
  s.stem = tn::extract_stem(*s.tree);
  return s;
}

double pick_target(const tn::ContractionTree& tree, double below = 3.0) {
  return std::max(2.0, tree.max_log2size() - below);
}

TEST(GreedySlicer, MeetsMemoryBound) {
  auto s = make_setup(4, 4, 8);
  GreedySlicerOptions opt;
  opt.target_log2size = pick_target(*s.tree);
  SlicedMetrics m;
  auto S = greedy_slice(*s.tree, opt, &m);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, S, opt.target_log2size));
  EXPECT_LE(m.max_log2size, opt.target_log2size + 1e-9);
  EXPECT_GT(S.size(), 0);
}

TEST(GreedySlicer, NoWorkWhenAlreadyUnderBound) {
  auto s = make_setup(3, 3, 4);
  GreedySlicerOptions opt;
  opt.target_log2size = s.tree->max_log2size() + 1;
  auto S = greedy_slice(*s.tree, opt);
  EXPECT_EQ(S.size(), 0);
}

TEST(LifetimeSliceFinder, MeetsMemoryBoundOnStem) {
  auto s = make_setup(4, 4, 8);
  SliceFinderOptions opt;
  opt.target_log2size = pick_target(*s.tree);
  SlicedMetrics m;
  auto S = lifetime_slice_finder(s.stem, opt, &m);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, S, opt.target_log2size));
  EXPECT_GT(S.size(), 0);
}

TEST(LifetimeSliceFinder, DeterministicAcrossRuns) {
  auto s = make_setup(4, 4, 8);
  SliceFinderOptions opt;
  opt.target_log2size = pick_target(*s.tree);
  auto a = lifetime_slice_finder(s.stem, opt);
  auto b = lifetime_slice_finder(s.stem, opt);
  EXPECT_EQ(a.to_vector(), b.to_vector());
}

TEST(LifetimeSliceFinder, SlicesOnlyStemEdges) {
  auto s = make_setup(4, 4, 8);
  SliceFinderOptions opt;
  opt.target_log2size = pick_target(*s.tree);
  opt.fixup_whole_tree = false;
  auto S = lifetime_slice_finder(s.stem, opt);
  auto lt = StemLifetimes::build(s.stem);
  for (int e : S.to_vector()) EXPECT_TRUE(lt.of(e).alive()) << "edge " << e << " not on stem";
}

TEST(LifetimeSliceFinder, FindsSetAtLeastAsSmallAsGreedyOnRqc) {
  // The Fig. 10 claim: the in-place slicing strategy finds potentially
  // smaller sets. Check over several circuits: never more than one extra
  // edge, usually fewer or equal.
  int wins = 0, ties = 0, losses = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    auto s = make_setup(4, 5, 10, seed);
    double t = pick_target(*s.tree, 4.0);
    GreedySlicerOptions go;
    go.target_log2size = t;
    auto Sg = greedy_slice(*s.tree, go);
    SliceFinderOptions fo;
    fo.target_log2size = t;
    auto Sf = lifetime_slice_finder(s.stem, fo);
    if (Sf.size() < Sg.size()) ++wins;
    else if (Sf.size() == Sg.size()) ++ties;
    else ++losses;
  }
  EXPECT_GE(wins + ties, losses) << "lifetime finder should not be systematically larger";
}

TEST(SliceRefiner, NeverViolatesBoundAndNeverWorseThanInput) {
  for (uint64_t seed : {3u, 7u, 11u}) {
    auto s = make_setup(4, 4, 8, seed);
    double t = pick_target(*s.tree);
    SliceFinderOptions fo;
    fo.target_log2size = t;
    auto S0 = lifetime_slice_finder(s.stem, fo);
    double c0 = evaluate_slicing(*s.tree, S0).log2_total_cost;

    SliceRefinerOptions ro;
    ro.target_log2size = t;
    ro.seed = seed;
    RefineStats st;
    auto S1 = refine_slices(s.stem, S0, ro, &st);
    auto m1 = evaluate_slicing(*s.tree, S1);
    EXPECT_TRUE(satisfies_memory_bound(*s.tree, S1, t));
    EXPECT_LE(m1.log2_total_cost, c0 + 1e-9) << "refiner returns the best seen";
    EXPECT_NEAR(st.final_log2cost, m1.log2_total_cost, 1e-9);
    EXPECT_GE(st.proposed, 0);
  }
}

TEST(SliceRefiner, DropsUselessSlices) {
  // Hand the refiner a set with one obviously useless edge (a tiny branch
  // edge whose lifetime holds no critical tensor): it should be dropped.
  auto s = make_setup(4, 4, 8);
  double t = pick_target(*s.tree);
  SliceFinderOptions fo;
  fo.target_log2size = t;
  auto S = lifetime_slice_finder(s.stem, fo);
  // Add a useless edge: one absent from every critical (== t) stem tensor.
  auto lt = StemLifetimes::build(s.stem);
  int useless = -1;
  for (int e : s.ln.net.alive_edges()) {
    if (S.contains(e) || lt.of(e).alive()) continue;
    useless = e;
    break;
  }
  if (useless < 0) GTEST_SKIP() << "no off-stem edge available";
  S.add(useless);
  int before = S.size();
  SliceRefinerOptions ro;
  ro.target_log2size = t;
  auto S2 = refine_slices(s.stem, S, ro);
  EXPECT_LE(S2.size(), before);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, S2, t));
}

uint64_t bits_of(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

// Drives SlicingState through seeded swap / remove proposals, each then
// committed or rolled back, while a plain SliceSet takes the same edits.
// At every step the state must agree bit for bit with the whole-tree
// reference: total cost, bound verdict and every node's sliced size.
void check_state_against_reference(const tn::Stem& stem, double target, uint64_t seed,
                                   int steps) {
  const auto& tree = *stem.tree;
  const auto& net = *tree.network();
  auto closed = [&](int e) { return net.edge(e).b != tn::kNone; };
  std::vector<EdgeId> closed_edges;
  for (int e : net.alive_edges())
    if (closed(e)) closed_edges.push_back(e);
  const auto lifetimes = tree_lifetimes(tree);
  SliceFinderOptions fo;
  fo.target_log2size = target;
  SliceSet ref = lifetime_slice_finder(stem, fo);
  SlicingState state(tree, ref, target);

  auto expect_same = [&](const char* when, int step) {
    SCOPED_TRACE(::testing::Message() << when << " at step " << step);
    ASSERT_EQ(state.slices().to_vector(), ref.to_vector());
    EXPECT_EQ(bits_of(state.log2_total_cost()), bits_of(evaluate_slicing(tree, ref).log2_total_cost));
    EXPECT_EQ(state.fits(), satisfies_memory_bound(tree, ref, target));
    for (int i = 0; i < tree.num_nodes(); ++i)
      ASSERT_EQ(bits_of(state.node_log2size(i)), bits_of(sliced_node_log2size(tree, i, ref.edges())));
  };

  Rng rng(seed);
  int fitting = 0, over = 0, committed_over = 0;
  EdgeId kept_a = tn::kNone, kept_b = tn::kNone;  // the last oversized swap kept
  expect_same("start", -1);
  for (int step = 0; step < steps && ref.size() > 0; ++step) {
    auto sliced = ref.to_vector();
    EdgeId a = sliced[rng.next_below(sliced.size())];
    EdgeId b = tn::kNone;
    const bool fitted = state.fits();
    if (!fitted && kept_b != tn::kNone && ref.contains(kept_b) && !ref.contains(kept_a) &&
        rng.next_below(2) == 0) {
      // Undo the oversized swap, so the walk returns to sets that fit.
      a = kept_b;
      b = kept_a;
    } else if (rng.next_below(2) == 0) {
      // A neighbour of a, as the refiner proposes: an index of a tensor in
      // a's lifetime. Such swaps often fit.
      const auto& life = lifetimes[size_t(a)];
      std::vector<EdgeId> near;
      tree.node(life[rng.next_below(life.size())]).ixs.for_each([&](int e) {
        if (closed(e) && !ref.contains(e)) near.push_back(e);
      });
      if (!near.empty()) b = near[rng.next_below(near.size())];
    } else {
      b = closed_edges[rng.next_below(closed_edges.size())];
    }
    const bool swap = b != tn::kNone && !ref.contains(b) && rng.next_below(10) != 0;
    if (swap) {
      state.propose_swap(a, b);
      ref.remove(a);
      ref.add(b);
    } else {
      state.propose_remove(a);
      ref.remove(a);
    }
    expect_same("proposal", step);
    const bool fits = state.fits();
    (fits ? fitting : over)++;
    // Keep what fits, as the refiner does; also keep a quarter of the
    // oversized swaps from a set that fits, so proposals start from sets
    // one move away from fitting too.
    if (fits || (swap && fitted && rng.next_below(4) == 0)) {
      if (!fits) {
        ++committed_over;
        kept_a = a;
        kept_b = b;
      }
      state.commit();
    } else {
      state.rollback();
      if (swap) ref.remove(b);
      ref.add(a);
    }
    expect_same("resolution", step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(fitting, 0);
  EXPECT_GT(over, 0);
  EXPECT_GT(committed_over, 0);
}

TEST(SlicingState, MatchesReferenceBitwiseOnGridCircuits) {
  struct Grid {
    int rows, cols, cycles;
    uint64_t seed;
  };
  for (Grid g : {Grid{3, 3, 6, 1}, Grid{4, 4, 8, 7}, Grid{4, 5, 10, 2}}) {
    SCOPED_TRACE(::testing::Message() << g.rows << "x" << g.cols << "x" << g.cycles);
    auto s = make_setup(g.rows, g.cols, g.cycles, g.seed);
    check_state_against_reference(s.stem, pick_target(*s.tree), g.seed, 400);
  }
}

TEST(SlicingState, MatchesReferenceBitwiseWithNonUnitWeights) {
  // Weights like 0.7 and 1.3 are not dyadic, so every Σ log2w depends on
  // its summation order: only the same intersection call in the same edge
  // order reproduces the reference bits.
  auto ln = test::small_network(4, 4, 8, 5);
  Rng rng(17);
  const double weights[] = {0.7, 1.0, 1.3, 2.0, 0.45};
  int non_unit = 0;
  for (int e : ln.net.alive_edges()) {
    ln.net.edge(e).log2w = weights[rng.next_below(5)];
    non_unit += ln.net.edge(e).log2w != 1.0;
  }
  ASSERT_GT(non_unit, 0);
  auto tree = test::greedy_tree(ln.net, 5);
  check_state_against_reference(tn::extract_stem(tree), pick_target(tree), 23, 600);
}

// Slice sets and move counts of refine_slices as computed by the
// whole-tree evaluation that preceded SlicingState: the delta evaluation
// must walk exactly the same annealing trajectory.
TEST(SliceRefiner, PinnedTrajectories) {
  struct Pinned {
    int rows, cols, cycles;
    uint64_t seed;
    double below;
    std::vector<EdgeId> slices;
    int proposed, accepted, uphill;
    double final_log2cost;
  };
  const std::vector<Pinned> pinned = {
      {4, 4, 8, 3, 3, {80, 107, 191, 219}, 13125, 7442, 3713, 0x1.4b7e3bdd71c2bp+4},
      {4, 4, 8, 7, 3, {80, 107, 191, 219}, 13249, 7559, 3807, 0x1.4b7e3bdd71c2bp+4},
      {4, 4, 8, 11, 3, {80, 107, 191, 219}, 13113, 7599, 3812, 0x1.4b7e3bdd71c2bp+4},
      {4, 5, 10, 1, 4, {180, 199, 215, 271}, 13862, 6678, 3076, 0x1.76f65f2712979p+4},
      {4, 5, 10, 2, 4, {180, 199, 215, 271}, 13854, 6703, 3085, 0x1.76f65f2712979p+4},
      {4, 5, 10, 5, 4, {180, 199, 215, 271}, 13860, 6563, 3005, 0x1.76f65f2712979p+4},
      {5, 5, 12, 4, 6, {261, 262, 271, 272, 311, 314}, 20954, 2798, 1218, 0x1.0b929f809b716p+5},
  };
  for (const auto& p : pinned) {
    SCOPED_TRACE(::testing::Message() << p.rows << "x" << p.cols << "x" << p.cycles << " seed "
                                      << p.seed);
    auto s = make_setup(p.rows, p.cols, p.cycles, p.seed);
    const double t = pick_target(*s.tree, p.below);
    SliceFinderOptions fo;
    fo.target_log2size = t;
    SliceRefinerOptions ro;
    ro.target_log2size = t;
    ro.seed = p.seed;
    RefineStats st;
    auto S = refine_slices(s.stem, lifetime_slice_finder(s.stem, fo), ro, &st);
    EXPECT_EQ(S.to_vector(), p.slices);
    EXPECT_EQ(st.proposed, p.proposed);
    EXPECT_EQ(st.accepted, p.accepted);
    EXPECT_EQ(st.uphill_accepted, p.uphill);
    EXPECT_EQ(st.dropped_useless, 0);
    EXPECT_EQ(bits_of(st.final_log2cost), bits_of(p.final_log2cost));
  }
}

TEST(SliceRefiner, PinnedTrajectoryWithDrop) {
  // The DropsUselessSlices setup: the added off-stem edge (53) is dropped
  // once and the walk then matches the whole-tree evaluation move for move.
  auto s = make_setup(4, 4, 8);
  const double t = pick_target(*s.tree);
  SliceFinderOptions fo;
  fo.target_log2size = t;
  auto S = lifetime_slice_finder(s.stem, fo);
  ASSERT_FALSE(S.contains(53));
  S.add(53);
  SliceRefinerOptions ro;
  ro.target_log2size = t;
  RefineStats st;
  auto R = refine_slices(s.stem, S, ro, &st);
  EXPECT_EQ(R.to_vector(), (std::vector<EdgeId>{80, 107, 191, 219}));
  EXPECT_EQ(st.proposed, 12991);
  EXPECT_EQ(st.accepted, 7260);
  EXPECT_EQ(st.uphill_accepted, 3644);
  EXPECT_EQ(st.dropped_useless, 1);
  EXPECT_EQ(bits_of(st.initial_log2cost), bits_of(0x1.5b9b8956a8eabp+4));
  EXPECT_EQ(bits_of(st.final_log2cost), bits_of(0x1.4b7e3bdd71c2bp+4));
}

TEST(Theorem1Flavor, SmallerSetsCorrelateWithLowerOverhead) {
  // Theorem 1's practical content: when the lifetime finder produces a
  // strictly smaller set than greedy, its (refined) overhead should not be
  // dramatically worse, and on average should be better.
  double sum_log_ratio = 0;
  int n = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto s = make_setup(4, 5, 10, seed);
    double t = pick_target(*s.tree, 4.0);
    GreedySlicerOptions go;
    go.target_log2size = t;
    SlicedMetrics mg;
    greedy_slice(*s.tree, go, &mg);

    SliceFinderOptions fo;
    fo.target_log2size = t;
    auto Sf = lifetime_slice_finder(s.stem, fo);
    SliceRefinerOptions ro;
    ro.target_log2size = t;
    ro.seed = seed;
    auto Sr = refine_slices(s.stem, Sf, ro);
    auto mr = evaluate_slicing(*s.tree, Sr);
    sum_log_ratio += mr.log2_overhead - mg.log2_overhead;
    ++n;
  }
  EXPECT_LE(sum_log_ratio / n, 0.75) << "lifetime+SA should be competitive with greedy";
}

class SlicerSweep : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(SlicerSweep, AllSlicersMeetAnyFeasibleTarget) {
  auto [below, seed] = GetParam();
  auto s = make_setup(4, 4, 8, seed);
  double t = std::max(2.0, s.tree->max_log2size() - below);
  GreedySlicerOptions go;
  go.target_log2size = t;
  auto Sg = greedy_slice(*s.tree, go);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, Sg, t));
  SliceFinderOptions fo;
  fo.target_log2size = t;
  auto Sf = lifetime_slice_finder(s.stem, fo);
  EXPECT_TRUE(satisfies_memory_bound(*s.tree, Sf, t));
}

INSTANTIATE_TEST_SUITE_P(TargetsAndSeeds, SlicerSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                                            ::testing::Values(uint64_t(2), uint64_t(9))));

}  // namespace
}  // namespace ltns::core
