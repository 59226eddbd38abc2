#include "rrr/generate.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.hpp"

namespace eimm {
namespace {

using testing::make_graph;
using testing::set_uniform_probability;

TEST(VisitScratch, MarksAndResets) {
  VisitScratch v(10);
  v.new_round();
  EXPECT_FALSE(v.visited(3));
  v.mark(3);
  EXPECT_TRUE(v.visited(3));
  v.new_round();
  EXPECT_FALSE(v.visited(3));
}

TEST(VisitScratch, ManyRoundsStayCorrect) {
  VisitScratch v(4);
  for (int round = 0; round < 1000; ++round) {
    v.new_round();
    EXPECT_FALSE(v.visited(0));
    v.mark(0);
    EXPECT_TRUE(v.visited(0));
    EXPECT_FALSE(v.visited(1));
  }
}

TEST(VisitScratch, EpochWraparoundClearsStaleStamps) {
  // The wrap hazard: a stamp written during one 2^32-round cycle could
  // alias the SAME epoch value in the next cycle and read as "visited"
  // for a round that never marked it. new_round() must detect the wrap,
  // do its one full clear, and restart at epoch 1 (0 stays the
  // never-marked sentinel).
  VisitScratch v(8);
  v.new_round();
  v.mark(2);  // stamped with epoch 1 — the value the wrap restarts at
  v.set_epoch_for_test(0xFFFFFFFFu);
  v.mark(5);  // stamped with the final epoch of the cycle
  EXPECT_TRUE(v.visited(5));

  v.new_round();  // 0xFFFFFFFF + 1 wraps to 0: full clear, epoch := 1
  EXPECT_EQ(v.epoch(), 1u);
  // Without the clear, vertex 2's stale epoch-1 stamp would alias the
  // restarted epoch and poison this round.
  EXPECT_FALSE(v.visited(2));
  EXPECT_FALSE(v.visited(5));

  // The structure keeps working normally after the wrap.
  v.mark(3);
  EXPECT_TRUE(v.visited(3));
  v.new_round();
  EXPECT_EQ(v.epoch(), 2u);
  EXPECT_FALSE(v.visited(3));
}

TEST(VisitScratch, EpochJumpSeamBehavesLikeEmptyRounds) {
  // set_epoch_for_test must be equivalent to consuming the skipped
  // epochs with empty rounds: marks from before the jump are invisible
  // after it (their stamp is a PAST epoch, not a future one).
  VisitScratch v(4);
  v.new_round();
  v.mark(1);
  v.set_epoch_for_test(12345);
  EXPECT_FALSE(v.visited(1));
  v.new_round();
  EXPECT_EQ(v.epoch(), 12346u);
  EXPECT_FALSE(v.visited(1));
}

TEST(SampleIC, ProbabilityOneCoversReverseReachableSet) {
  // Path 0 -> 1 -> 2 -> 3: the reverse-reachable set of 3 is everything.
  auto g = make_graph(gen_path(4));
  set_uniform_probability(g, 1.0f);
  SamplerScratch scratch(4);
  Xoshiro256 rng(1);
  // Work = in-edges scanned: vertices 3, 2 and 1 have one each, 0 none.
  EXPECT_EQ(sample_rrr_ic(g.reverse, 3, rng, scratch), 3u);
  auto set = scratch.members;
  std::sort(set.begin(), set.end());
  EXPECT_EQ(set, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(SampleIC, PathPrefixProperty) {
  // RRR(v) on a path with p=1 is exactly {0..v}.
  auto g = make_graph(gen_path(6));
  set_uniform_probability(g, 1.0f);
  SamplerScratch scratch(6);
  for (VertexId root = 0; root < 6; ++root) {
    Xoshiro256 rng(root);
    sample_rrr_ic(g.reverse, root, rng, scratch);
    auto set = scratch.members;
    EXPECT_EQ(set.size(), static_cast<std::size_t>(root) + 1);
    for (const VertexId v : set) EXPECT_LE(v, root);
  }
}

TEST(SampleIC, ProbabilityZeroIsRootOnly) {
  auto g = make_graph(gen_complete(8));
  set_uniform_probability(g, 0.0f);
  SamplerScratch scratch(8);
  Xoshiro256 rng(2);
  sample_rrr_ic(g.reverse, 5, rng, scratch);
  const auto set = scratch.members;
  EXPECT_EQ(set, (std::vector<VertexId>{5}));
}

TEST(SampleIC, RootAlwaysIncluded) {
  auto g = testing::make_weighted_graph(
      gen_erdos_renyi(50, 200, 3), DiffusionModel::kIndependentCascade);
  SamplerScratch scratch(50);
  for (VertexId root = 0; root < 50; root += 7) {
    Xoshiro256 rng(root);
    sample_rrr_ic(g.reverse, root, rng, scratch);
    const auto set = scratch.members;
    EXPECT_NE(std::find(set.begin(), set.end(), root), set.end());
  }
}

TEST(SampleIC, NoDuplicateMembers) {
  auto g = testing::make_weighted_graph(
      gen_erdos_renyi(100, 800, 5), DiffusionModel::kIndependentCascade);
  SamplerScratch scratch(100);
  Xoshiro256 rng(9);
  sample_rrr_ic(g.reverse, 10, rng, scratch);
  auto set = scratch.members;
  std::sort(set.begin(), set.end());
  EXPECT_EQ(std::adjacent_find(set.begin(), set.end()), set.end());
}

TEST(SampleLT, WalkOnPathReachesStart) {
  // Path with full in-weight: the reverse walk from v deterministically
  // reaches 0 (every vertex has exactly one in-neighbor, weight 1).
  auto g = make_graph(gen_path(5));
  set_uniform_probability(g, 1.0f);
  SamplerScratch scratch(5);
  Xoshiro256 rng(3);
  // Work = walk steps: one draw at each of 4, 3, 2, 1; 0 has no in-edge.
  EXPECT_EQ(sample_rrr_lt(g.reverse, 4, rng, scratch), 4u);
  auto set = scratch.members;
  std::sort(set.begin(), set.end());
  EXPECT_EQ(set, (std::vector<VertexId>{0, 1, 2, 3, 4}));
}

TEST(SampleLT, CycleTerminatesOnRevisit) {
  // Cycle with weight 1: the walk must stop when it closes the loop.
  auto g = make_graph(gen_cycle(4));
  set_uniform_probability(g, 1.0f);
  SamplerScratch scratch(4);
  Xoshiro256 rng(3);
  sample_rrr_lt(g.reverse, 0, rng, scratch);
  const auto set = scratch.members;
  EXPECT_EQ(set.size(), 4u);  // visits each vertex once, then stops
}

TEST(SampleLT, SetsArePathsUnderNormalizedWeights) {
  // LT reverse sampling picks at most one in-neighbor per step, so the
  // set size is bounded by the walk length — and every member except the
  // root has exactly one "successor" in the walk. Just check size bounds
  // and membership sanity on a random graph.
  auto g = testing::make_weighted_graph(gen_erdos_renyi(200, 1200, 7),
                                        DiffusionModel::kLinearThreshold);
  SamplerScratch scratch(200);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto set = sample_rrr(g.reverse, DiffusionModel::kLinearThreshold,
                                99, i, scratch);
    EXPECT_GE(set.size(), 1u);
    EXPECT_LE(set.size(), 200u);
  }
}

TEST(SampleDispatch, DeterministicPerIndex) {
  auto g = testing::make_weighted_graph(
      gen_erdos_renyi(100, 700, 11), DiffusionModel::kIndependentCascade);
  SamplerScratch s1(100), s2(100);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const auto a =
        sample_rrr(g.reverse, DiffusionModel::kIndependentCascade, 42, i, s1);
    const auto b =
        sample_rrr(g.reverse, DiffusionModel::kIndependentCascade, 42, i, s2);
    EXPECT_EQ(a, b) << "index " << i;
  }
}

TEST(SampleDispatch, IndependentOfScratchHistory) {
  auto g = testing::make_weighted_graph(
      gen_erdos_renyi(100, 700, 11), DiffusionModel::kIndependentCascade);
  // Fresh scratch vs heavily reused scratch must give identical sets.
  SamplerScratch reused(100);
  for (std::uint64_t i = 0; i < 50; ++i) {
    sample_rrr(g.reverse, DiffusionModel::kIndependentCascade, 1, i, reused);
  }
  SamplerScratch fresh(100);
  const auto a =
      sample_rrr(g.reverse, DiffusionModel::kIndependentCascade, 42, 7, reused);
  const auto b =
      sample_rrr(g.reverse, DiffusionModel::kIndependentCascade, 42, 7, fresh);
  EXPECT_EQ(a, b);
}

TEST(SampleDispatch, DifferentSeedsGiveDifferentPools) {
  auto g = testing::make_weighted_graph(
      gen_erdos_renyi(100, 700, 11), DiffusionModel::kIndependentCascade);
  SamplerScratch scratch(100);
  int differing = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const auto a =
        sample_rrr(g.reverse, DiffusionModel::kIndependentCascade, 1, i, scratch);
    const auto b =
        sample_rrr(g.reverse, DiffusionModel::kIndependentCascade, 2, i, scratch);
    if (a != b) ++differing;
  }
  EXPECT_GT(differing, 10);
}

TEST(SampleDispatch, RequiresWeights) {
  auto g = make_graph(gen_path(4));  // builder assigns default weights...
  CSRGraph bare({0, 1}, {0});        // ...so use a raw unweighted graph
  SamplerScratch scratch(1);
  EXPECT_THROW(
      sample_rrr(bare, DiffusionModel::kIndependentCascade, 1, 0, scratch),
      CheckError);
  (void)g;
}

}  // namespace
}  // namespace eimm
