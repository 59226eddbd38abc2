#include "rrr/fused.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "rrr/generate.hpp"
#include "runtime/rng_stream.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

using testing::ScopedEnv;
using testing::make_graph;
using testing::make_weighted_graph;
using testing::set_uniform_probability;

constexpr std::uint64_t kSeed = 0xBE9C;

// Checks the FusedScratch all-zero invariant the traversals must restore.
void expect_scratch_clean(const FusedScratch& scratch) {
  for (const std::uint64_t w : scratch.visited) EXPECT_EQ(w, 0u);
  for (const std::uint64_t w : scratch.pending) EXPECT_EQ(w, 0u);
  for (const std::uint64_t w : scratch.touched) EXPECT_EQ(w, 0u);
}

TEST(ResolveFusedSampling, ExplicitWinsEnvFillsAuto) {
  ScopedEnv off("EIMM_FUSED", "0");
  EXPECT_FALSE(resolve_fused_sampling(FusedSampling::kOff));
  EXPECT_TRUE(resolve_fused_sampling(FusedSampling::kOn));
  EXPECT_FALSE(resolve_fused_sampling(FusedSampling::kAuto));
  ScopedEnv unset("EIMM_FUSED", nullptr);
  EXPECT_TRUE(resolve_fused_sampling(FusedSampling::kAuto));  // default on
}

TEST(BernoulliMask, DegenerateProbabilities) {
  Xoshiro256 rng = rng_stream(kSeed, 0);
  EXPECT_EQ(bernoulli_mask(rng, 0.0), 0u);
  EXPECT_EQ(bernoulli_mask(rng, -1.0), 0u);
  EXPECT_EQ(bernoulli_mask(rng, 1.0), ~std::uint64_t{0});
  EXPECT_EQ(bernoulli_mask(rng, 2.0), ~std::uint64_t{0});
  // Below the 2^-32 quantization grid rounds to never.
  EXPECT_EQ(bernoulli_mask(rng, 1e-12), 0u);
}

// Reference: the bit-serial loop written the obvious way, with llround
// and a branch on each bit of q. bernoulli_mask must reproduce it mask
// for mask and draw for draw, or fused pools would change.
std::uint64_t reference_bernoulli_mask(Xoshiro256& rng, double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~std::uint64_t{0};
  const auto q = static_cast<std::uint64_t>(std::llround(p * 4294967296.0));
  if (q == 0) return 0;
  if (q >= (std::uint64_t{1} << 32)) return ~std::uint64_t{0};
  std::uint64_t result = 0;
  std::uint64_t undecided = ~std::uint64_t{0};
  for (int k = 31; k >= 0; --k) {
    if ((q & ((std::uint64_t{1} << (k + 1)) - 1)) == 0) break;
    const std::uint64_t r = rng();
    if (((q >> k) & 1) != 0) {
      result |= undecided & ~r;
      undecided &= r;
    } else {
      undecided &= ~r;
    }
    if (undecided == 0) break;
  }
  return result;
}

TEST(BernoulliMask, MatchesReferenceLoopMaskAndDraws) {
  // Same mask AND same generator state afterwards: a mask that matched
  // but consumed a different number of draws would shift every later
  // coin of the traversal.
  std::vector<double> ps = {0.5,
                            0.25,
                            0.75,
                            0.125,
                            0x1.0p-32,
                            0x1.0p-33,
                            0x1.8p-34,
                            1e-10,
                            1.0 - 0x1.0p-32,
                            1.0 - 0x1.0p-33,
                            1.0 - 1e-12,
                            std::nextafter(1.0, 0.0)};
  // Quantization ties: p·2^32 exactly k + 1/2 rounds away from zero, and
  // its neighbours one ulp either side must round the way llround does.
  for (const double tie : {0.5, 12345.5, 2147483647.5, 4294967295.5}) {
    const double p = tie * 0x1.0p-32;
    ps.push_back(p);
    ps.push_back(std::nextafter(p, 0.0));
    ps.push_back(std::nextafter(p, 1.0));
  }
  Xoshiro256 pick = rng_stream(kSeed, 5);
  for (int i = 0; i < 2000; ++i) ps.push_back(pick.next_double());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    Xoshiro256 a = rng_stream(kSeed, 1000 + i);
    Xoshiro256 b = a;
    for (int rep = 0; rep < 8; ++rep) {
      ASSERT_EQ(bernoulli_mask(a, ps[i]), reference_bernoulli_mask(b, ps[i]))
          << "p = " << ps[i] << " rep " << rep;
      ASSERT_EQ(a(), b()) << "draw count differs at p = " << ps[i];
    }
  }
}

TEST(BernoulliMask, NaNNeverCrossesLikeScalarCoin) {
  // next_bool(NaN) is always false (NaN < x is false); the mask must
  // agree, or the fused and scalar IC kernels would read a NaN weight
  // as "never" and "always" respectively.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Xoshiro256 rng = rng_stream(kSeed, 7);
  Xoshiro256 untouched = rng;
  EXPECT_EQ(bernoulli_mask(rng, nan), 0u);
  EXPECT_EQ(rng(), untouched());  // no draws spent on a dead edge
  EXPECT_FALSE(rng.next_bool(nan));
}

TEST(BernoulliMask, MatchesProbabilityStatistically) {
  // 4096 masks x 64 lanes = 262144 Bernoulli trials per p: the sample
  // fraction's standard error is sqrt(p(1-p)/262144) <= 0.001, so the
  // 0.01 band is a ~10 sigma gate.
  for (const double p : {0.1, 0.3, 0.5, 0.737, 0.9}) {
    Xoshiro256 rng = rng_stream(kSeed, static_cast<std::uint64_t>(p * 1000));
    std::uint64_t ones = 0;
    constexpr int kMasks = 4096;
    for (int i = 0; i < kMasks; ++i) {
      ones += static_cast<std::uint64_t>(std::popcount(bernoulli_mask(rng, p)));
    }
    const double fraction = static_cast<double>(ones) / (64.0 * kMasks);
    EXPECT_NEAR(fraction, p, 0.01) << "p = " << p;
  }
}

TEST(BernoulliMask, LanesAreIndependentAcrossDraws) {
  // Adjacent masks from one stream must not correlate lane-wise (the
  // bit-serial construction reuses draws across lanes WITHIN a mask, but
  // every mask consumes fresh draws). Count per-lane transitions: for
  // p=0.5 each lane's consecutive-mask pair hits each of the 4 outcomes
  // with probability 1/4.
  Xoshiro256 rng = rng_stream(kSeed, 99);
  constexpr int kPairs = 8192;
  std::uint64_t both = 0;
  std::uint64_t prev = bernoulli_mask(rng, 0.5);
  for (int i = 0; i < kPairs; ++i) {
    const std::uint64_t cur = bernoulli_mask(rng, 0.5);
    both += static_cast<std::uint64_t>(std::popcount(prev & cur));
    prev = cur;
  }
  const double fraction = static_cast<double>(both) / (64.0 * kPairs);
  EXPECT_NEAR(fraction, 0.25, 0.01);
}

TEST(FusedSampling, ProbabilityOneMatchesReverseReachableClosure) {
  // p = 1 removes the randomness from the flips: every lane's IC set is
  // exactly the reverse-reachable closure of its root, fused or scalar.
  auto g = make_graph(gen_path(8));
  set_uniform_probability(g, 1.0f);
  FusedScratch scratch(g.num_vertices());
  const FusedTraversalStats stats =
      sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed,
                       /*block=*/0, 0, kFusedLanes, scratch);
  EXPECT_EQ(stats.lanes, kFusedLanes);

  SamplerScratch scalar_scratch(g.num_vertices());
  for (unsigned l = 0; l < kFusedLanes; ++l) {
    std::vector<VertexId> expected = sample_rrr(
        g.reverse, DiffusionModel::kIndependentCascade, kSeed, l,
        scalar_scratch);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(scratch.members[l], expected) << "lane " << l;
    EXPECT_TRUE(std::is_sorted(scratch.members[l].begin(),
                               scratch.members[l].end()));
  }
  expect_scratch_clean(scratch);
}

TEST(FusedSampling, ProbabilityZeroIsRootOnlyAndRootsMatchScalar) {
  auto g = make_graph(gen_path(8));
  set_uniform_probability(g, 0.0f);
  FusedScratch scratch(g.num_vertices());
  const FusedTraversalStats stats =
      sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed,
                       /*block=*/3, 0, kFusedLanes, scratch);
  SamplerScratch scalar_scratch(g.num_vertices());
  std::vector<bool> is_root(g.num_vertices(), false);
  for (unsigned l = 0; l < kFusedLanes; ++l) {
    // Lane l of block 3 is global slot 3*64+l — same root as scalar.
    const auto expected = sample_rrr(
        g.reverse, DiffusionModel::kIndependentCascade, kSeed, 3 * 64 + l,
        scalar_scratch);
    ASSERT_EQ(scratch.members[l].size(), 1u);
    EXPECT_EQ(scratch.members[l][0], expected[0]);
    is_root[expected[0]] = true;
  }
  // Only roots expand, each once (lanes sharing a root coalesce), and
  // every root but vertex 0 has one in-edge whose coins all come up 0.
  std::uint64_t roots_with_in_edge = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    roots_with_in_edge += is_root[v] ? 1 : 0;
  }
  EXPECT_EQ(stats.touched,
            roots_with_in_edge + (is_root[0] ? 1 : 0));
  EXPECT_EQ(stats.edges_scanned, roots_with_in_edge);
  EXPECT_EQ(stats.coin_edges, roots_with_in_edge);
  expect_scratch_clean(scratch);
}

TEST(FusedSampling, RejectsLinearThreshold) {
  // LT lanes would be independent walks sharing no traversal work, so
  // fusion serves IC only; both entry points refuse LT with a CheckError
  // (the sharded sampler routes LT through its scalar staging instead).
  auto g = make_weighted_graph(gen_erdos_renyi(200, 1200, /*seed=*/11),
                               DiffusionModel::kLinearThreshold);
  FusedScratch scratch(g.num_vertices());
  EXPECT_THROW(sample_rrr_fused(g.reverse, DiffusionModel::kLinearThreshold,
                                kSeed, 0, 0, kFusedLanes, scratch),
               CheckError);
  ShardArena arena;
  std::array<ShardArena::Ref, kFusedLanes> refs;
  EXPECT_THROW(
      sample_rrr_fused_into(g.reverse, DiffusionModel::kLinearThreshold,
                            kSeed, 0, 0, kFusedLanes, scratch, arena,
                            refs.data()),
      CheckError);
  EXPECT_EQ(arena.runs(), 0u);
  expect_scratch_clean(scratch);
}

TEST(FusedSampling, PartialLaneWindowTouchesOnlyItsLanes) {
  // A martingale round boundary clips the block's lane window; lanes
  // outside [lane_begin, lane_end) must not be drawn from or emitted.
  auto g = make_weighted_graph(gen_erdos_renyi(100, 600, /*seed=*/5),
                               DiffusionModel::kIndependentCascade);
  FusedScratch scratch(g.num_vertices());
  for (unsigned l = 0; l < kFusedLanes; ++l) scratch.members[l].assign(1, 0);
  const FusedTraversalStats stats =
      sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed,
                       /*block=*/2, /*lane_begin=*/5, /*lane_end=*/9, scratch);
  EXPECT_EQ(stats.lanes, 4u);
  for (unsigned l = 5; l < 9; ++l) {
    EXPECT_FALSE(scratch.members[l].empty());
    EXPECT_TRUE(std::is_sorted(scratch.members[l].begin(),
                               scratch.members[l].end()));
  }
  // Untouched lanes keep their sentinel content (the traversal never
  // clears lanes outside the window).
  for (unsigned l = 0; l < 5; ++l) EXPECT_EQ(scratch.members[l].size(), 1u);
  for (unsigned l = 9; l < kFusedLanes; ++l) {
    EXPECT_EQ(scratch.members[l].size(), 1u);
  }
  expect_scratch_clean(scratch);
}

TEST(FusedSampling, FewerVerticesThanLanesSharesRoots) {
  // n < 64 forces root collisions; coalescing must merge those lanes
  // from the very first expansion without corrupting per-lane sets.
  auto g = make_weighted_graph(gen_erdos_renyi(7, 30, /*seed=*/3),
                               DiffusionModel::kIndependentCascade);
  FusedScratch scratch(g.num_vertices());
  const FusedTraversalStats stats =
      sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed,
                       /*block=*/0, 0, kFusedLanes, scratch);
  EXPECT_EQ(stats.lanes, kFusedLanes);
  EXPECT_LE(stats.touched, 7u);
  for (unsigned l = 0; l < kFusedLanes; ++l) {
    EXPECT_GE(scratch.members[l].size(), 1u);
    EXPECT_LE(scratch.members[l].size(), 7u);
    EXPECT_TRUE(std::is_sorted(scratch.members[l].begin(),
                               scratch.members[l].end()));
    EXPECT_TRUE(std::adjacent_find(scratch.members[l].begin(),
                                   scratch.members[l].end()) ==
                scratch.members[l].end());
  }
  expect_scratch_clean(scratch);
}

TEST(FusedSampling, SingleVertexGraphRejectedLikeScalar) {
  // An edgeless graph can carry no weights, so the fused kernel must
  // reject it with the same CheckError the scalar dispatch throws — not
  // crash or emit garbage lanes.
  auto g = make_graph({}, /*n=*/1);
  FusedScratch scratch(1);
  SamplerScratch scalar_scratch(1);
  EXPECT_THROW(sample_rrr_fused(g.reverse,
                                DiffusionModel::kIndependentCascade, kSeed, 0,
                                0, kFusedLanes, scratch),
               CheckError);
  EXPECT_THROW(sample_rrr(g.reverse, DiffusionModel::kIndependentCascade,
                          kSeed, 0, scalar_scratch),
               CheckError);
}

TEST(FusedSampling, TwoVertexGraphIsTheMinimalWorkingCase) {
  // The smallest weightable graph: 0 -> 1 with p = 1. Every lane's set
  // is {root} or {0, 1} depending on which root its stream draws.
  auto g = make_graph({{0, 1, 1.0f}}, /*n=*/2);
  set_uniform_probability(g, 1.0f);
  FusedScratch scratch(2);
  const FusedTraversalStats stats =
      sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed,
                       0, 0, kFusedLanes, scratch);
  EXPECT_EQ(stats.lanes, kFusedLanes);
  EXPECT_LE(stats.touched, 2u);
  const std::vector<VertexId> root0 = {0};
  const std::vector<VertexId> both = {0, 1};
  for (unsigned l = 0; l < kFusedLanes; ++l) {
    // Root 1 pulls in 0 through the live edge; root 0 has no in-edges.
    EXPECT_TRUE(scratch.members[l] == root0 || scratch.members[l] == both)
        << "lane " << l;
  }
  expect_scratch_clean(scratch);
}

TEST(FusedSampling, RejectsEmptyGraphAndBadWindows) {
  CSRGraph empty({0}, {});
  empty.ensure_weights(0.5f);
  FusedScratch scratch(1);
  EXPECT_THROW(sample_rrr_fused(empty, DiffusionModel::kIndependentCascade,
                                kSeed, 0, 0, kFusedLanes, scratch),
               CheckError);

  auto g = make_graph(gen_path(4));
  set_uniform_probability(g, 0.5f);
  FusedScratch s4(4);
  EXPECT_THROW(sample_rrr_fused(g.reverse,
                                DiffusionModel::kIndependentCascade, kSeed, 0,
                                /*lane_begin=*/3, /*lane_end=*/3, s4),
               CheckError);
  EXPECT_THROW(sample_rrr_fused(g.reverse,
                                DiffusionModel::kIndependentCascade, kSeed, 0,
                                /*lane_begin=*/0, /*lane_end=*/65, s4),
               CheckError);

  CSRGraph bare({0, 1}, {0});  // weights missing entirely
  FusedScratch s1(1);
  EXPECT_THROW(sample_rrr_fused(bare, DiffusionModel::kIndependentCascade,
                                kSeed, 0, 0, kFusedLanes, s1),
               CheckError);
}

TEST(FusedSampling, ArenaVariantMatchesMembersVariant) {
  // sample_rrr_fused_into is the staging-path twin: same traversal, sets
  // written straight into arena slots (runs, or bitmaps at or above the
  // adaptive threshold) and base counters credited by lane popcount.
  // Slot contents and counters must match the members variant.
  const auto model = DiffusionModel::kIndependentCascade;
  auto g = make_weighted_graph(gen_erdos_renyi(300, 2400, /*seed=*/17),
                               model);
  const VertexId n = g.num_vertices();
  const std::size_t bitmap_min =
      bitmap_min_members(n, kDefaultBitmapThreshold);
  FusedScratch a(n);
  FusedScratch b(n);
  ShardArena arena;
  std::array<ShardArena::Ref, kFusedLanes> refs;
  for (const std::uint64_t block : {0ull, 4ull}) {
    CounterArray counters(n);
    const FusedTraversalStats sa =
        sample_rrr_fused(g.reverse, model, kSeed, block, 0, kFusedLanes, a);
    const FusedTraversalStats sb = sample_rrr_fused_into(
        g.reverse, model, kSeed, block, 0, kFusedLanes, b, arena,
        refs.data(), bitmap_min, &counters);
    EXPECT_EQ(sa.lanes, sb.lanes);
    EXPECT_EQ(sa.touched, sb.touched);
    EXPECT_EQ(sa.members, sb.members);
    std::vector<std::uint64_t> expected_counts(n, 0);
    for (unsigned l = 0; l < kFusedLanes; ++l) {
      const RRRSetView slot = arena.slot(refs[l]);
      EXPECT_EQ(slot.repr(), a.members[l].size() >= bitmap_min
                                 ? RRRRepr::kBitmap
                                 : RRRRepr::kVector)
          << "block " << block << " lane " << l;
      EXPECT_EQ(slot.size(), a.members[l].size());
      std::vector<VertexId> got;
      slot.for_each([&](VertexId v) { got.push_back(v); });
      EXPECT_EQ(got, a.members[l]) << "block " << block << " lane " << l;
      for (const VertexId v : a.members[l]) ++expected_counts[v];
    }
    EXPECT_EQ(counters.snapshot(), expected_counts) << "block " << block;
    expect_scratch_clean(a);
    expect_scratch_clean(b);
  }
}

TEST(FusedSampling, DeterministicAcrossScratchReuse) {
  // Slot content = f(seed, block, lane window): repeating a traversal on
  // a dirty-history scratch must reproduce the first run bit-for-bit.
  auto g = make_weighted_graph(gen_erdos_renyi(150, 900, /*seed=*/23),
                               DiffusionModel::kIndependentCascade);
  FusedScratch scratch(g.num_vertices());
  sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed, 1, 0,
                   kFusedLanes, scratch);
  std::array<std::vector<VertexId>, kFusedLanes> first;
  for (unsigned l = 0; l < kFusedLanes; ++l) first[l] = scratch.members[l];

  sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed, 9, 0,
                   kFusedLanes, scratch);  // unrelated block in between
  sample_rrr_fused(g.reverse, DiffusionModel::kIndependentCascade, kSeed, 1, 0,
                   kFusedLanes, scratch);
  for (unsigned l = 0; l < kFusedLanes; ++l) {
    EXPECT_EQ(scratch.members[l], first[l]) << "lane " << l;
  }
}

}  // namespace
}  // namespace eimm
