// Statistical + determinism contract of the fused 64-wide sampler
// (rrr/fused.hpp), at the pipeline level:
//   * fused IC output is STATISTICALLY equivalent to the scalar path —
//     the seeds it selects must match the scalar seeds' Monte-Carlo
//     spread within the harness tolerance, across shard counts (the
//     bit-match check's replacement, see the
//     statcheck.hpp preamble — this is exactly the "future optimizations
//     may trade exact pool identity for speed" case it was built for);
//   * LT never fuses: a fused request samples scalar, so the whole
//     build must produce the identical pool image and seeds;
//   * fused runs are deterministic: same (workload, seed, options) →
//     bit-identical pool images across repeated runs and shard counts
//     (a 64-slot block is never split across shards);
//   * lane-window edge cases survive the full pipeline: workloads with
//     fewer vertices than lanes, set counts that end mid-block, and
//     more shards than blocks;
//   * golden images: digests of fused IC output pinned for two registry
//     workloads and a hand-built multigraph (duplicate in-edges and a
//     self-loop), so any kernel rewrite that promises the same pools bit
//     for bit — same RNG draws in the same order — is checked against
//     the kernel it replaces. The seed is a literal, not
//     statcheck_seed(), so EIMM_STATCHECK_SEED cannot move the pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "rrr/fused.hpp"
#include "rrr/sharded.hpp"
#include "runtime/atomic_counters.hpp"
#include "statcheck.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

using statcheck::compare_spread;
using statcheck::statcheck_imm_options;
using statcheck::statcheck_workload;

constexpr double kSpreadTolerance = 0.05;

// Golden digests (see the FusedGolden tests at the end of this file).
constexpr std::size_t kAmazonSets = 704;
constexpr std::uint64_t kAmazonDigest = 0x8ec2b974cc3367f7;
constexpr std::size_t kLJSets = 1088;
constexpr std::uint64_t kLJDigest = 0x399f9579761f7220;
constexpr std::uint64_t kMultigraphMembersDigest = 0x6ca0dcb394086a2d;
constexpr std::uint64_t kMultigraphArenaDigest = 0xcfe0b812cf61f69b;

std::vector<VertexId> members(const RRRSetView& slot) {
  std::vector<VertexId> out;
  slot.for_each([&](VertexId v) { out.push_back(v); });
  return out;
}

TEST(FusedStatistical, FusedSeedsMatchScalarSpreadAcrossShardsAndBackings) {
  // The headline contract: for IC and LT, across shard counts, seeds
  // from a fused build must be as good as the scalar build's seeds under
  // forward Monte-Carlo estimation. Only IC actually runs fused; an LT
  // request samples scalar.
  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    const DiffusionGraph g = statcheck_workload(
        model == DiffusionModel::kIndependentCascade ? "com-YouTube"
                                                     : "com-DBLP",
        model, 0.03);
    auto opt = statcheck_imm_options(model, 6);
    opt.fused_sampling = FusedSampling::kOff;
    const ImmResult scalar = run_imm(g, opt, Engine::kEfficient);

    opt.fused_sampling = FusedSampling::kOn;
    for (const int shards : {1, 3}) {
      opt.shards = shards;
      const ImmResult fused = run_imm(g, opt, Engine::kEfficient);
      EXPECT_EQ(fused.fused_sampling_used,
                model == DiffusionModel::kIndependentCascade);
      const auto cmp = compare_spread(g, model, scalar.seeds, fused.seeds);
      EXPECT_TRUE(cmp.within(kSpreadTolerance))
          << to_string(model) << " shards=" << shards << ": "
          << cmp.describe();
    }
  }
}

TEST(FusedDeterminism, RepeatedFusedRunsProduceIdenticalImages) {
  const DiffusionGraph g = statcheck_workload(
      "com-YouTube", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 6);
  opt.fused_sampling = FusedSampling::kOn;
  opt.shards = 2;
  const PoolBuild a = build_rrr_pool(g, opt, Engine::kEfficient);
  const PoolBuild b = build_rrr_pool(g, opt, Engine::kEfficient);
  EXPECT_GT(a.size(), 0u);
  EXPECT_EQ(a.size(), b.size());
  const FlatPool fa = a.view().flatten();
  const FlatPool fb = b.view().flatten();
  EXPECT_EQ(fa.offsets, fb.offsets);
  EXPECT_EQ(fa.vertices, fb.vertices);
}

TEST(FusedDeterminism, EveryShardCountProducesTheSameFusedImage) {
  // Fused planning works in 64-slot block units precisely so that shard
  // boundaries never split a traversal: shard count must keep moving
  // only placement and scheduling, never content, in fused mode too.
  const DiffusionGraph g = statcheck_workload(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 6);
  opt.fused_sampling = FusedSampling::kOn;
  opt.shards = 1;
  const PoolBuild reference = build_rrr_pool(g, opt, Engine::kEfficient);
  ASSERT_TRUE(reference.fused_sampling_used);
  ASSERT_TRUE(reference.segmented);  // fused always stages segmented
  const FlatPool reference_flat = reference.view().flatten();

  for (const int shards : {2, 3, 5, 8}) {
    opt.shards = shards;
    const PoolBuild sharded = build_rrr_pool(g, opt, Engine::kEfficient);
    EXPECT_EQ(sharded.shards_used, shards);
    const FlatPool flat = sharded.view().flatten();
    EXPECT_EQ(reference_flat.offsets, flat.offsets) << "shards=" << shards;
    EXPECT_EQ(reference_flat.vertices, flat.vertices) << "shards=" << shards;
  }
}

TEST(FusedDeterminism, FusedLTBuildBitMatchesScalarBuild) {
  // LT samples scalar under every fused setting, so kOn and kOff must
  // agree byte for byte: identical pool image and slot kinds, identical
  // martingale schedule, identical seeds — and neither reports fusion.
  const DiffusionGraph g = statcheck_workload(
      "com-DBLP", DiffusionModel::kLinearThreshold, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kLinearThreshold, 6);
  opt.shards = 2;
  opt.fused_sampling = FusedSampling::kOff;
  const PoolBuild scalar = build_rrr_pool(g, opt, Engine::kEfficient);
  const ImmResult scalar_run = run_imm(g, opt, Engine::kEfficient);
  opt.fused_sampling = FusedSampling::kOn;
  const PoolBuild fused = build_rrr_pool(g, opt, Engine::kEfficient);
  const ImmResult fused_run = run_imm(g, opt, Engine::kEfficient);
  EXPECT_FALSE(fused.fused_sampling_used);
  EXPECT_FALSE(scalar.fused_sampling_used);
  EXPECT_FALSE(fused_run.fused_sampling_used);
  ASSERT_EQ(scalar.size(), fused.size());
  EXPECT_EQ(scalar.view().bitmap_count(), fused.view().bitmap_count());
  const FlatPool fs = scalar.view().flatten();
  const FlatPool ff = fused.view().flatten();
  EXPECT_EQ(fs.offsets, ff.offsets);
  EXPECT_EQ(fs.vertices, ff.vertices);
  EXPECT_EQ(scalar_run.seeds, fused_run.seeds);
  EXPECT_EQ(scalar_run.theta, fused_run.theta);
}

TEST(FusedDeterminism, TinyWorkloadsSurviveTheFullPipeline) {
  // Fewer vertices than lanes (massive root sharing), set counts ending
  // mid-block (clipped final lane window), and more shards than blocks.
  const DiffusionGraph g = testing::make_weighted_graph(
      gen_erdos_renyi(40, 200, /*seed=*/9),
      DiffusionModel::kIndependentCascade);
  ShardedConfig config;
  config.model = DiffusionModel::kIndependentCascade;
  config.rng_seed = statcheck::statcheck_seed();
  config.fused = true;

  constexpr std::uint64_t kSets = 100;  // 1 full block + a 36-lane tail
  config.shards = 1;
  SegmentedPool reference(g.num_vertices());
  reference.resize(kSets);
  ShardedSampler ref_sampler(g.reverse, config);
  ref_sampler.generate(reference, 0, kSets, nullptr);

  for (const int shards : {2, 4, 8}) {  // 8 shards > 2 blocks
    config.shards = shards;
    SegmentedPool pool(g.num_vertices());
    pool.resize(kSets);
    ShardedSampler sampler(g.reverse, config);
    sampler.generate(pool, 0, kSets, nullptr);
    for (std::uint64_t i = 0; i < kSets; ++i) {
      const std::vector<VertexId> a = members(reference.slot(i));
      const std::vector<VertexId> b = members(pool.slot(i));
      ASSERT_EQ(a.size(), b.size()) << "shards=" << shards << " slot=" << i;
      EXPECT_EQ(a, b) << "shards=" << shards << " slot=" << i;
      EXPECT_GE(a.size(), 1u);  // root always included
    }
  }
}

TEST(FusedDeterminism, RoundSplitWindowsComposeToTheFullRange) {
  // The martingale rounds hand the sampler growing ranges; a block split
  // across two generate() calls must produce the same slots a dedicated
  // split produces — i.e. content is a function of the lane windows
  // actually sampled, with no randomness shared across the split.
  const DiffusionGraph g = testing::make_weighted_graph(
      gen_erdos_renyi(200, 1600, /*seed=*/13),
      DiffusionModel::kIndependentCascade);
  ShardedConfig config;
  config.model = DiffusionModel::kIndependentCascade;
  config.rng_seed = statcheck::statcheck_seed();
  config.fused = true;
  config.shards = 2;

  constexpr std::uint64_t kSets = 192;
  SegmentedPool split_pool(g.num_vertices());
  split_pool.resize(kSets);
  ShardedSampler split_sampler(g.reverse, config);
  split_sampler.generate(split_pool, 0, 100, nullptr);   // clips block 1
  split_sampler.generate(split_pool, 100, kSets, nullptr);

  SegmentedPool split_pool2(g.num_vertices());
  split_pool2.resize(kSets);
  ShardedSampler split_sampler2(g.reverse, config);
  split_sampler2.generate(split_pool2, 0, 100, nullptr);
  split_sampler2.generate(split_pool2, 100, kSets, nullptr);

  for (std::uint64_t i = 0; i < kSets; ++i) {
    const std::vector<VertexId> a = members(split_pool.slot(i));
    const std::vector<VertexId> b = members(split_pool2.slot(i));
    ASSERT_EQ(a.size(), b.size()) << "slot=" << i;
    EXPECT_EQ(a, b) << "slot=" << i;
  }
}


// ---------------------------------------------------------------------
// Golden fused-IC images. A digest mismatch means the kernel no longer
// draws the same coins in the same order; if that is intended (a new
// RNG contract), re-pin the digests in the same change and say so.

constexpr std::uint64_t kGoldenSeed = 20240924;

/// FNV-1a over 64-bit words: a stable, dependency-free image digest.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  template <typename T>
  void add_all(std::span<const T> words) {
    add(words.size());
    for (const T w : words) add(static_cast<std::uint64_t>(w));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

std::uint64_t image_digest(const PoolBuild& build) {
  const FlatPool flat = build.view().flatten();
  Digest d;
  d.add_all(std::span<const std::uint64_t>(flat.offsets));
  d.add_all(std::span<const VertexId>(flat.vertices));
  d.add(build.view().bitmap_count());
  return d.value();
}

std::uint64_t registry_image_digest(const char* workload, double scale,
                                    std::size_t* sets_out) {
  const auto model = DiffusionModel::kIndependentCascade;
  const DiffusionGraph g =
      make_workload_with_weights(workload, model, scale, kGoldenSeed);
  ImmOptions opt;
  opt.k = 6;
  opt.epsilon = 0.5;
  opt.model = model;
  opt.rng_seed = kGoldenSeed;
  opt.max_rrr_sets = 100'000;
  opt.fused_sampling = FusedSampling::kOn;
  opt.shards = 1;
  const PoolBuild build = build_rrr_pool(g, opt, Engine::kEfficient);
  EXPECT_TRUE(build.fused_sampling_used);
  *sets_out = build.size();
  return image_digest(build);
}

TEST(FusedGolden, ComAmazonICPoolImage) {
  std::size_t sets = 0;
  const std::uint64_t digest = registry_image_digest("com-Amazon", 0.02, &sets);
  EXPECT_EQ(sets, kAmazonSets);
  EXPECT_EQ(digest, kAmazonDigest) << std::hex << "0x" << digest;
}

TEST(FusedGolden, ComLJICPoolImage) {
  std::size_t sets = 0;
  const std::uint64_t digest = registry_image_digest("com-LJ", 0.05, &sets);
  EXPECT_EQ(sets, kLJSets);
  EXPECT_EQ(digest, kLJDigest) << std::hex << "0x" << digest;
}

/// A reverse-CSR multigraph the registry never builds: every vertex has
/// a duplicated in-edge (the second copy must see the lanes the first
/// one already delivered), a self-loop (never a candidate, since the
/// popped lanes are visited there already), and a mix of weights from
/// near-0 to 1 so both the per-lane and the Bernoulli-mask coin paths
/// run. 40 vertices < 64 lanes, so roots collide and masks get dense.
CSRGraph golden_multigraph() {
  constexpr VertexId kN = 40;
  std::vector<EdgeId> offsets{0};
  std::vector<VertexId> targets;
  std::vector<float> weights;
  constexpr std::array<float, 5> kWeights = {0.05f, 0.3f, 0.5f, 0.77f, 1.0f};
  for (VertexId v = 0; v < kN; ++v) {
    const std::array<VertexId, 6> in = {
        (v + 1) % kN, (v * 7 + 3) % kN, (v + 1) % kN,
        v,            (v * 13 + 5) % kN, (v * 7 + 3) % kN};
    for (std::size_t i = 0; i < in.size(); ++i) {
      targets.push_back(in[i]);
      weights.push_back(kWeights[(v + i) % kWeights.size()]);
    }
    offsets.push_back(targets.size());
  }
  return CSRGraph(std::move(offsets), std::move(targets), std::move(weights));
}

struct LaneWindow {
  std::uint64_t block;
  unsigned begin;
  unsigned end;
};

constexpr std::array<LaneWindow, 4> kGoldenWindows = {
    {{0, 0, kFusedLanes}, {7, 0, kFusedLanes}, {3, 5, 41}, {3, 41, 64}}};

TEST(FusedGolden, MultigraphMembersVariant) {
  const CSRGraph reverse = golden_multigraph();
  FusedScratch scratch(reverse.num_vertices());
  Digest d;
  for (const LaneWindow& win : kGoldenWindows) {
    const FusedTraversalStats stats = sample_rrr_fused(
        reverse, DiffusionModel::kIndependentCascade, kGoldenSeed, win.block,
        win.begin, win.end, scratch);
    d.add(stats.lanes);
    d.add(stats.touched);
    d.add(stats.members);
    for (unsigned l = win.begin; l < win.end; ++l) {
      d.add_all(std::span<const VertexId>(scratch.members[l]));
    }
  }
  EXPECT_EQ(d.value(), kMultigraphMembersDigest)
      << std::hex << "0x" << d.value();
}

TEST(FusedGolden, MultigraphArenaVariant) {
  const CSRGraph reverse = golden_multigraph();
  const VertexId n = reverse.num_vertices();
  FusedScratch scratch(n);
  ShardArena arena;
  std::array<ShardArena::Ref, kFusedLanes> refs;
  Digest d;
  for (const LaneWindow& win : kGoldenWindows) {
    CounterArray counters(n);
    const FusedTraversalStats stats = sample_rrr_fused_into(
        reverse, DiffusionModel::kIndependentCascade, kGoldenSeed, win.block,
        win.begin, win.end, scratch, arena, refs.data(), /*bitmap_min=*/12,
        &counters);
    d.add(stats.lanes);
    d.add(stats.touched);
    d.add(stats.members);
    for (unsigned i = 0; i < win.end - win.begin; ++i) {
      const RRRSetView slot = arena.slot(refs[i]);
      d.add(slot.repr() == RRRRepr::kBitmap ? 1 : 0);
      d.add_all(std::span<const VertexId>(members(slot)));
    }
    d.add_all(std::span<const std::uint64_t>(counters.snapshot()));
  }
  EXPECT_EQ(d.value(), kMultigraphArenaDigest)
      << std::hex << "0x" << d.value();
}

}  // namespace
}  // namespace eimm
