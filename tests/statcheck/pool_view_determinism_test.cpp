// Pool-view determinism sweep: the zero-copy data path (sharded staging
// consumed in place through RRRPoolView, workspace-reused counters) must
// emit BIT-IDENTICAL seed sequences to the flat reference path
// (shards == 1, contiguous RRRPool, flat counters, no pinning) for every
// shard / counter-shard / pin-mode combination — the PR's acceptance
// contract, enforced here under the statcheck label CI runs explicitly.
#include <gtest/gtest.h>

#include "rrr/pool_view.hpp"
#include "rrr/sharded.hpp"
#include "runtime/affinity.hpp"
#include "seedselect/engine.hpp"
#include "statcheck.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

using statcheck::statcheck_imm_options;
using statcheck::statcheck_workload;

TEST(PoolViewDeterminism, ViewPathSeedsMatchFlatPathAcrossShardCounts) {
  for (const DiffusionModel model :
       {DiffusionModel::kIndependentCascade,
        DiffusionModel::kLinearThreshold}) {
    const DiffusionGraph g = statcheck_workload(
        model == DiffusionModel::kIndependentCascade ? "com-Amazon"
                                                     : "com-DBLP",
        model, 0.03);
    auto opt = statcheck_imm_options(model, 6);
    opt.shards = 1;
    const ImmResult flat = run_imm(g, opt, Engine::kEfficient);
    EXPECT_EQ(flat.merged_bytes, 0u);

    for (const int shards : {2, 3, 5, 8}) {
      opt.shards = shards;
      const ImmResult view = run_imm(g, opt, Engine::kEfficient);
      EXPECT_EQ(view.shards_used, shards);
      EXPECT_EQ(view.seeds, flat.seeds)
          << to_string(model) << " shards=" << shards;
      EXPECT_DOUBLE_EQ(view.coverage_fraction, flat.coverage_fraction);
      // The zero-copy acceptance: sets were staged, nothing was merged.
      EXPECT_GT(view.staged_bytes, 0u) << "shards=" << shards;
      EXPECT_EQ(view.merged_bytes, 0u) << "shards=" << shards;
    }
  }
}

TEST(PoolViewDeterminism, ShardPinCounterShardGridMatchesFlatReference) {
  // The full combination grid from the acceptance criteria: sampling
  // shards × counter shards × pin mode, every cell against the flat,
  // unpinned, single-shard reference.
  const DiffusionGraph g = statcheck_workload(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 6);

  set_pin_mode(PinMode::kNone);
  opt.shards = 1;
  opt.counter_shards = 1;
  const ImmResult reference = run_imm(g, opt, Engine::kEfficient);

  for (const int shards : {2, 4}) {
    for (const int counter_shards : {1, 3}) {
      for (const PinMode pin : {PinMode::kNone, PinMode::kCompact,
                                PinMode::kSpread}) {
        set_pin_mode(pin);
        opt.shards = shards;
        opt.counter_shards = counter_shards;
        const ImmResult candidate = run_imm(g, opt, Engine::kEfficient);
        EXPECT_EQ(candidate.seeds, reference.seeds)
            << "shards=" << shards << " counter_shards=" << counter_shards
            << " pin=" << to_string(pin);
        EXPECT_EQ(candidate.merged_bytes, 0u);
        EXPECT_EQ(candidate.counter_layout_allocations, 1u);
      }
    }
  }
  reset_pin_mode();
}

TEST(PoolViewDeterminism, SelectionOverSegmentsMatchesSelectionOverPool) {
  // Engine-level cross-backing check, independent of run_imm: the same
  // set contents behind a SegmentedPool view and behind a legacy RRRPool
  // must select identically, for both counter layouts.
  const DiffusionGraph g = statcheck_workload(
      "com-DBLP", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 6);

  opt.shards = 3;
  // The reference pool below is the scalar per-index sampler; pin fused
  // off (it is the default) to keep comparing like with like.
  opt.fused_sampling = FusedSampling::kOff;
  const PoolBuild segmented = build_rrr_pool(g, opt, Engine::kEfficient);
  ASSERT_TRUE(segmented.segmented);

  const RRRPool reference = testing::sample_pool(
      g, opt.model, segmented.size(), opt.rng_seed, /*adaptive=*/true);

  SelectionOptions sopt;
  sopt.k = opt.k;
  for (const int counter_shards : {1, 2}) {
    SelectionEngineConfig config;
    config.counter_shards = counter_shards;
    config.pin = PinMode::kNone;
    const SelectionEngine engine(config);
    const SelectionResult over_view = engine.select(
        SelectionKernel::kEfficient, segmented.view(), sopt);
    const SelectionResult over_pool =
        engine.select(SelectionKernel::kEfficient, reference, sopt);
    EXPECT_EQ(over_view.seeds, over_pool.seeds)
        << "counter_shards=" << counter_shards;
    EXPECT_EQ(over_view.marginal_coverage, over_pool.marginal_coverage);
    EXPECT_EQ(over_view.covered_sets, over_pool.covered_sets);

    // The ripples baseline consumes the view too.
    const SelectionResult ripples_view =
        engine.select(SelectionKernel::kRipples, segmented.view(), sopt);
    const SelectionResult ripples_pool =
        engine.select(SelectionKernel::kRipples, reference, sopt);
    EXPECT_EQ(ripples_view.seeds, ripples_pool.seeds);
  }
}

TEST(PoolViewDeterminism, SegmentedFlattenBitMatchesMergePathImage) {
  // flatten() stays available for snapshots: the segmented build's
  // flattened image must bit-match the legacy merge path's pool image
  // for the same configuration.
  const DiffusionGraph g = statcheck_workload(
      "com-YouTube", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 4);
  opt.shards = 4;
  // Pin fused off: the one-shot merge run below covers [0, size) in a
  // single round, while the build's martingale schedule clips fused
  // blocks at round boundaries — fused images would legitimately differ.
  opt.fused_sampling = FusedSampling::kOff;
  const PoolBuild build = build_rrr_pool(g, opt, Engine::kEfficient);
  ASSERT_TRUE(build.segmented);

  ShardedConfig config;
  config.shards = 4;
  config.model = opt.model;
  config.rng_seed = opt.rng_seed;
  config.batch_size = opt.batch_size;
  ShardedSampler merge_sampler(g.reverse, config);
  RRRPool merged(g.num_vertices());
  merged.resize(build.size());
  merge_sampler.generate(merged, 0, build.size(), nullptr);

  const FlatPool a = build.view().flatten();
  const FlatPool b = merged.flatten();
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.vertices, b.vertices);
  // And the merge path is the one that pays the copy.
  EXPECT_GT(merge_sampler.stats().merged_bytes, 0u);
  EXPECT_EQ(build.shard_stats.merged_bytes, 0u);
}

}  // namespace
}  // namespace eimm
