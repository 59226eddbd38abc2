// Property and negative-path coverage for the NUMA-sharded sampling
// pipeline: plan partitioning invariants, arena staging, and the merge's
// bit-identity with the serial reference under degenerate shapes —
// empty shards, one giant shard, shard count > thread count > node
// count, and oversubscribed thread requests via resolve_threads. The
// whole file is sanitizer-hot: it runs under the asan preset like every
// suite, and the arena/merge paths are exactly what ASan needs to see.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "rrr/fused.hpp"
#include "rrr/generate.hpp"
#include "rrr/sharded.hpp"
#include "runtime/thread_info.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

DiffusionGraph small_graph(DiffusionModel model, std::uint64_t seed = 13) {
  return testing::make_weighted_graph(gen_erdos_renyi(200, 900, seed), model);
}

ShardedConfig config_for(DiffusionModel model, int shards,
                         bool adaptive = true) {
  ShardedConfig config;
  config.shards = shards;
  config.model = model;
  config.rng_seed = 0xABCD;
  config.batch_size = 4;
  config.adaptive_representation = adaptive;
  return config;
}

/// Generates `count` sets through the sharded pipeline and asserts the
/// flattened image matches the serial per-index reference sampler.
void expect_matches_serial(const DiffusionGraph& g, DiffusionModel model,
                           std::size_t count, int shards, bool adaptive) {
  ShardedSampler sampler(g.reverse, config_for(model, shards, adaptive));
  RRRPool pool(g.num_vertices());
  pool.resize(count);
  sampler.generate(pool, 0, count, nullptr);

  const RRRPool reference =
      testing::sample_pool(g, model, count, 0xABCD, adaptive);
  const FlatPool a = pool.flatten();
  const FlatPool b = reference.flatten();
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.vertices, b.vertices);
}

// --- ShardPlan invariants ---

TEST(ShardPlan, SlicesPartitionTheRangeExactly) {
  const NumaTopology& topo = numa_topology();
  for (const int shards : {1, 2, 3, 7, 16}) {
    const ShardPlan plan = ShardPlan::make(100, 420, shards, 4, topo);
    ASSERT_EQ(plan.shards.size(), static_cast<std::size_t>(shards));
    std::uint64_t cursor = 100;
    std::uint64_t total = 0;
    for (const ShardPlan::Shard& shard : plan.shards) {
      EXPECT_EQ(shard.begin, cursor);  // contiguous, no gap, no overlap
      EXPECT_LE(shard.begin, shard.end);
      cursor = shard.end;
      total += shard.size();
    }
    EXPECT_EQ(cursor, 420u);
    EXPECT_EQ(total, 320u);
  }
}

TEST(ShardPlan, MoreShardsThanSetsYieldsEmptyShards) {
  const ShardPlan plan = ShardPlan::make(0, 3, 8, 4, numa_topology());
  std::size_t empty = 0;
  std::uint64_t total = 0;
  for (const ShardPlan::Shard& shard : plan.shards) {
    empty += shard.empty() ? 1 : 0;
    total += shard.size();
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(empty, 5u);
}

TEST(ShardPlan, WorkerGroupsPartitionWorkersWhenWorkersOutnumberShards) {
  const ShardPlan plan = ShardPlan::make(0, 1000, 3, 8, numa_topology());
  std::size_t covered = 0;
  std::size_t cursor = 0;
  for (const ShardPlan::Shard& shard : plan.shards) {
    EXPECT_GE(shard.worker_count, 1u);
    EXPECT_EQ(shard.first_worker, cursor);
    cursor += shard.worker_count;
    covered += shard.worker_count;
  }
  EXPECT_EQ(covered, 8u);
}

TEST(ShardPlan, EveryShardServedWhenShardsOutnumberWorkers) {
  const ShardPlan plan = ShardPlan::make(0, 1000, 9, 2, numa_topology());
  std::vector<bool> served(9, false);
  for (std::size_t w = 0; w < plan.total_workers; ++w) {
    for (const std::size_t s : plan.shards_for_worker(w)) {
      EXPECT_FALSE(served[s]) << "shard " << s << " served twice";
      served[s] = true;
      EXPECT_EQ(plan.shards[s].worker_count, 1u);
    }
  }
  for (std::size_t s = 0; s < served.size(); ++s) {
    EXPECT_TRUE(served[s]) << "shard " << s << " unserved";
  }
}

TEST(ShardPlan, DomainsComeFromTheTopology) {
  const NumaTopology& topo = numa_topology();
  const ShardPlan plan = ShardPlan::make(0, 64, 6, 2, topo);
  for (const ShardPlan::Shard& shard : plan.shards) {
    EXPECT_NE(std::find(topo.nodes.begin(), topo.nodes.end(), shard.domain),
              topo.nodes.end());
  }
}

// --- ShardArena staging ---

TEST(ShardArena, RoundTripsRunsAcrossChunkBoundaries) {
  ShardArena arena(/*chunk_vertices=*/8);
  std::vector<std::vector<VertexId>> runs = {
      {1, 2, 3, 4, 5}, {6, 7, 8}, {9}, {10, 11, 12, 13, 14, 15, 16},
      {}, {17, 18}};
  std::vector<ShardArena::Ref> refs;
  for (const auto& run : runs) refs.push_back(arena.append(run));
  ASSERT_EQ(arena.runs(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto view = arena.view(refs[i]);
    EXPECT_EQ(std::vector<VertexId>(view.begin(), view.end()), runs[i]);
  }
}

TEST(ShardArena, RunLargerThanChunkGetsDedicatedChunk) {
  ShardArena arena(/*chunk_vertices=*/4);
  std::vector<VertexId> giant(1000);
  std::iota(giant.begin(), giant.end(), 0);
  const auto ref = arena.append(giant);
  const auto view = arena.view(ref);
  EXPECT_EQ(std::vector<VertexId>(view.begin(), view.end()), giant);
  EXPECT_GE(arena.mapped_bytes(), giant.size() * sizeof(VertexId));
}

// --- Merge bit-identity under degenerate shapes ---

TEST(ShardedSampler, EmptyShardsMergeCleanly) {
  // 3 sets across 8 shards: five shards stage nothing.
  const auto g = small_graph(DiffusionModel::kIndependentCascade);
  expect_matches_serial(g, DiffusionModel::kIndependentCascade, 3, 8, true);
}

TEST(ShardedSampler, OneGiantShardMatchesSerial) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade);
  expect_matches_serial(g, DiffusionModel::kIndependentCascade, 400, 1,
                        true);
}

TEST(ShardedSampler, ZeroSetsIsANoOp) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade);
  ShardedSampler sampler(
      g.reverse, config_for(DiffusionModel::kIndependentCascade, 4));
  RRRPool pool(g.num_vertices());
  sampler.generate(pool, 0, 0, nullptr);
  EXPECT_EQ(pool.size(), 0u);
  std::uint64_t staged = 0;
  for (const std::uint64_t s : sampler.stats().sets_per_shard) staged += s;
  EXPECT_EQ(staged, 0u);
}

TEST(ShardedSampler, ShardsAboveThreadsAboveNodes) {
  // shard count (5) > thread count (2) > NUMA node count (1 on CI).
  const auto g = small_graph(DiffusionModel::kLinearThreshold);
  ThreadCountScope scope(2);
  expect_matches_serial(g, DiffusionModel::kLinearThreshold, 123, 5, true);
}

TEST(ShardedSampler, OversubscribedThreadsViaResolveThreads) {
  // resolve_threads honors explicit oversubscription requests verbatim;
  // the pipeline must stay correct when workers outnumber cores.
  const auto g = small_graph(DiffusionModel::kIndependentCascade);
  const int oversubscribed = resolve_threads(4 * max_threads());
  ASSERT_GT(oversubscribed, max_threads());
  ThreadCountScope scope(oversubscribed);
  expect_matches_serial(g, DiffusionModel::kIndependentCascade, 200, 3,
                        true);
}

TEST(ShardedSampler, VectorOnlyRepresentationMatchesSerial) {
  // The dist/ wire format path (adaptive_representation = false).
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 29);
  expect_matches_serial(g, DiffusionModel::kIndependentCascade, 150, 4,
                        false);
}

TEST(ShardedSampler, GrowingRangesMatchOneShotGeneration) {
  // The martingale driver calls generate() with growing ranges; the
  // union must equal a single-range build.
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 31);
  const auto model = DiffusionModel::kIndependentCascade;
  ShardedSampler incremental(g.reverse, config_for(model, 3));
  RRRPool grown(g.num_vertices());
  grown.resize(40);
  incremental.generate(grown, 0, 40, nullptr);
  grown.resize(170);
  incremental.generate(grown, 40, 170, nullptr);

  ShardedSampler oneshot(g.reverse, config_for(model, 3));
  RRRPool whole(g.num_vertices());
  whole.resize(170);
  oneshot.generate(whole, 0, 170, nullptr);

  const FlatPool a = grown.flatten();
  const FlatPool b = whole.flatten();
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.vertices, b.vertices);
}

TEST(ShardedSampler, FusedCountersCountMembership) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 37);
  const auto model = DiffusionModel::kIndependentCascade;
  constexpr std::size_t kSets = 120;

  ShardedSampler sampler(g.reverse, config_for(model, 4));
  RRRPool pool(g.num_vertices());
  pool.resize(kSets);
  CounterArray counters(g.num_vertices());
  sampler.generate(pool, 0, kSets, &counters);

  std::vector<std::uint64_t> expected(g.num_vertices(), 0);
  for (std::size_t i = 0; i < kSets; ++i) {
    pool[i].for_each([&](VertexId v) { ++expected[v]; });
  }
  EXPECT_EQ(counters.snapshot(), expected);
}

TEST(ShardedSampler, StatsDescribeThePlan) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 41);
  ShardedSampler sampler(
      g.reverse, config_for(DiffusionModel::kIndependentCascade, 4));
  RRRPool pool(g.num_vertices());
  pool.resize(100);
  sampler.generate(pool, 0, 100, nullptr);

  const ShardStats& stats = sampler.stats();
  ASSERT_EQ(stats.sets_per_shard.size(), 4u);
  EXPECT_EQ(std::accumulate(stats.sets_per_shard.begin(),
                            stats.sets_per_shard.end(), std::uint64_t{0}),
            100u);
  EXPECT_EQ(stats.shard_domains.size(), 4u);
  EXPECT_GE(stats.numa_domains, 1);
  EXPECT_GT(stats.staged_bytes, 0u);
}

// --- Zero-copy SegmentedPool path ---

TEST(ShardedSampler, ZeroCopyGenerateMatchesSerialReference) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 47);
  const auto model = DiffusionModel::kIndependentCascade;
  constexpr std::size_t kSets = 180;

  ShardedSampler sampler(g.reverse, config_for(model, 4));
  SegmentedPool segments(g.num_vertices());
  segments.resize(kSets);
  sampler.generate(segments, 0, kSets, nullptr);

  const RRRPool reference =
      testing::sample_pool(g, model, kSets, 0xABCD, /*adaptive=*/true);
  const FlatPool a = RRRPoolView(segments).flatten();
  const FlatPool b = reference.flatten();
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.vertices, b.vertices);

  // The zero-copy contract: payload staged once, merged never. Each slot
  // is staged in the reference's representation: a sorted run, or a
  // bitmap of ceil(|V|/64) words.
  std::uint64_t slot_bytes = 0;
  for (std::size_t i = 0; i < kSets; ++i) {
    slot_bytes += reference[i].repr() == RRRRepr::kBitmap
                      ? words_for_bits(g.num_vertices()) * sizeof(std::uint64_t)
                      : reference[i].size() * sizeof(VertexId);
  }
  ASSERT_GT(reference.bitmap_count(), 0u);
  EXPECT_EQ(RRRPoolView(segments).bitmap_count(), reference.bitmap_count());
  EXPECT_EQ(sampler.stats().merged_bytes, 0u);
  EXPECT_EQ(sampler.stats().staged_bytes, slot_bytes);
}

TEST(ShardedSampler, ZeroCopyGrowingRangesRetainEarlierRounds) {
  // The martingale probe loop extends the pool; earlier rounds' entries
  // must stay valid (the arenas are never reset on this path).
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 53);
  const auto model = DiffusionModel::kIndependentCascade;

  ShardedSampler sampler(g.reverse, config_for(model, 3));
  SegmentedPool segments(g.num_vertices());
  segments.resize(50);
  sampler.generate(segments, 0, 50, nullptr);
  const FlatPool first_round = RRRPoolView(segments).flatten();
  segments.resize(200);
  sampler.generate(segments, 50, 200, nullptr);

  const RRRPool reference =
      testing::sample_pool(g, model, 200, 0xABCD, /*adaptive=*/true);
  const FlatPool grown = RRRPoolView(segments).flatten();
  const FlatPool whole = reference.flatten();
  EXPECT_EQ(grown.offsets, whole.offsets);
  EXPECT_EQ(grown.vertices, whole.vertices);
  // Round 1's slots are a prefix of the final image, untouched.
  for (std::size_t i = 0; i < first_round.offsets.size(); ++i) {
    EXPECT_EQ(grown.offsets[i], first_round.offsets[i]);
  }
}

TEST(ShardedSampler, ZeroCopyFusedCountersCountMembership) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 59);
  constexpr std::size_t kSets = 90;
  ShardedSampler sampler(
      g.reverse, config_for(DiffusionModel::kIndependentCascade, 4));
  SegmentedPool segments(g.num_vertices());
  segments.resize(kSets);
  CounterArray counters(g.num_vertices());
  sampler.generate(segments, 0, kSets, &counters);

  std::vector<std::uint64_t> expected(g.num_vertices(), 0);
  const RRRPoolView view(segments);
  for (std::size_t i = 0; i < kSets; ++i) {
    view[i].for_each([&](VertexId v) { ++expected[v]; });
  }
  EXPECT_EQ(counters.snapshot(), expected);
}

TEST(ShardedSampler, ZeroCopyBitmapSlotsFollowTheAdaptiveThreshold) {
  // Scalar and fused staging both write a bitmap slot exactly when
  // RRRSet::make_adaptive would pick a bitmap. |V| = 200 is not a
  // multiple of 64, and the crossover sits on a set size the pool
  // contains, so the boundary itself is exercised. With the adaptive
  // representation off, every slot stays a run.
  const auto model = DiffusionModel::kIndependentCascade;
  const auto g = small_graph(model, 67);
  const VertexId n = g.num_vertices();
  ASSERT_NE(n % 64, 0u);
  constexpr std::size_t kSets = 256;
  for (const bool fused : {false, true}) {
    ShardedConfig runs_config = config_for(model, 2, /*adaptive=*/false);
    runs_config.fused = fused;
    SegmentedPool runs(n);
    runs.resize(kSets);
    ShardedSampler(g.reverse, runs_config).generate(runs, 0, kSets, nullptr);
    EXPECT_EQ(RRRPoolView(runs).bitmap_count(), 0u) << "fused=" << fused;

    std::vector<std::size_t> sizes;
    for (std::size_t i = 0; i < kSets; ++i) {
      sizes.push_back(runs.slot(i).size());
    }
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    ASSERT_GE(sizes.size(), 3u) << "need varied set sizes";
    const std::size_t boundary = sizes[sizes.size() / 2];

    ShardedConfig adaptive_config = runs_config;
    adaptive_config.adaptive_representation = true;
    adaptive_config.bitmap_threshold =
        (static_cast<double>(boundary) + 0.5) / static_cast<double>(n);
    ASSERT_EQ(bitmap_min_members(n, adaptive_config.bitmap_threshold),
              boundary);
    SegmentedPool mixed(n);
    mixed.resize(kSets);
    CounterArray counters(n);
    ShardedSampler(g.reverse, adaptive_config)
        .generate(mixed, 0, kSets, &counters);

    std::vector<std::uint64_t> expected(n, 0);
    for (std::size_t i = 0; i < kSets; ++i) {
      std::vector<VertexId> want;
      runs.slot(i).for_each([&](VertexId v) { want.push_back(v); });
      std::vector<VertexId> got;
      mixed.slot(i).for_each([&](VertexId v) { got.push_back(v); });
      EXPECT_EQ(got, want) << "fused=" << fused << " slot=" << i;
      EXPECT_EQ(mixed.slot(i).size(), want.size());
      const RRRSet reference = RRRSet::make_adaptive(
          want, n, adaptive_config.bitmap_threshold);
      EXPECT_EQ(mixed.slot(i).repr(), reference.repr())
          << "fused=" << fused << " slot=" << i << " size=" << want.size();
      for (const VertexId v : want) ++expected[v];
    }
    const std::size_t bitmaps = RRRPoolView(mixed).bitmap_count();
    EXPECT_GT(bitmaps, 0u);
    EXPECT_LT(bitmaps, kSets);
    EXPECT_EQ(counters.snapshot(), expected) << "fused=" << fused;
  }
}

TEST(ShardedSampler, ScalarStagingMatchesPerSlotSamplerAcrossSplits) {
  // The scalar staging loop (every LT build, and IC with fused off) must
  // write each slot exactly as sample_rrr + sort would produce it, in the
  // adaptive kind the parent rule picks, with base counters equal to the
  // brute-force member counts — for every shard count, thread count, and
  // uneven round split. The low threshold pushes LT paths into bitmaps.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> rounds = {
      {0, 1000}, {1000, 1001}, {1001, 5000}};
  constexpr std::uint64_t kSets = 5000;
  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    const auto g = small_graph(model, 71);
    const VertexId n = g.num_vertices();
    const double threshold = 3.0 / static_cast<double>(n);
    const std::size_t bitmap_min = bitmap_min_members(n, threshold);
    ASSERT_EQ(bitmap_min, 3u);

    SamplerScratch scratch(n);
    std::vector<std::vector<VertexId>> expected(kSets);
    std::vector<std::uint64_t> expected_counts(n, 0);
    std::size_t expected_bitmaps = 0;
    for (std::uint64_t i = 0; i < kSets; ++i) {
      expected[i] = sample_rrr(g.reverse, model, 0xABCD, i, scratch);
      std::sort(expected[i].begin(), expected[i].end());
      for (const VertexId v : expected[i]) ++expected_counts[v];
      expected_bitmaps += expected[i].size() >= bitmap_min ? 1 : 0;
    }
    ASSERT_GT(expected_bitmaps, 0u) << to_string(model);
    ASSERT_LT(expected_bitmaps, kSets) << to_string(model);

    for (const int shards : {1, 2, 3}) {
      for (const int threads : {1, 2}) {
        ThreadCountScope scope(threads);
        ShardedConfig config = config_for(model, shards);
        config.bitmap_threshold = threshold;
        ShardedSampler sampler(g.reverse, config);
        SegmentedPool pool(n);
        CounterArray counters(n);
        for (const auto& [begin, end] : rounds) {
          pool.resize(end);
          sampler.generate(pool, begin, end, &counters);
        }
        for (std::uint64_t i = 0; i < kSets; ++i) {
          const RRRSetView slot = pool.slot(i);
          std::vector<VertexId> got;
          slot.for_each([&](VertexId v) { got.push_back(v); });
          ASSERT_EQ(got, expected[i])
              << to_string(model) << " shards=" << shards
              << " threads=" << threads << " slot=" << i;
          EXPECT_EQ(slot.size(), expected[i].size());
          EXPECT_EQ(slot.repr(), expected[i].size() >= bitmap_min
                                     ? RRRRepr::kBitmap
                                     : RRRRepr::kVector)
              << to_string(model) << " slot=" << i;
        }
        EXPECT_EQ(RRRPoolView(pool).bitmap_count(), expected_bitmaps);
        EXPECT_EQ(counters.snapshot(), expected_counts)
            << to_string(model) << " shards=" << shards
            << " threads=" << threads;
      }
    }
  }
}

TEST(ShardedSampler, FusedRequestOnLTRunsTheScalarStaging) {
  // LT never fuses: a fused request stages exactly the scalar slots
  // (same members, same arena bytes).
  const auto model = DiffusionModel::kLinearThreshold;
  const auto g = small_graph(model, 73);
  constexpr std::uint64_t kSets = 300;
  SegmentedPool scalar(g.num_vertices());
  SegmentedPool fused(g.num_vertices());
  scalar.resize(kSets);
  fused.resize(kSets);
  ShardedConfig config = config_for(model, 2);
  ShardedSampler scalar_sampler(g.reverse, config);
  scalar_sampler.generate(scalar, 0, kSets, nullptr);
  config.fused = true;
  ShardedSampler fused_sampler(g.reverse, config);
  fused_sampler.generate(fused, 0, kSets, nullptr);
  const FlatPool a = RRRPoolView(scalar).flatten();
  const FlatPool b = RRRPoolView(fused).flatten();
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(scalar_sampler.stats().staged_bytes,
            fused_sampler.stats().staged_bytes);
}

std::uint64_t counter_value(const char* name) {
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const obs::MetricValue* metric = snap.find(name);
  return metric != nullptr ? metric->value : 0;
}

TEST(ShardedSampler, FusedKernelCountersAddUpTheTraversals) {
  // sampler.fused.edges_scanned_total / coin_edges_total are the sums of
  // the per-traversal kernel stats, repeat exactly across runs, and do
  // not depend on the shard count.
  const auto model = DiffusionModel::kIndependentCascade;
  const auto g = small_graph(model, 31);
  constexpr std::uint64_t kSets = 150;  // two full blocks + a 22-lane tail
  ShardedConfig config = config_for(model, 1);
  config.fused = true;

  std::uint64_t edges = 0;
  std::uint64_t coin_edges = 0;
  FusedScratch scratch(g.num_vertices());
  for (std::uint64_t block = 0; block * kFusedLanes < kSets; ++block) {
    const auto lane_end = static_cast<unsigned>(
        std::min<std::uint64_t>(kFusedLanes, kSets - block * kFusedLanes));
    const FusedTraversalStats stats =
        sample_rrr_fused(g.reverse, model, config.rng_seed, block, 0,
                         lane_end, scratch);
    EXPECT_LE(stats.coin_edges, stats.edges_scanned);
    edges += stats.edges_scanned;
    coin_edges += stats.coin_edges;
  }
  ASSERT_GT(coin_edges, 0u);

  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  for (const int shards : {1, 3, 1}) {
    config.shards = shards;
    const std::uint64_t edges_before =
        counter_value("sampler.fused.edges_scanned_total");
    const std::uint64_t coins_before =
        counter_value("sampler.fused.coin_edges_total");
    SegmentedPool pool(g.num_vertices());
    pool.resize(kSets);
    ShardedSampler sampler(g.reverse, config);
    sampler.generate(pool, 0, kSets, nullptr);
    EXPECT_EQ(counter_value("sampler.fused.edges_scanned_total") -
                  edges_before,
              edges)
        << "shards=" << shards;
    EXPECT_EQ(counter_value("sampler.fused.coin_edges_total") - coins_before,
              coin_edges)
        << "shards=" << shards;
  }
  obs::set_metrics_enabled(metrics_were_enabled);
}

TEST(ShardedSampler, MergePathReusesArenaChunksAcrossRounds) {
  // Round N+1's merge-path staging must reuse the chunks round N mapped:
  // mapped_bytes plateaus while staged_bytes keeps accumulating, and
  // every merged byte is accounted.
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 61);
  // Two workers, one per shard: every worker stages in BOTH rounds, so
  // the mapped-bytes plateau is deterministic (with more workers than
  // batches, which workers win batches — and thus map chunks — races).
  ThreadCountScope scope(2);
  ShardedSampler sampler(
      g.reverse, config_for(DiffusionModel::kIndependentCascade, 2));
  RRRPool pool(g.num_vertices());

  pool.resize(100);
  sampler.generate(pool, 0, 100, nullptr);
  const ShardStats round1 = sampler.stats();
  ASSERT_GT(round1.staged_bytes, 0u);
  ASSERT_GT(round1.merged_bytes, 0u);
  EXPECT_EQ(round1.merged_bytes, round1.staged_bytes);

  pool.resize(200);
  sampler.generate(pool, 100, 200, nullptr);
  const ShardStats round2 = sampler.stats();
  EXPECT_GT(round2.staged_bytes, round1.staged_bytes);
  EXPECT_EQ(round2.merged_bytes, round2.staged_bytes);
  // Similar round volume → the reused chunks absorb it without mapping
  // a fresh arena set (chunk granularity is far above these payloads).
  EXPECT_EQ(round2.mapped_bytes, round1.mapped_bytes);
}

TEST(ShardedSampler, RejectsInvalidConfigurations) {
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 43);
  ShardedConfig zero_shards =
      config_for(DiffusionModel::kIndependentCascade, 1);
  zero_shards.shards = 0;
  EXPECT_THROW((void)ShardedSampler(g.reverse, zero_shards), CheckError);

  ShardedConfig zero_batch =
      config_for(DiffusionModel::kIndependentCascade, 2);
  zero_batch.batch_size = 0;
  EXPECT_THROW((void)ShardedSampler(g.reverse, zero_batch), CheckError);

  ShardedSampler sampler(
      g.reverse, config_for(DiffusionModel::kIndependentCascade, 2));
  RRRPool pool(g.num_vertices());
  pool.resize(10);
  EXPECT_THROW(sampler.generate(pool, 0, 11, nullptr), CheckError);
}

TEST(ShardedSampler, RejectsMixedHandOffModes) {
  // One sampler, one mode: the cumulative byte accounting is per-mode,
  // so a merge round on a sampler that already served zero-copy (or
  // vice versa) must fail loudly rather than pollute the stats.
  const auto g = small_graph(DiffusionModel::kIndependentCascade, 67);
  const auto config = config_for(DiffusionModel::kIndependentCascade, 2);

  ShardedSampler zero_copy_first(g.reverse, config);
  SegmentedPool segments(g.num_vertices());
  segments.resize(10);
  zero_copy_first.generate(segments, 0, 10, nullptr);
  RRRPool pool(g.num_vertices());
  pool.resize(10);
  EXPECT_THROW(zero_copy_first.generate(pool, 0, 10, nullptr), CheckError);

  ShardedSampler merge_first(g.reverse, config);
  merge_first.generate(pool, 0, 10, nullptr);
  EXPECT_THROW(merge_first.generate(segments, 0, 10, nullptr), CheckError);
}

}  // namespace
}  // namespace eimm
