#include "serve/sketch_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "seedselect/select.hpp"
#include "support/macros.hpp"
#include "test_util.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

TEST(SketchStore, FreezesHandBuiltPoolIntoCsrLayout) {
  const RRRPool pool =
      testing::make_pool(5, {{0, 1}, {1, 2}, {3}, {1}});
  const SketchStore store = SketchStore::from_pool(pool, 3);

  EXPECT_EQ(store.num_vertices(), 5u);
  EXPECT_EQ(store.num_sketches(), 4u);
  EXPECT_EQ(store.k_max(), 3u);

  ASSERT_EQ(store.sketch(0).size(), 2u);
  EXPECT_EQ(store.sketch(0)[0], 0u);
  EXPECT_EQ(store.sketch(0)[1], 1u);
  ASSERT_EQ(store.sketch(2).size(), 1u);
  EXPECT_EQ(store.sketch(2)[0], 3u);

  // Inverted index: vertex 1 appears in sketches 0, 1, 3 (ascending).
  const auto covering = store.covering(1);
  ASSERT_EQ(covering.size(), 3u);
  EXPECT_EQ(covering[0], 0u);
  EXPECT_EQ(covering[1], 1u);
  EXPECT_EQ(covering[2], 3u);
  EXPECT_EQ(store.covering(4).size(), 0u);

  // Degrees are exactly the initial Algorithm 2 counters.
  EXPECT_EQ(store.degree(0), 1u);
  EXPECT_EQ(store.degree(1), 3u);
  EXPECT_EQ(store.degree(2), 1u);
  EXPECT_EQ(store.degree(3), 1u);
  EXPECT_EQ(store.degree(4), 0u);
}

TEST(SketchStore, InvertedIndexMatchesMembershipOnSampledPool) {
  const DiffusionGraph g = make_workload_with_weights(
      "com-DBLP", DiffusionModel::kIndependentCascade, 0.01);
  const RRRPool pool = testing::sample_pool(
      g, DiffusionModel::kIndependentCascade, 200, 99, /*adaptive=*/true);
  const SketchStore store = SketchStore::from_pool(pool, 5);

  for (VertexId v = 0; v < store.num_vertices(); ++v) {
    std::vector<SketchId> expected;
    for (std::size_t s = 0; s < pool.size(); ++s) {
      if (pool[s].contains(v)) expected.push_back(static_cast<SketchId>(s));
    }
    const auto covering = store.covering(v);
    ASSERT_EQ(covering.size(), expected.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(covering.begin(), covering.end(),
                           expected.begin()))
        << "vertex " << v;
  }
}

TEST(SketchStore, SketchesRoundTripBitmapRepresentation) {
  // A dense set crosses the bitmap threshold; flatten must expand it back
  // to the identical sorted vertex run.
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  const RRRPool pool = testing::sample_pool(
      g, DiffusionModel::kIndependentCascade, 100, 7, /*adaptive=*/true);
  ASSERT_GT(pool.bitmap_count(), 0u) << "test needs at least one bitmap set";
  const SketchStore store = SketchStore::from_pool(pool, 5);

  for (std::size_t s = 0; s < pool.size(); ++s) {
    const std::vector<VertexId> expected = pool[s].to_vector();
    const auto actual = store.sketch(static_cast<SketchId>(s));
    ASSERT_EQ(actual.size(), expected.size()) << "sketch " << s;
    EXPECT_TRUE(std::equal(actual.begin(), actual.end(), expected.begin()))
        << "sketch " << s;
  }
}

TEST(SketchStore, DefaultSequenceMatchesEfficientSelect) {
  const DiffusionGraph g = make_workload_with_weights(
      "com-YouTube", DiffusionModel::kLinearThreshold, 0.01);
  const RRRPool pool = testing::sample_pool(
      g, DiffusionModel::kLinearThreshold, 300, 1234);
  const std::size_t k = 8;
  const SketchStore store = SketchStore::from_pool(pool, k);

  CounterArray counters(pool.num_vertices());
  SelectionOptions sopt;
  sopt.k = k;
  const SelectionResult direct = efficient_select(pool, counters, sopt);

  EXPECT_TRUE(std::ranges::equal(store.default_seeds(), direct.seeds));
  EXPECT_TRUE(
      std::ranges::equal(store.default_marginals(), direct.marginal_coverage));
}

TEST(SketchStore, BuildRecordsProvenance) {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options;
  options.k = 4;
  options.rng_seed = 77;
  options.epsilon = 0.6;
  options.max_rrr_sets = 4096;
  const SketchStore store = SketchStore::build(g, options, "amazon-smoke");

  EXPECT_EQ(store.meta().workload, "amazon-smoke");
  EXPECT_EQ(store.meta().model, "IC");
  EXPECT_EQ(store.meta().rng_seed, 77u);
  EXPECT_DOUBLE_EQ(store.meta().epsilon, 0.6);
  EXPECT_GT(store.meta().theta, 0u);
  EXPECT_GT(store.num_sketches(), 0u);
  EXPECT_EQ(store.k_max(), 4u);
  EXPECT_GT(store.memory_bytes(), 0u);
}

TEST(SketchStore, RejectsDegeneratePools) {
  const RRRPool pool = testing::make_pool(3, {{0}});
  EXPECT_THROW(SketchStore::from_pool(pool, 0), CheckError);
  const RRRPool empty_vertices(0);
  EXPECT_THROW(SketchStore::from_pool(empty_vertices, 1), CheckError);
}

// --- Freeze-at-build semantics ---

ImmOptions freeze_options() {
  ImmOptions options;
  options.k = 5;
  options.rng_seed = 4242;
  options.max_rrr_sets = 4096;
  return options;
}

TEST(SketchStore, BuildDefersFlattenUntilSave) {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  const ImmOptions options = freeze_options();
  const SketchStore store = SketchStore::build(g, options, "deferred");
  EXPECT_GT(store.num_sketches(), 0u);

  // The built store must be logically identical to the from_pool freeze
  // of the same build's sets held as sorted vectors.
  const PoolBuild reference_build =
      build_rrr_pool(g, options, Engine::kEfficient);
  RRRPool reference(g.num_vertices());
  reference.resize(reference_build.size());
  {
    const FlatPool flat = reference_build.view().flatten();
    for (std::size_t s = 0; s < reference.size(); ++s) {
      reference[s] = RRRSet::make_vector(std::vector<VertexId>(
          flat.vertices.begin() +
              static_cast<std::ptrdiff_t>(flat.offsets[s]),
          flat.vertices.begin() +
              static_cast<std::ptrdiff_t>(flat.offsets[s + 1])));
    }
  }
  SketchStoreMeta meta = store.meta();
  const SketchStore eager =
      SketchStore::from_pool(reference, options.k, std::move(meta));
  EXPECT_TRUE(store == eager);
  EXPECT_TRUE(
      std::ranges::equal(store.default_seeds(), eager.default_seeds()));
}

TEST(SketchStore, DeferredStoreSavesAndMaterializesIdentically) {
  const DiffusionGraph g = make_workload_with_weights(
      "com-DBLP", DiffusionModel::kIndependentCascade, 0.01);
  const SketchStore store = SketchStore::build(g, freeze_options(), "dblp");

  std::stringstream ss;
  store.save(ss);
  const SketchStore loaded = SketchStore::load(ss);
  EXPECT_TRUE(store == loaded);

  // A second save of the same store produces the identical byte stream.
  std::stringstream again;
  store.save(again);
  EXPECT_EQ(ss.str(), again.str());
}

TEST(SketchStore, FromBuildAdoptsSegmentedStorageZeroCopy) {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options = freeze_options();
  options.shards = 3;  // force the SegmentedPool backing
  const PoolBuild build = build_rrr_pool(g, options, Engine::kEfficient);
  ASSERT_TRUE(build.segmented);
  const FlatPool expected = build.view().flatten();

  // A SegmentedPool freezes through the same view an RRRPool does.
  const SketchStore store = SketchStore::from_pool(build.view(), options.k);
  ASSERT_EQ(store.num_sketches(), expected.offsets.size() - 1);
  for (std::uint64_t s = 0; s < store.num_sketches(); ++s) {
    const auto actual = store.sketch(static_cast<SketchId>(s));
    ASSERT_EQ(actual.size(), expected.offsets[s + 1] - expected.offsets[s]);
    EXPECT_TRUE(std::equal(
        actual.begin(), actual.end(),
        expected.vertices.begin() +
            static_cast<std::ptrdiff_t>(expected.offsets[s])));
  }
}

TEST(SketchStore, BuiltStoreHoldsNoBuildStorage) {
  // build() releases the pool it sampled: the store it returns costs
  // exactly what a from_pool freeze of the same pool does — the flat
  // image and the derived arrays, no pool and no per-sketch pointers.
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  const ImmOptions options = freeze_options();
  const SketchStore built = SketchStore::build(g, options);
  const PoolBuild build = build_rrr_pool(g, options, Engine::kEfficient);
  ASSERT_GT(build.view().bitmap_count(), 0u)
      << "workload produced no bitmap slots";
  const SketchStore frozen =
      SketchStore::from_pool(build.view(), options.k, built.meta());
  EXPECT_TRUE(built == frozen);
  EXPECT_EQ(built.memory_bytes(), frozen.memory_bytes());
}

}  // namespace
}  // namespace eimm
