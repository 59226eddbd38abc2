// SelectionEngine routing coverage: the engine must reproduce the legacy
// kernels bit for bit across counter-shard counts and pin modes, honour
// the prebuilt-counter (kernel fusion) hand-off, and serve the store
// kernel with the same tie-breaks as the pool kernels.
#include "seedselect/engine.hpp"

#include <gtest/gtest.h>

#include "core/imm.hpp"
#include "obs/metrics.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "test_util.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

RRRPool make_pool(std::size_t sets = 250) {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.02, 17);
  return testing::sample_pool(g, DiffusionModel::kIndependentCascade,
                              sets, 777, /*adaptive=*/true);
}

TEST(SelectionEngine, ResolvesExplicitShardAndPinConfig) {
  SelectionEngineConfig config;
  config.counter_shards = 5;
  config.pin = PinMode::kNone;
  const SelectionEngine engine(config);
  EXPECT_EQ(engine.counter_shards(), 5);
  EXPECT_EQ(engine.pin_mode(), PinMode::kNone);
}

TEST(SelectionEngine, MatchesLegacyKernelForEveryShardCount) {
  const RRRPool pool = make_pool();
  SelectionOptions options;
  options.k = 10;

  CounterArray counters(pool.num_vertices());
  const auto legacy = efficient_select(pool, counters, options);

  for (const int shards : {1, 2, 3, 8}) {
    SelectionEngineConfig config;
    config.counter_shards = shards;
    config.pin = PinMode::kNone;
    const SelectionEngine engine(config);
    const auto result =
        engine.select(SelectionKernel::kEfficient, pool, options);
    EXPECT_EQ(result.seeds, legacy.seeds) << shards << " shards";
    EXPECT_EQ(result.marginal_coverage, legacy.marginal_coverage)
        << shards << " shards";
    EXPECT_EQ(result.covered_sets, legacy.covered_sets)
        << shards << " shards";
  }
}

TEST(SelectionEngine, PinModeNeverChangesTheSeeds) {
  const RRRPool pool = make_pool();
  SelectionOptions options;
  options.k = 8;

  CounterArray counters(pool.num_vertices());
  const auto legacy = efficient_select(pool, counters, options);

  for (const PinMode pin :
       {PinMode::kNone, PinMode::kAuto, PinMode::kCompact,
        PinMode::kSpread}) {
    SelectionEngineConfig config;
    config.counter_shards = 2;
    config.pin = pin;
    const SelectionEngine engine(config);
    const auto result =
        engine.select(SelectionKernel::kEfficient, pool, options);
    EXPECT_EQ(result.seeds, legacy.seeds)
        << "pin=" << to_string(pin);
  }
}

TEST(SelectionEngine, RipplesKernelRoutesThrough) {
  const RRRPool pool = make_pool();
  SelectionOptions options;
  options.k = 6;
  const auto legacy = ripples_select(pool, options);
  SelectionEngineConfig config;
  config.pin = PinMode::kNone;
  const SelectionEngine engine(config);
  const auto result =
      engine.select(SelectionKernel::kRipples, pool, options);
  EXPECT_EQ(result.seeds, legacy.seeds);
  EXPECT_EQ(result.covered_sets, legacy.covered_sets);
}

TEST(SelectionEngine, PrebuiltBaseSkipsTheInitialBuild) {
  // Build the fused base by hand, then check the engine's prebuilt path
  // matches a from-scratch selection for both counter layouts.
  const RRRPool pool = make_pool();
  CounterArray base(pool.num_vertices());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].for_each([&](VertexId v) { base.increment(v); });
  }

  SelectionOptions options;
  options.k = 10;
  CounterArray scratch(pool.num_vertices());
  const auto reference = efficient_select(pool, scratch, options);

  for (const int shards : {1, 4}) {
    SelectionEngineConfig config;
    config.counter_shards = shards;
    config.pin = PinMode::kNone;
    const SelectionEngine engine(config);
    const auto result =
        engine.select(SelectionKernel::kEfficient, pool, options, &base);
    EXPECT_EQ(result.seeds, reference.seeds) << shards << " shards";
    EXPECT_EQ(result.covered_sets, reference.covered_sets)
        << shards << " shards";
  }
  // The base must survive the selection untouched (core/imm reuses it
  // across martingale rounds).
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) total += pool[i].size();
  EXPECT_EQ(base.total(), total);
}

std::uint64_t counter_value(const char* name) {
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const obs::MetricValue* metric = snap.find(name);
  return metric != nullptr ? metric->value : 0;
}

TEST(SelectionEngine, CountsIndexedScannedAndRebuiltRounds) {
  // A sparse LT pool: small sets, so the hot-vertex index fits the θ/8
  // budget and the early picks walk it.
  const DiffusionGraph g = make_workload_with_weights(
      "as-Skitter", DiffusionModel::kLinearThreshold, 0.2, 17);
  const RRRPool pool = testing::sample_pool(
      g, DiffusionModel::kLinearThreshold, 4000, 99);
  SelectionEngineConfig config;
  config.pin = PinMode::kNone;
  const SelectionEngine engine(config);
  SelectionOptions options;
  options.k = 20;

  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const char* names[] = {"selection.rounds_indexed",
                         "selection.rounds_scanned",
                         "selection.rounds_rebuilt"};
  for (const SelectionKernel kernel :
       {SelectionKernel::kEfficient, SelectionKernel::kRipples}) {
    std::uint64_t before[3];
    for (int i = 0; i < 3; ++i) before[i] = counter_value(names[i]);
    const SelectionResult r = engine.select(kernel, pool, options);
    std::uint64_t delta[3];
    for (int i = 0; i < 3; ++i) delta[i] = counter_value(names[i]) - before[i];
    EXPECT_EQ(delta[0], r.indexed_rounds);
    EXPECT_EQ(delta[2], r.rebuild_rounds);
    EXPECT_EQ(delta[0] + delta[1] + delta[2], r.seeds.size());
    if (kernel == SelectionKernel::kEfficient) {
      EXPECT_GT(r.indexed_rounds, 0u);
    } else {
      EXPECT_EQ(delta[1], r.seeds.size());  // every Ripples round scans
    }
  }
  obs::set_metrics_enabled(metrics_were_enabled);
}

TEST(SelectionEngine, StoreKernelMatchesPoolKernel) {
  // An unconstrained store query must reproduce the pool kernel's seed
  // sequence — the engine owns both, so this locks their tie-breaks
  // together.
  const RRRPool pool = make_pool(300);
  SelectionOptions options;
  options.k = 8;
  CounterArray counters(pool.num_vertices());
  const auto direct = efficient_select(pool, counters, options);

  const SketchStore store = SketchStore::from_pool(pool, 8, {});
  QueryOptions query;
  query.k = 8;
  const QueryResult one_shot = select_from_store(store, query);
  EXPECT_EQ(one_shot.seeds, direct.seeds);
  EXPECT_EQ(one_shot.marginal_coverage, direct.marginal_coverage);

  // And the serving engine, which streams its epoch's degree order
  // through the same kernel.
  const QueryResult via_serve = QueryEngine(store).select(query);
  EXPECT_EQ(via_serve.seeds, one_shot.seeds);
}

TEST(SelectionEngine, StoreKernelValidatesArguments) {
  const RRRPool pool = make_pool(50);
  const SketchStore store = SketchStore::from_pool(pool, 4, {});
  QueryOptions query;
  query.k = 0;
  EXPECT_THROW(select_from_store(store, query), CheckError);
  query.k = 5;  // exceeds k_max
  EXPECT_THROW(select_from_store(store, query), CheckError);
  query.k = 2;
  query.forbidden = {store.num_vertices()};
  EXPECT_THROW(select_from_store(store, query), CheckError);
  query.forbidden.clear();
  query.candidates = {store.num_vertices() + 5};
  EXPECT_THROW(select_from_store(store, query), CheckError);
}

}  // namespace
}  // namespace eimm
