#include "cachesim/harness.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

RRRPool dense_pool() {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.02, 5);
  return testing::sample_pool(g, DiffusionModel::kIndependentCascade, 150,
                              77);
}

TEST(TracedSelection, SeedsMatchUntracedKernels) {
  const RRRPool pool = dense_pool();
  SelectionOptions options;
  options.k = 5;
  options.dynamic_balance = false;
  CounterArray counters(pool.num_vertices());
  const auto untraced = efficient_select(pool, counters, options);

  const auto traced =
      run_traced_selection(Engine::kEfficient, pool, 5, /*threads=*/2);
  EXPECT_EQ(traced.selection.seeds, untraced.seeds);
}

TEST(TracedSelection, SparsePoolTracesTheIndexAndHeapProductionRuns) {
  // Small LT sets keep the top counts under the θ/8 budget, so the
  // traced kernel fills the hot-vertex index and walks it, as the
  // production kernel does on the same pool.
  const DiffusionGraph g = make_workload_with_weights(
      "as-Skitter", DiffusionModel::kLinearThreshold, 0.2, 17);
  const RRRPool pool = testing::sample_pool(
      g, DiffusionModel::kLinearThreshold, 4000, 99);
  SelectionOptions options;
  options.k = 20;
  options.dynamic_balance = false;
  CounterArray counters(pool.num_vertices());
  const auto untraced = efficient_select(pool, counters, options);
  ASSERT_GT(untraced.indexed_rounds, 0u);
  for (const int threads : {1, 3}) {
    const auto traced =
        run_traced_selection(Engine::kEfficient, pool, 20, threads);
    EXPECT_EQ(traced.selection.seeds, untraced.seeds) << threads;
    EXPECT_EQ(traced.selection.marginal_coverage, untraced.marginal_coverage);
    EXPECT_EQ(traced.selection.indexed_rounds, untraced.indexed_rounds);
    EXPECT_GT(traced.cache.accesses, 0u);
  }
}

TEST(TracedSelection, RipplesSeedsMatchToo) {
  const RRRPool pool = dense_pool();
  SelectionOptions options;
  options.k = 5;
  const auto untraced = ripples_select(pool, options);
  const auto traced =
      run_traced_selection(Engine::kRipples, pool, 5, /*threads=*/2);
  EXPECT_EQ(traced.selection.seeds, untraced.seeds);
}

TEST(TracedSelection, RecordsAccesses) {
  const RRRPool pool = dense_pool();
  const auto report =
      run_traced_selection(Engine::kEfficient, pool, 3, /*threads=*/1);
  EXPECT_GT(report.cache.accesses, 0u);
  EXPECT_GT(report.cache.l1_misses, 0u);
  EXPECT_LE(report.cache.l2_misses, report.cache.l1_misses);
  EXPECT_GE(report.traced_threads, 1u);
}

TEST(TracedSelection, RipplesTrafficGrowsWithThreads) {
  // The baseline's defining pathology (Challenge 1): every thread scans
  // every RRR set and binary-searches its vertex range, so the probe
  // traffic replicates with the thread count (the member walks stay
  // partitioned, so total access growth is sublinear but must be real).
  const RRRPool pool = dense_pool();
  const auto t1 = run_traced_selection(Engine::kRipples, pool, 3, 1);
  const auto t4 = run_traced_selection(Engine::kRipples, pool, 3, 4);
  EXPECT_GT(t4.cache.accesses, t1.cache.accesses);
  // The efficient kernel has no such replication: its t4/t1 access ratio
  // must be strictly smaller than the baseline's.
  const auto e1 = run_traced_selection(Engine::kEfficient, pool, 3, 1);
  const auto e4 = run_traced_selection(Engine::kEfficient, pool, 3, 4);
  const double ripples_growth = static_cast<double>(t4.cache.accesses) /
                                static_cast<double>(t1.cache.accesses);
  const double efficient_growth = static_cast<double>(e4.cache.accesses) /
                                  static_cast<double>(e1.cache.accesses);
  EXPECT_LT(efficient_growth, ripples_growth);
}

TEST(TracedSelection, EfficientTrafficRoughlyThreadInvariant) {
  const RRRPool pool = dense_pool();
  const auto t1 = run_traced_selection(Engine::kEfficient, pool, 3, 1);
  const auto t4 = run_traced_selection(Engine::kEfficient, pool, 3, 4);
  // RRR-set partitioning: total work is split, not replicated. Allow a
  // generous factor for the per-round survey/argmax overheads.
  EXPECT_LT(static_cast<double>(t4.cache.accesses),
            1.5 * static_cast<double>(t1.cache.accesses));
}

TEST(TracedSelection, EfficientBeatsRipplesOnMisses) {
  // The Table IV headline at test scale: with several threads, the
  // RRR-partitioned kernel must take far fewer L1+L2 misses.
  const RRRPool pool = dense_pool();
  const auto efficient =
      run_traced_selection(Engine::kEfficient, pool, 5, 4);
  const auto ripples = run_traced_selection(Engine::kRipples, pool, 5, 4);
  EXPECT_LT(efficient.cache.l1_plus_l2_misses(),
            ripples.cache.l1_plus_l2_misses());
}

TEST(TraceSession, NestedSessionsRejected) {
  TraceSession outer;
  EXPECT_THROW(TraceSession inner, CheckError);
}

TEST(TraceMem, TouchOutsideSessionIsNoop) {
  int x = 0;
  TraceMem::touch(&x, sizeof x);  // must not crash
  SUCCEED();
}

}  // namespace
}  // namespace eimm
