// Property-style cross-validation: the EfficientIMM kernel and the
// Ripples baseline kernel implement the SAME mathematical greedy
// max-coverage, so on any pool they must return identical seeds,
// marginals, and coverage — across models, graph families, thread
// counts, and representations. This is the strongest guard against a
// "fast but different" regression in either kernel.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "runtime/thread_info.hpp"
#include "seedselect/select.hpp"
#include "test_util.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

struct EquivalenceCase {
  std::string workload;
  DiffusionModel model;
  int threads;
  bool adaptive_repr;
};

// Without this gtest prints the raw bytes of the case, which start with
// the string's heap pointer and so change from build to build; ctest
// names the discovered tests after that printout.
void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << c.workload << '/' << to_string(c.model) << "/t" << c.threads
      << (c.adaptive_repr ? "/adaptive" : "/vector");
}

class KernelEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(KernelEquivalence, SameSeedsSameCoverage) {
  const auto& param = GetParam();
  const DiffusionGraph g = make_workload_with_weights(
      param.workload, param.model, /*scale=*/0.02, /*seed=*/11);
  const RRRPool pool = testing::sample_pool(g, param.model, 200, 123,
                                            param.adaptive_repr);

  ThreadCountScope scope(param.threads);
  SelectionOptions options;
  options.k = 8;

  CounterArray counters(pool.num_vertices());
  const auto efficient = efficient_select(pool, counters, options);
  const auto baseline = ripples_select(pool, options);

  EXPECT_EQ(efficient.seeds, baseline.seeds);
  EXPECT_EQ(efficient.marginal_coverage, baseline.marginal_coverage);
  EXPECT_EQ(efficient.covered_sets, baseline.covered_sets);
  EXPECT_EQ(efficient.total_sets, baseline.total_sets);

  // Third corner of the cross-validation: the NUMA-sharded counter
  // layout must agree with BOTH kernels on the same pool.
  ShardedCounterArray sharded(pool.num_vertices(), 4);
  const auto sharded_result =
      efficient_select_t<NullMem, ShardedCounterArray>(pool, sharded,
                                                       options);
  EXPECT_EQ(sharded_result.seeds, baseline.seeds);
  EXPECT_EQ(sharded_result.marginal_coverage, baseline.marginal_coverage);
  EXPECT_EQ(sharded_result.covered_sets, baseline.covered_sets);
}

std::string case_name(const ::testing::TestParamInfo<EquivalenceCase>& info) {
  std::string name = info.param.workload + "_" +
                     std::string(to_string(info.param.model)) + "_t" +
                     std::to_string(info.param.threads) +
                     (info.param.adaptive_repr ? "_adaptive" : "_vector");
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AcrossWorkloadsModelsThreads, KernelEquivalence,
    ::testing::Values(
        EquivalenceCase{"com-Amazon", DiffusionModel::kIndependentCascade, 1, false},
        EquivalenceCase{"com-Amazon", DiffusionModel::kIndependentCascade, 4, true},
        EquivalenceCase{"com-YouTube", DiffusionModel::kIndependentCascade, 2, false},
        EquivalenceCase{"com-YouTube", DiffusionModel::kLinearThreshold, 4, false},
        EquivalenceCase{"com-DBLP", DiffusionModel::kLinearThreshold, 2, true},
        EquivalenceCase{"as-Skitter", DiffusionModel::kIndependentCascade, 4, false},
        EquivalenceCase{"web-Google", DiffusionModel::kIndependentCascade, 8, true},
        EquivalenceCase{"web-Google", DiffusionModel::kLinearThreshold, 1, false},
        EquivalenceCase{"soc-Pokec", DiffusionModel::kLinearThreshold, 8, false},
        EquivalenceCase{"com-LJ", DiffusionModel::kIndependentCascade, 2, true}),
    case_name);

// Thread-count sweep on one pool: efficient kernel output must not
// depend on the number of threads at all.
class ThreadInvariance : public ::testing::TestWithParam<int> {};

TEST_P(ThreadInvariance, EfficientSelectIsThreadCountInvariant) {
  const DiffusionGraph g = make_workload_with_weights(
      "com-YouTube", DiffusionModel::kIndependentCascade, 0.02, 3);
  const RRRPool pool =
      testing::sample_pool(g, DiffusionModel::kIndependentCascade, 300, 9);

  SelectionOptions options;
  options.k = 10;

  std::vector<VertexId> reference;
  {
    ThreadCountScope scope(1);
    CounterArray counters(pool.num_vertices());
    reference = efficient_select(pool, counters, options).seeds;
  }
  {
    ThreadCountScope scope(GetParam());
    CounterArray counters(pool.num_vertices());
    EXPECT_EQ(efficient_select(pool, counters, options).seeds, reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadInvariance,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

}  // namespace
}  // namespace eimm
