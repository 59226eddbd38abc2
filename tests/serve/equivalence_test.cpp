// The serving contract: an unconstrained k-query against a store built
// with (workload, seed, epsilon, k) returns the IDENTICAL seed set a
// direct Engine::kEfficient run produces — freezing the sketches loses
// nothing.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/imm.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

ImmOptions smoke_options(DiffusionModel model, std::size_t k,
                         std::uint64_t seed) {
  ImmOptions options;
  options.k = k;
  options.epsilon = 0.5;
  options.model = model;
  options.rng_seed = seed;
  options.max_rrr_sets = 8192;
  return options;
}

void expect_query_equals_direct_run(const std::string& workload,
                                    DiffusionModel model, std::size_t k,
                                    std::uint64_t seed) {
  const DiffusionGraph graph =
      make_workload_with_weights(workload, model, 0.01, seed);
  const ImmOptions options = smoke_options(model, k, seed);

  const ImmResult direct = run_efficient_imm(graph, options);
  const SketchStore store = SketchStore::build(graph, options, workload);
  const QueryEngine engine(store);
  const QueryResult served = engine.top_k(k);

  EXPECT_EQ(served.seeds, direct.seeds) << workload;
  EXPECT_EQ(store.num_sketches(), direct.num_rrr_sets) << workload;
  EXPECT_EQ(store.meta().theta, direct.theta) << workload;
  EXPECT_EQ(store.meta().theta_capped, direct.theta_capped) << workload;
  EXPECT_DOUBLE_EQ(served.coverage_fraction(), direct.coverage_fraction)
      << workload;
  EXPECT_DOUBLE_EQ(served.estimated_spread, direct.estimated_spread)
      << workload;

  // The live kernel agrees with the cached sequence as well.
  QueryOptions q;
  q.k = k;
  EXPECT_EQ(engine.select(q).seeds, direct.seeds) << workload;
}

TEST(ServeEquivalence, IndependentCascadeMatchesDirectRun) {
  expect_query_equals_direct_run(
      "com-Amazon", DiffusionModel::kIndependentCascade, 8, 0x5EEDBA5Eu);
}

TEST(ServeEquivalence, LinearThresholdMatchesDirectRun) {
  expect_query_equals_direct_run(
      "com-DBLP", DiffusionModel::kLinearThreshold, 6, 1234);
}

TEST(ServeEquivalence, SecondWorkloadAndSeedMatchesDirectRun) {
  expect_query_equals_direct_run(
      "com-YouTube", DiffusionModel::kIndependentCascade, 5, 987654321);
}

TEST(ServeEquivalence, SmallerQueriesArePrefixesOfTheDirectRun) {
  const DiffusionGraph graph = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  const ImmOptions options =
      smoke_options(DiffusionModel::kIndependentCascade, 8, 0x5EEDBA5Eu);

  const ImmResult direct = run_efficient_imm(graph, options);
  const SketchStore store = SketchStore::build(graph, options);
  const QueryEngine engine(store);
  for (std::size_t k = 1; k <= direct.seeds.size(); ++k) {
    const QueryResult served = engine.top_k(k);
    ASSERT_EQ(served.seeds.size(), k);
    EXPECT_TRUE(std::equal(served.seeds.begin(), served.seeds.end(),
                           direct.seeds.begin()))
        << "k=" << k;
  }
}

TEST(ServeEquivalence, BuildIsDeterministicAcrossThreadCounts) {
  // The saved snapshot — the flat image the build froze plus the derived
  // arrays — is byte-identical whatever thread and shard count built it.
  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    const DiffusionGraph graph =
        make_workload_with_weights("com-DBLP", model, 0.01);
    ImmOptions options = smoke_options(model, 6, 42);
    std::string reference;
    for (const int threads : {1, 4}) {
      for (const int shards : {1, 3}) {
        options.threads = threads;
        options.shards = shards;
        std::stringstream saved;
        SketchStore::build(graph, options).save(saved);
        if (reference.empty()) {
          reference = saved.str();
          continue;
        }
        EXPECT_TRUE(saved.str() == reference)
            << to_string(model) << " threads=" << threads
            << " shards=" << shards;
      }
    }
  }
}

}  // namespace
}  // namespace eimm
