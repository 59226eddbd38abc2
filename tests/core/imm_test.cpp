#include "core/imm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "diffusion/weights.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

ImmOptions small_options(DiffusionModel model, std::size_t k = 5) {
  ImmOptions opt;
  opt.k = k;
  opt.epsilon = 0.5;
  opt.model = model;
  opt.rng_seed = 2024;
  opt.max_rrr_sets = 200'000;
  return opt;
}

TEST(RunImm, StarHubIsFirstSeed) {
  // Star 0 -> {1..n-1} with weighted-cascade weights: every leaf has
  // in-degree 1, so p(hub, leaf) = 1 and every RRR set contains the hub.
  auto g = testing::make_graph(gen_star(64));
  assign_ic_weights_weighted_cascade(g.reverse);
  mirror_weights_to_forward(g.reverse, g.forward);
  const auto result = run_efficient_imm(
      g, small_options(DiffusionModel::kIndependentCascade, 3));
  ASSERT_FALSE(result.seeds.empty());
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_DOUBLE_EQ(result.coverage_fraction, 1.0);
}

TEST(RunImm, SeedsAreDistinctAndInRange) {
  const auto g = testing::make_weighted_graph(
      gen_erdos_renyi(500, 3000, 7), DiffusionModel::kIndependentCascade);
  const auto result = run_efficient_imm(
      g, small_options(DiffusionModel::kIndependentCascade, 10));
  EXPECT_EQ(result.seeds.size(), 10u);
  std::set<VertexId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), result.seeds.size());
  for (const VertexId s : result.seeds) EXPECT_LT(s, 500u);
}

TEST(RunImm, ResultFieldsAreConsistent) {
  const auto g = testing::make_weighted_graph(
      gen_erdos_renyi(300, 1800, 9), DiffusionModel::kIndependentCascade);
  const auto result = run_efficient_imm(
      g, small_options(DiffusionModel::kIndependentCascade));
  EXPECT_GE(result.coverage_fraction, 0.0);
  EXPECT_LE(result.coverage_fraction, 1.0);
  EXPECT_NEAR(result.estimated_spread, 300.0 * result.coverage_fraction,
              1e-9);
  EXPECT_GT(result.num_rrr_sets, 0u);
  EXPECT_TRUE(result.theta_capped || result.num_rrr_sets >= result.theta);
  EXPECT_GT(result.rrr_memory_bytes, 0u);
  EXPECT_GE(result.breakdown.total_seconds,
            result.breakdown.sampling_seconds);
  EXPECT_GE(result.breakdown.sampling_seconds, 0.0);
  EXPECT_GE(result.breakdown.selection_seconds, 0.0);
  EXPECT_GT(result.threads_used, 0);
}

TEST(RunImm, LinearThresholdModelRuns) {
  const auto g = testing::make_weighted_graph(
      gen_erdos_renyi(400, 2400, 21), DiffusionModel::kLinearThreshold);
  const auto result = run_efficient_imm(
      g, small_options(DiffusionModel::kLinearThreshold));
  EXPECT_EQ(result.seeds.size(), 5u);
  EXPECT_GT(result.num_rrr_sets, 0u);
}

TEST(RunImm, FusedSamplingIsReportedOnlyWhenICRanFused) {
  // Fusion serves IC only: an LT run asked for kOn samples scalar and
  // must say so, with the very seeds its kOff run selects.
  const auto lt = testing::make_weighted_graph(
      gen_erdos_renyi(400, 2400, 21), DiffusionModel::kLinearThreshold);
  auto opt = small_options(DiffusionModel::kLinearThreshold);
  opt.fused_sampling = FusedSampling::kOn;
  const auto lt_on = run_efficient_imm(lt, opt);
  EXPECT_FALSE(lt_on.fused_sampling_used);
  opt.fused_sampling = FusedSampling::kOff;
  const auto lt_off = run_efficient_imm(lt, opt);
  EXPECT_FALSE(lt_off.fused_sampling_used);
  EXPECT_EQ(lt_on.seeds, lt_off.seeds);

  const auto ic = testing::make_weighted_graph(
      gen_erdos_renyi(400, 2400, 21), DiffusionModel::kIndependentCascade);
  auto ic_opt = small_options(DiffusionModel::kIndependentCascade);
  ic_opt.fused_sampling = FusedSampling::kOn;
  EXPECT_TRUE(run_efficient_imm(ic, ic_opt).fused_sampling_used);
  EXPECT_FALSE(run_baseline_imm(ic, ic_opt).fused_sampling_used);
}

TEST(RunImm, BaselineAndEfficientReturnIdenticalSeeds) {
  // Same RNG streams + deterministic tie-breaks => both engines must
  // produce the same seed set; only their execution strategy differs.
  // Scalar sampling on the efficient side: fused IC is only
  // statistically equivalent (statcheck covers the default).
  const auto g = testing::make_weighted_graph(
      gen_barabasi_albert(400, 2, 31), DiffusionModel::kIndependentCascade);
  auto opt = small_options(DiffusionModel::kIndependentCascade, 8);
  opt.fused_sampling = FusedSampling::kOff;
  const auto efficient = run_efficient_imm(g, opt);
  const auto baseline = run_baseline_imm(g, opt);
  EXPECT_EQ(efficient.seeds, baseline.seeds);
  EXPECT_DOUBLE_EQ(efficient.coverage_fraction, baseline.coverage_fraction);
  EXPECT_EQ(efficient.num_rrr_sets, baseline.num_rrr_sets);
}

TEST(RunImm, FeatureFlagsDoNotChangeSeeds) {
  const auto g = testing::make_weighted_graph(
      gen_erdos_renyi(300, 2000, 41), DiffusionModel::kIndependentCascade);
  auto opt = small_options(DiffusionModel::kIndependentCascade, 6);
  const auto reference = run_efficient_imm(g, opt).seeds;

  for (const auto flag_setter :
       {+[](ImmOptions& o) { o.kernel_fusion = false; },
        +[](ImmOptions& o) { o.adaptive_representation = false; },
        +[](ImmOptions& o) { o.adaptive_update = false; },
        +[](ImmOptions& o) { o.dynamic_balance = false; },
        +[](ImmOptions& o) { o.numa_aware = false; }}) {
    auto variant = opt;
    flag_setter(variant);
    EXPECT_EQ(run_efficient_imm(g, variant).seeds, reference);
  }
}

TEST(RunImm, ThetaCapFlagged) {
  const auto g = testing::make_weighted_graph(
      gen_erdos_renyi(300, 1200, 3), DiffusionModel::kLinearThreshold);
  auto opt = small_options(DiffusionModel::kLinearThreshold);
  opt.max_rrr_sets = 100;  // absurdly low: must cap and flag
  const auto result = run_efficient_imm(g, opt);
  EXPECT_TRUE(result.theta_capped);
  EXPECT_EQ(result.num_rrr_sets, 100u);
}

TEST(RunImm, AdaptiveRepresentationProducesBitmapsOnDenseGraphs) {
  // Watts-Strogatz with p=1 cascade behaviour: sets cover big chunks, so
  // some must cross the bitmap threshold.
  auto g = testing::make_graph(gen_watts_strogatz(1000, 3, 0.1, 13));
  testing::set_uniform_probability(g, 0.9f);
  auto opt = small_options(DiffusionModel::kIndependentCascade, 4);
  const auto result = run_efficient_imm(g, opt);
  EXPECT_GT(result.bitmap_sets, 0u);
  EXPECT_LE(result.bitmap_sets, result.num_rrr_sets);
}

TEST(RunImm, RequiresWeights) {
  auto g = DiffusionGraph::from_forward(CSRGraph({0, 1, 1}, {1}));
  EXPECT_THROW(
      run_efficient_imm(g, small_options(DiffusionModel::kIndependentCascade)),
      CheckError);
}

TEST(RunImm, TinyGraphGuard) {
  auto g = DiffusionGraph::from_forward(CSRGraph({0, 0}, {}));
  g.reverse.ensure_weights();
  EXPECT_THROW(
      run_efficient_imm(g, small_options(DiffusionModel::kIndependentCascade)),
      CheckError);
}

TEST(RunImm, IterationTelemetryIsCoherent) {
  const auto g = testing::make_weighted_graph(
      gen_erdos_renyi(400, 2400, 13), DiffusionModel::kIndependentCascade);
  const auto result = run_efficient_imm(
      g, small_options(DiffusionModel::kIndependentCascade));
  ASSERT_FALSE(result.iterations.empty());
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const MartingaleIteration& it = result.iterations[i];
    EXPECT_EQ(it.iteration, i + 1);
    EXPECT_GT(it.theta, 0u);
    EXPECT_GE(it.coverage, 0.0);
    EXPECT_LE(it.coverage, 1.0);
    EXPECT_GE(it.lower_bound, 0.0);
    // Only the last executed iteration can be the accepted one.
    if (it.accepted) {
      EXPECT_EQ(i, result.iterations.size() - 1);
    }
  }
  // θ_i grows geometrically across executed probes.
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_GT(result.iterations[i].theta, result.iterations[i - 1].theta);
  }
}

TEST(RunImm, TelemetryIdenticalAcrossEngines) {
  const auto g = testing::make_weighted_graph(
      gen_erdos_renyi(300, 1800, 19), DiffusionModel::kIndependentCascade);
  auto opt = small_options(DiffusionModel::kIndependentCascade);
  opt.fused_sampling = FusedSampling::kOff;  // scalar IC = baseline pool
  const auto efficient = run_efficient_imm(g, opt);
  const auto baseline = run_baseline_imm(g, opt);
  ASSERT_EQ(efficient.iterations.size(), baseline.iterations.size());
  for (std::size_t i = 0; i < efficient.iterations.size(); ++i) {
    EXPECT_EQ(efficient.iterations[i].theta, baseline.iterations[i].theta);
    EXPECT_DOUBLE_EQ(efficient.iterations[i].coverage,
                     baseline.iterations[i].coverage);
    EXPECT_EQ(efficient.iterations[i].accepted,
              baseline.iterations[i].accepted);
  }
}

TEST(EngineToString, Names) {
  EXPECT_EQ(to_string(Engine::kEfficient), "EfficientIMM");
  EXPECT_EQ(to_string(Engine::kRipples), "Ripples");
}

}  // namespace
}  // namespace eimm
