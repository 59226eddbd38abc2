#include "core/imm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "diffusion/weights.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"
#include "workloads/registry.hpp"

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
    EXPECT_EQ(efficient.iterations[i].accepted,
              baseline.iterations[i].accepted);
    // The baseline runs every greedy; EfficientIMM may certify a probe's
    // rejection without one, and then has no coverage to compare.
    EXPECT_FALSE(baseline.iterations[i].skipped);
    if (!efficient.iterations[i].skipped) {
      EXPECT_DOUBLE_EQ(efficient.iterations[i].coverage,
                       baseline.iterations[i].coverage);
    }
  }
}

/// A fresh SelectionEngine::select over `build` with run_imm's final
/// selection inputs (fresh layout, no workspace).
SelectionResult fresh_selection(const PoolBuild& build, const ImmOptions& opt,
                                Engine engine) {
  SelectionOptions sopt;
  sopt.k = opt.k;
  SelectionEngineConfig config;
  config.pin = PinMode::kNone;
  if (engine == Engine::kRipples) {
    sopt.adaptive_update = false;
    sopt.dynamic_balance = false;
    return SelectionEngine(config).select(SelectionKernel::kRipples,
                                          build.view(), sopt);
  }
  return SelectionEngine(config).select(
      SelectionKernel::kEfficient, build.view(), sopt,
      build.counters_prebuilt ? &build.base_counters : nullptr);
}

std::uint64_t counter_value(const char* name) {
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const obs::MetricValue* metric = snap.find(name);
  return metric != nullptr ? metric->value : 0;
}

std::uint64_t skipped_probes(const std::vector<MartingaleIteration>& probes) {
  return static_cast<std::uint64_t>(
      std::count_if(probes.begin(), probes.end(),
                    [](const MartingaleIteration& it) { return it.skipped; }));
}

/// Runs run_imm and reports how many selections it ran and whether it
/// reused the last probe as its final selection, from the obs counters.
struct CountedRun {
  ImmResult result;
  std::uint64_t selections = 0;
  std::uint64_t reused = 0;
};

CountedRun counted_run_imm(const DiffusionGraph& g, const ImmOptions& opt,
                           Engine engine) {
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const std::uint64_t runs = counter_value("selection.runs_total");
  const std::uint64_t reused = counter_value("selection.final_reused_total");
  CountedRun run;
  run.result = run_imm(g, opt, engine);
  run.selections = counter_value("selection.runs_total") - runs;
  run.reused = counter_value("selection.final_reused_total") - reused;
  obs::set_metrics_enabled(metrics_were_enabled);
  return run;
}

TEST(RunImm, FinalSelectionEqualsAFreshSelectWithOrWithoutATopUp) {
  // com-Amazon IC at this scale accepts a probe whose pool already
  // exceeds θ (no top-up); its LT twin tops up after the last probe.
  for (const auto model : {DiffusionModel::kIndependentCascade,
                           DiffusionModel::kLinearThreshold}) {
    const bool top_up = model == DiffusionModel::kLinearThreshold;
    const auto g = make_workload_with_weights("com-Amazon", model, 0.05, 17);
    const ImmOptions opt = small_options(model);
    const PoolBuild build = build_rrr_pool(g, opt, Engine::kEfficient);
    ASSERT_TRUE(build.last_probe.has_value());
    ASSERT_EQ(build.size() > build.last_probe->total_sets, top_up)
        << "the fixture no longer exercises this case";
    const SelectionResult fresh =
        fresh_selection(build, opt, Engine::kEfficient);
    if (!top_up) {
      EXPECT_EQ(build.last_probe->seeds, fresh.seeds);
      EXPECT_EQ(build.last_probe->marginal_coverage, fresh.marginal_coverage);
      EXPECT_EQ(build.last_probe->covered_sets, fresh.covered_sets);
      EXPECT_EQ(build.last_probe->rebuild_rounds, fresh.rebuild_rounds);
    }

    const CountedRun run = counted_run_imm(g, opt, Engine::kEfficient);
    EXPECT_EQ(run.result.seeds, fresh.seeds) << "top-up " << top_up;
    EXPECT_DOUBLE_EQ(run.result.coverage_fraction, fresh.coverage_fraction());
    EXPECT_EQ(run.result.num_rrr_sets, build.size());
    EXPECT_EQ(run.result.rebuild_rounds, fresh.rebuild_rounds);
    EXPECT_EQ(run.result.counter_layout_allocations, 1u);
    // One selection per probe that ran its greedy, plus one after a top-up.
    EXPECT_EQ(run.selections, run.result.iterations.size() -
                                  skipped_probes(run.result.iterations) +
                                  (top_up ? 1 : 0));
    EXPECT_EQ(run.reused, top_up ? 0u : 1u);
  }
}

TEST(RunImm, RipplesAlwaysRerunsTheFinalSelection) {
  // The same no-top-up fixture: the baseline still selects once more.
  const auto g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.05, 17);
  const ImmOptions opt = small_options(DiffusionModel::kIndependentCascade);
  const PoolBuild build = build_rrr_pool(g, opt, Engine::kRipples);
  ASSERT_TRUE(build.last_probe.has_value());
  ASSERT_EQ(build.size(), build.last_probe->total_sets);

  const CountedRun run = counted_run_imm(g, opt, Engine::kRipples);
  EXPECT_EQ(run.result.seeds,
            fresh_selection(build, opt, Engine::kRipples).seeds);
  EXPECT_EQ(run.selections, run.result.iterations.size() + 1);
  EXPECT_EQ(run.reused, 0u);
}

/// One build plus run_imm's final selection, for outcome comparisons
/// (the SelectionResult carries the marginals ImmResult does not).
struct BuildOutcome {
  PoolBuild build;
  SelectionResult selection;
};

BuildOutcome build_and_select(const DiffusionGraph& g, const ImmOptions& opt,
                              Engine engine) {
  BuildOutcome out;
  out.build = build_rrr_pool(g, opt, engine);
  out.selection = final_selection(out.build, opt, engine);
  return out;
}

void expect_same_outcome(const BuildOutcome& a, const BuildOutcome& b,
                         const std::string& what) {
  ASSERT_EQ(a.build.iterations.size(), b.build.iterations.size()) << what;
  for (std::size_t i = 0; i < a.build.iterations.size(); ++i) {
    EXPECT_EQ(a.build.iterations[i].theta, b.build.iterations[i].theta)
        << what << " i=" << i + 1;
    EXPECT_EQ(a.build.iterations[i].accepted, b.build.iterations[i].accepted)
        << what << " i=" << i + 1;
  }
  EXPECT_EQ(a.build.theta, b.build.theta) << what;
  EXPECT_EQ(a.build.theta_capped, b.build.theta_capped) << what;
  EXPECT_EQ(a.build.size(), b.build.size()) << what;
  EXPECT_EQ(a.selection.seeds, b.selection.seeds) << what;
  EXPECT_EQ(a.selection.marginal_coverage, b.selection.marginal_coverage)
      << what;
}

TEST(RunImm, CertifiedProbeRejectionChangesNoOutcome) {
  // Skipping needs the fused base counters: kernel_fusion=false and the
  // Ripples baseline run every probe's greedy. All three must agree on
  // every accept decision, θ_i, θ, cap flag, pool size, seed and marginal.
  // The small cap truncates the later probes, so the bound's divisor (the
  // pool size, not θ_i) matters there.
  std::uint64_t lt_skips[2] = {0, 0};  // uncapped, capped
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  for (const auto model : {DiffusionModel::kIndependentCascade,
                           DiffusionModel::kLinearThreshold}) {
    const auto g = make_workload_with_weights("as-Skitter", model, 0.05, 5);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      for (const std::uint64_t cap : {std::uint64_t{200'000},
                                      std::uint64_t{2'000}}) {
        ImmOptions opt = small_options(model);
        opt.rng_seed = seed;
        opt.max_rrr_sets = cap;
        const std::string what = std::string(to_string(model)) + " seed " +
                                 std::to_string(seed) + " cap " +
                                 std::to_string(cap);
        const std::uint64_t counted =
            counter_value("martingale.probes_skipped_total");
        const BuildOutcome skipping =
            build_and_select(g, opt, Engine::kEfficient);
        EXPECT_EQ(counter_value("martingale.probes_skipped_total") - counted,
                  skipped_probes(skipping.build.iterations))
            << what;
        ImmOptions no_fusion = opt;
        no_fusion.kernel_fusion = false;
        const BuildOutcome unskipped =
            build_and_select(g, no_fusion, Engine::kEfficient);
        EXPECT_EQ(skipped_probes(unskipped.build.iterations), 0u) << what;
        expect_same_outcome(skipping, unskipped, what + " vs no fusion");

        // Ripples samples scalar, so compare it with scalar EfficientIMM.
        ImmOptions scalar = opt;
        scalar.fused_sampling = FusedSampling::kOff;
        const BuildOutcome ripples =
            build_and_select(g, scalar, Engine::kRipples);
        EXPECT_EQ(skipped_probes(ripples.build.iterations), 0u) << what;
        expect_same_outcome(build_and_select(g, scalar, Engine::kEfficient),
                            ripples, what + " vs Ripples");
        if (model == DiffusionModel::kLinearThreshold) {
          lt_skips[cap < 200'000 ? 1 : 0] += skipped_probes(skipping.build.iterations);
        }
      }
    }
  }
  obs::set_metrics_enabled(metrics_were_enabled);
  EXPECT_GT(lt_skips[0], 0u) << "the uncapped LT runs no longer skip";
  EXPECT_GT(lt_skips[1], 0u) << "the capped LT runs no longer skip";
}

TEST(EngineToString, Names) {
  EXPECT_EQ(to_string(Engine::kEfficient), "EfficientIMM");
  EXPECT_EQ(to_string(Engine::kRipples), "Ripples");
}

}  // namespace
}  // namespace eimm
