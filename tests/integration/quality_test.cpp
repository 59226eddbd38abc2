// Approximation-quality validation: IMM promises spread within
// (1 - 1/e - ε) of optimal with high probability. On instances small
// enough to brute-force (or CELF-greedy), verify the engines actually
// deliver competitive spread under forward Monte-Carlo simulation.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/imm.hpp"
#include "graph/generators.hpp"
#include "simulate/greedy.hpp"
#include "simulate/spread.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

// Each check below runs EfficientIMM twice: with certified probe
// rejection (the default) and without it (kernel_fusion=false leaves no
// prebuilt counters to bound a probe with, so every probe runs its greedy).
constexpr bool kKernelFusion[] = {true, false};

std::size_t skipped_probes(const ImmResult& result) {
  return static_cast<std::size_t>(std::count_if(
      result.iterations.begin(), result.iterations.end(),
      [](const MartingaleIteration& it) { return it.skipped; }));
}

TEST(Quality, MatchesExhaustiveOptimalOnTinyGraph) {
  for (const auto model : {DiffusionModel::kIndependentCascade,
                           DiffusionModel::kLinearThreshold}) {
    // The sparser graph's low coverage lets the default run skip probes.
    std::size_t skipped = 0;
    for (const auto& edges :
         {gen_erdos_renyi(16, 60, 5), gen_erdos_renyi(20, 30, 5)}) {
      const auto g = testing::make_weighted_graph(edges, model);

      SpreadOptions spread_opt;
      spread_opt.num_samples = 4000;
      const auto optimal = exhaustive_optimal(g.forward, model, 2, spread_opt);

      for (const bool fusion : kKernelFusion) {
        ImmOptions opt;
        opt.k = 2;
        opt.epsilon = 0.3;
        opt.model = model;
        opt.rng_seed = 11;
        opt.max_rrr_sets = 2'000'000;
        opt.kernel_fusion = fusion;
        const auto imm = run_efficient_imm(g, opt);
        if (fusion) skipped += skipped_probes(imm);

        const double imm_spread =
            estimate_spread(g.forward, model, imm.seeds, spread_opt);
        // Theory: >= (1 - 1/e - eps) * OPT ≈ 0.33 * OPT. In practice IMM
        // gets much closer; assert a margin comfortably above the
        // guarantee to catch real regressions without flaking on MC noise.
        EXPECT_GE(imm_spread, 0.75 * optimal.spread)
            << to_string(model) << " n=" << g.num_vertices()
            << " kernel_fusion " << fusion << " IMM=" << imm_spread
            << " OPT=" << optimal.spread;
      }
    }
    EXPECT_GT(skipped, 0u) << to_string(model) << ": no probe was skipped";
  }
}

/// IMM's spread against CELF greedy's on `g`, both kernel-fusion modes.
void expect_competitive_with_celf(const DiffusionGraph& g,
                                  DiffusionModel model, std::uint64_t seed) {
  SpreadOptions spread_opt;
  spread_opt.num_samples = 1000;
  const auto greedy = celf_greedy(g.forward, model, 4, spread_opt);

  for (const bool fusion : kKernelFusion) {
    ImmOptions opt;
    opt.k = 4;
    opt.epsilon = 0.3;
    opt.model = model;
    opt.rng_seed = seed;
    opt.max_rrr_sets = 2'000'000;
    opt.kernel_fusion = fusion;
    const auto imm = run_efficient_imm(g, opt);
    const double imm_spread =
        estimate_spread(g.forward, model, imm.seeds, spread_opt);

    EXPECT_GE(imm_spread, 0.85 * greedy.spread)
        << "kernel_fusion " << fusion << " IMM=" << imm_spread
        << " CELF=" << greedy.spread;
  }
}

TEST(Quality, CompetitiveWithCelfGreedyIC) {
  const auto g = testing::make_weighted_graph(
      gen_barabasi_albert(150, 2, 9), DiffusionModel::kIndependentCascade);
  expect_competitive_with_celf(g, DiffusionModel::kIndependentCascade, 3);
}

TEST(Quality, CompetitiveWithCelfGreedyLT) {
  const auto g = testing::make_weighted_graph(
      gen_watts_strogatz(120, 3, 0.2, 13), DiffusionModel::kLinearThreshold);
  expect_competitive_with_celf(g, DiffusionModel::kLinearThreshold, 29);
}

TEST(Quality, EstimatedSpreadTracksSimulatedSpread) {
  // n * F(S) is an unbiased estimator of σ(S): check it lands close to
  // the forward Monte-Carlo measurement.
  const auto g = testing::make_weighted_graph(
      gen_erdos_renyi(400, 2400, 17), DiffusionModel::kIndependentCascade);
  ImmOptions opt;
  opt.k = 5;
  opt.epsilon = 0.3;
  opt.model = DiffusionModel::kIndependentCascade;
  opt.rng_seed = 41;
  opt.max_rrr_sets = 2'000'000;
  const auto imm = run_efficient_imm(g, opt);

  SpreadOptions spread_opt;
  spread_opt.num_samples = 2000;
  const double simulated = estimate_spread(
      g.forward, DiffusionModel::kIndependentCascade, imm.seeds, spread_opt);
  EXPECT_NEAR(imm.estimated_spread, simulated,
              0.15 * simulated + 5.0);
}

TEST(Quality, TighterEpsilonNeverHurtsMuch) {
  const auto g = testing::make_weighted_graph(
      gen_barabasi_albert(200, 2, 21), DiffusionModel::kIndependentCascade);
  SpreadOptions spread_opt;
  spread_opt.num_samples = 800;

  auto run_with_eps = [&](double eps) {
    ImmOptions opt;
    opt.k = 4;
    opt.epsilon = eps;
    opt.model = DiffusionModel::kIndependentCascade;
    opt.rng_seed = 8;
    opt.max_rrr_sets = 2'000'000;
    const auto r = run_efficient_imm(g, opt);
    return estimate_spread(g.forward, DiffusionModel::kIndependentCascade,
                           r.seeds, spread_opt);
  };
  const double loose = run_with_eps(0.5);
  const double tight = run_with_eps(0.2);
  EXPECT_GE(tight, 0.9 * loose);
}

}  // namespace
}  // namespace eimm
