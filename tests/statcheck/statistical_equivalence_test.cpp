// Statistical equivalence of the NUMA-sharded sampling pipeline: on the
// registry workloads, the seeds a sharded build selects must achieve
// Monte-Carlo spread within tolerance of the unsharded
// Engine::kEfficient seeds — under both diffusion models. (The sharded
// pipeline actually bit-matches the unsharded pool, so the ratio here is
// exactly 1.0; the tolerance is the contract future fast paths are held
// to when they trade pool identity for speed.)
#include <gtest/gtest.h>

#include "statcheck.hpp"

namespace eimm {
namespace {

using statcheck::compare_sharded_quality;
using statcheck::compare_spread;
using statcheck::statcheck_imm_options;
using statcheck::statcheck_workload;

constexpr double kSpreadTolerance = 0.05;

/// Guards the harness against passing vacuously: a seed set always
/// activates at least itself, so a sane estimator reports spread >= |S|.
void expect_meaningful(const statcheck::SpreadComparison& cmp) {
  EXPECT_GE(cmp.reference_spread,
            static_cast<double>(cmp.reference_seeds.size()))
      << cmp.describe();
  EXPECT_GE(cmp.candidate_spread,
            static_cast<double>(cmp.candidate_seeds.size()))
      << cmp.describe();
}

TEST(StatisticalEquivalence, ShardedMatchesUnshardedSpreadIC) {
  const DiffusionGraph g = statcheck_workload(
      "com-DBLP", DiffusionModel::kIndependentCascade);
  const auto cmp = compare_sharded_quality(
      g, statcheck_imm_options(DiffusionModel::kIndependentCascade), 3);
  EXPECT_EQ(cmp.candidate_seeds.size(), cmp.reference_seeds.size());
  expect_meaningful(cmp);
  EXPECT_TRUE(cmp.within(kSpreadTolerance)) << cmp.describe();
}

TEST(StatisticalEquivalence, ShardedMatchesUnshardedSpreadLT) {
  const DiffusionGraph g = statcheck_workload(
      "com-Amazon", DiffusionModel::kLinearThreshold);
  const auto cmp = compare_sharded_quality(
      g, statcheck_imm_options(DiffusionModel::kLinearThreshold), 3);
  EXPECT_EQ(cmp.candidate_seeds.size(), cmp.reference_seeds.size());
  expect_meaningful(cmp);
  EXPECT_TRUE(cmp.within(kSpreadTolerance)) << cmp.describe();
}

TEST(StatisticalEquivalence, ManyShardsStillWithinToleranceIC) {
  // Shard count far above the thread and domain count of any CI host.
  const DiffusionGraph g = statcheck_workload(
      "com-YouTube", DiffusionModel::kIndependentCascade);
  const auto cmp = compare_sharded_quality(
      g, statcheck_imm_options(DiffusionModel::kIndependentCascade, 6), 16);
  expect_meaningful(cmp);
  EXPECT_TRUE(cmp.within(kSpreadTolerance)) << cmp.describe();
}

TEST(StatisticalEquivalence, DefaultEfficientMatchesRipplesSpreadIC) {
  // Default EfficientIMM samples IC through the fused 64-wide sampler, so
  // its pool no longer bit-matches the Ripples baseline's; its seeds must
  // still be as good under forward Monte-Carlo estimation.
  const DiffusionGraph g = statcheck_workload(
      "com-DBLP", DiffusionModel::kIndependentCascade);
  const auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade);
  const ImmResult ripples = run_imm(g, opt, Engine::kRipples);
  const ImmResult efficient = run_imm(g, opt, Engine::kEfficient);
  const auto cmp =
      compare_spread(g, opt.model, ripples.seeds, efficient.seeds);
  EXPECT_EQ(cmp.candidate_seeds.size(), cmp.reference_seeds.size());
  expect_meaningful(cmp);
  EXPECT_TRUE(cmp.within(kSpreadTolerance)) << cmp.describe();
}

// The harness itself must be able to DETECT degradation, or the
// equivalence assertions above are vacuous: dropping the last greedy
// seed can only lose spread, and losing the FIRST (highest-marginal-
// gain) seed must never score better than the full set by more than MC
// noise.
TEST(StatisticalEquivalence, HarnessDetectsDegradedSeedSets) {
  const DiffusionGraph g = statcheck_workload(
      "com-DBLP", DiffusionModel::kIndependentCascade);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade);
  opt.shards = 1;
  const ImmResult full = run_imm(g, opt, Engine::kEfficient);
  ASSERT_GE(full.seeds.size(), 2u);

  std::vector<VertexId> truncated(full.seeds.begin(),
                                  full.seeds.end() - 1);
  const auto cmp =
      compare_spread(g, opt.model, full.seeds, truncated, 2000);
  EXPECT_GE(cmp.reference_spread, static_cast<double>(full.seeds.size()))
      << cmp.describe();
  EXPECT_LE(cmp.candidate_spread, cmp.reference_spread * 1.02)
      << cmp.describe();

  std::vector<VertexId> headless(full.seeds.begin() + 1, full.seeds.end());
  const auto cmp_head =
      compare_spread(g, opt.model, full.seeds, headless, 2000);
  EXPECT_LE(cmp_head.candidate_spread, cmp_head.reference_spread * 1.02)
      << cmp_head.describe();
}

// Identical seed sets must compare at ratio exactly 1.0 — the estimator
// is deterministic in (seeds, samples, seed), so the harness never
// flakes on its own noise floor.
TEST(StatisticalEquivalence, IdenticalSeedSetsRatioIsOne) {
  const DiffusionGraph g = statcheck_workload(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 4);
  opt.shards = 1;
  const ImmResult run = run_imm(g, opt, Engine::kEfficient);
  const auto cmp = compare_spread(g, opt.model, run.seeds, run.seeds, 500);
  EXPECT_GT(cmp.reference_spread, 0.0) << cmp.describe();
  EXPECT_DOUBLE_EQ(cmp.ratio(), 1.0) << cmp.describe();
  EXPECT_TRUE(cmp.within(0.0));
}

}  // namespace
}  // namespace eimm
