// Build-matrix smoke test: the cheapest possible end-to-end exercise of
// the top-level pipeline (generator -> builder -> weights -> run_imm)
// under every (model, engine) combination. This suite is what CI keeps
// when the heavy integration suites are filtered out, so it must stay
// fast (< 1 s) while still touching every layer the umbrella library
// links together.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/imm.hpp"
#include "diffusion/weights.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace eimm {
namespace {

constexpr VertexId kVertices = 200;
constexpr EdgeId kEdges = 800;

DiffusionGraph tiny_er_graph(DiffusionModel model) {
  DiffusionGraph g =
      build_diffusion_graph(gen_erdos_renyi(kVertices, kEdges, 42), kVertices);
  assign_paper_weights(g.reverse, model, 42);
  mirror_weights_to_forward(g.reverse, g.forward);
  return g;
}

ImmOptions smoke_options(DiffusionModel model) {
  ImmOptions opt;
  opt.k = 4;
  opt.epsilon = 0.5;
  opt.model = model;
  opt.rng_seed = 7;
  opt.max_rrr_sets = 20'000;  // keeps LT's huge theta tractable
  return opt;
}

class BuildMatrix : public ::testing::TestWithParam<DiffusionModel> {};

TEST_P(BuildMatrix, EfficientEngineRunsEndToEnd) {
  const DiffusionModel model = GetParam();
  const DiffusionGraph g = tiny_er_graph(model);
  const ImmResult result = run_efficient_imm(g, smoke_options(model));

  ASSERT_EQ(result.seeds.size(), 4u);
  const std::set<VertexId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), result.seeds.size());
  for (const VertexId s : result.seeds) EXPECT_LT(s, kVertices);

  EXPECT_GT(result.num_rrr_sets, 0u);
  EXPECT_GT(result.coverage_fraction, 0.0);
  EXPECT_LE(result.coverage_fraction, 1.0);
  EXPECT_GT(result.estimated_spread, 0.0);
  EXPECT_FALSE(result.iterations.empty());
}

TEST_P(BuildMatrix, EnginesAgreeOnSeeds) {
  // Identical pools + lowest-id tie-breaks mean the baseline engine must
  // return the same seed sequence — the cross-validation the kernels
  // document. Scalar sampling on the efficient side: fused IC pools are
  // only statistically equivalent.
  const DiffusionModel model = GetParam();
  const DiffusionGraph g = tiny_er_graph(model);
  ImmOptions scalar = smoke_options(model);
  scalar.fused_sampling = FusedSampling::kOff;
  const ImmResult efficient = run_efficient_imm(g, scalar);
  const ImmResult baseline = run_baseline_imm(g, smoke_options(model));
  EXPECT_EQ(efficient.seeds, baseline.seeds);
}

TEST_P(BuildMatrix, DeterministicAcrossRuns) {
  const DiffusionModel model = GetParam();
  const DiffusionGraph g = tiny_er_graph(model);
  const ImmResult a = run_efficient_imm(g, smoke_options(model));
  const ImmResult b = run_efficient_imm(g, smoke_options(model));
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.num_rrr_sets, b.num_rrr_sets);
}

std::string model_name(const ::testing::TestParamInfo<DiffusionModel>& info) {
  return info.param == DiffusionModel::kIndependentCascade ? "IC" : "LT";
}

INSTANTIATE_TEST_SUITE_P(Models, BuildMatrix,
                         ::testing::Values(
                             DiffusionModel::kIndependentCascade,
                             DiffusionModel::kLinearThreshold),
                         model_name);

}  // namespace
}  // namespace eimm
