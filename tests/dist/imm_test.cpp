// Guards the invariant src/dist/imm.hpp documents: the simulated cluster
// only changes where RRR sets LIVE, never which sets exist — so the seed
// sequence must match the single-node EfficientIMM driver exactly, and
// the charged communication must be the documented cost model over the
// single-node build's pool. These tests catch any divergence before it
// ships silently inside bench tables.
#include <gtest/gtest.h>

#include <numeric>

#include "core/imm.hpp"
#include "diffusion/weights.hpp"
#include "dist/imm.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "runtime/partition.hpp"

namespace eimm {
namespace {

DiffusionGraph tiny_graph(DiffusionModel model) {
  DiffusionGraph g =
      build_diffusion_graph(gen_erdos_renyi(300, 1200, 99), 300);
  assign_paper_weights(g.reverse, model, 99);
  mirror_weights_to_forward(g.reverse, g.forward);
  return g;
}

DistImmOptions dist_options(DiffusionModel model) {
  DistImmOptions opt;
  opt.k = 5;
  opt.epsilon = 0.5;
  opt.model = model;
  opt.rng_seed = 11;
  opt.max_rrr_sets = 50'000;
  return opt;
}

ImmOptions core_options(const DistImmOptions& d) {
  ImmOptions opt;
  opt.k = d.k;
  opt.epsilon = d.epsilon;
  opt.ell = d.ell;
  opt.model = d.model;
  opt.rng_seed = d.rng_seed;
  opt.max_rrr_sets = d.max_rrr_sets;
  return opt;
}

class DistImm : public ::testing::TestWithParam<DiffusionModel> {};

TEST_P(DistImm, SeedsMatchSingleNodeDriver) {
  const DiffusionGraph g = tiny_graph(GetParam());
  DistImmOptions opt = dist_options(GetParam());
  const ImmResult single = run_efficient_imm(g, core_options(opt));

  for (const DistStrategy strategy :
       {DistStrategy::kCounterReduce, DistStrategy::kSetGather}) {
    opt.strategy = strategy;
    const DistImmResult dist = run_distributed_imm(g, opt);
    EXPECT_EQ(dist.seeds, single.seeds) << to_string(strategy);
    EXPECT_EQ(dist.theta, single.theta) << to_string(strategy);
    EXPECT_EQ(dist.theta_capped, single.theta_capped) << to_string(strategy);
  }
}

TEST_P(DistImm, PartitionCoversPoolAndSingleRankIsFree) {
  const DiffusionGraph g = tiny_graph(GetParam());
  DistImmOptions opt = dist_options(GetParam());
  opt.ranks = 4;
  const DistImmResult dist = run_distributed_imm(g, opt);
  EXPECT_EQ(std::accumulate(dist.sets_per_rank.begin(),
                            dist.sets_per_rank.end(), std::uint64_t{0}),
            dist.num_rrr_sets);
  EXPECT_GT(dist.comm.bytes_moved, 0u);

  opt.ranks = 1;
  const DistImmResult solo = run_distributed_imm(g, opt);
  EXPECT_EQ(solo.comm.bytes_moved, 0u);
  EXPECT_EQ(solo.comm.messages, 0u);
  EXPECT_EQ(solo.seeds, dist.seeds);
}

TEST_P(DistImm, CappedThetaIsReported) {
  const DiffusionGraph g = tiny_graph(GetParam());
  DistImmOptions opt = dist_options(GetParam());
  opt.max_rrr_sets = 64;
  const DistImmResult dist = run_distributed_imm(g, opt);
  EXPECT_TRUE(dist.theta_capped);
  EXPECT_EQ(dist.num_rrr_sets, 64u);
  EXPECT_GT(dist.theta, dist.num_rrr_sets);
  EXPECT_EQ(dist.seeds.size(), opt.k);
}

TEST_P(DistImm, CommVolumeMatchesTheCostModel) {
  // Recomputes both strategies' charges from a fresh single-node build
  // (shards = ranks) without going through run_distributed_imm: set-gather
  // ships 8 + 4·|set| bytes per set of every non-root rank's block, one
  // message per non-empty block; counter-reduce runs 1 + k ring
  // allreduces of |V| 8-byte counters, each 2·(R-1)·R messages.
  const DiffusionGraph g = tiny_graph(GetParam());
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  for (const int ranks : {1, 3, 4}) {
    DistImmOptions opt = dist_options(GetParam());
    opt.ranks = ranks;
    opt.max_rrr_sets = 4096;  // the cost model holds for capped pools too
    ImmOptions core = core_options(opt);
    core.shards = ranks;
    const PoolBuild build = build_rrr_pool(g, core, Engine::kEfficient);
    const RRRPoolView view = build.view();
    const auto r = static_cast<std::uint64_t>(ranks);

    std::uint64_t gather_bytes = 0;
    std::uint64_t gather_messages = 0;
    const auto slices = split_ranges(view.size(), r);
    for (std::size_t rank = 1; rank < slices.size(); ++rank) {
      const auto [lo, hi] = slices[rank];
      for (std::size_t i = lo; i < hi; ++i) {
        gather_bytes += 8 + 4 * static_cast<std::uint64_t>(view[i].size());
      }
      gather_messages += hi > lo ? 1 : 0;
    }

    opt.strategy = DistStrategy::kSetGather;
    const DistImmResult gather = run_distributed_imm(g, opt);
    EXPECT_EQ(gather.num_rrr_sets, view.size()) << "ranks=" << ranks;
    EXPECT_EQ(gather.comm.rounds, 1u) << "ranks=" << ranks;
    EXPECT_EQ(gather.comm.bytes_moved, gather_bytes) << "ranks=" << ranks;
    EXPECT_EQ(gather.comm.messages, gather_messages) << "ranks=" << ranks;

    opt.strategy = DistStrategy::kCounterReduce;
    const DistImmResult reduce = run_distributed_imm(g, opt);
    const std::uint64_t rounds = 1 + reduce.seeds.size();
    EXPECT_EQ(reduce.seeds.size(), opt.k) << "ranks=" << ranks;
    EXPECT_EQ(reduce.comm.rounds, rounds) << "ranks=" << ranks;
    EXPECT_EQ(reduce.comm.bytes_moved, rounds * 2 * (r - 1) * n * 8)
        << "ranks=" << ranks;
    EXPECT_EQ(reduce.comm.messages, rounds * 2 * (r - 1) * r)
        << "ranks=" << ranks;
    if (ranks > 1) {
      EXPECT_GT(gather.comm.bytes_moved, 0u) << "ranks=" << ranks;
    }
  }
}

std::string model_name(const ::testing::TestParamInfo<DiffusionModel>& info) {
  return info.param == DiffusionModel::kIndependentCascade ? "IC" : "LT";
}

INSTANTIATE_TEST_SUITE_P(Models, DistImm,
                         ::testing::Values(
                             DiffusionModel::kIndependentCascade,
                             DiffusionModel::kLinearThreshold),
                         model_name);

}  // namespace
}  // namespace eimm
