#include "dist/imm.hpp"

#include "core/martingale.hpp"
#include "runtime/atomic_counters.hpp"
#include "runtime/partition.hpp"
#include "rrr/fused.hpp"
#include "rrr/pool.hpp"
#include "rrr/sharded.hpp"
#include "seedselect/engine.hpp"
#include "support/macros.hpp"

namespace eimm {
namespace {

/// Ring-allreduce network volume for one reduction of `words` 64-bit
/// counters over `ranks` processes: each rank sends 2·(R-1)/R of the
/// buffer (reduce-scatter + allgather), so the aggregate wire traffic is
/// 2·(R-1)·words·8 bytes — independent of how dense the sketches are.
std::uint64_t allreduce_bytes(int ranks, std::uint64_t words) {
  if (ranks <= 1) return 0;
  return 2ull * static_cast<std::uint64_t>(ranks - 1) * words * 8ull;
}

/// Wire size of one RRR set shipped as a sorted vertex vector plus a
/// length header (the Ripples-MPI gather format).
std::uint64_t set_wire_bytes(const RRRSet& set) {
  return 8ull + static_cast<std::uint64_t>(set.size()) * sizeof(VertexId);
}

}  // namespace

DistImmResult run_distributed_imm(const DiffusionGraph& graph,
                                  const DistImmOptions& options) {
  EIMM_CHECK(graph.reverse.has_weights(),
             "assign diffusion weights before run_distributed_imm");
  EIMM_CHECK(options.ranks >= 1, "ranks must be >= 1");
  const VertexId n = graph.num_vertices();
  EIMM_CHECK(n >= 2, "graph too small");

  const MartingaleParams params =
      compute_martingale_params(n, options.k, options.epsilon, options.ell);

  RRRPool pool(n);
  std::uint64_t generated = 0;
  bool capped = false;

  // Each simulated rank is one shard of the NUMA-sharded pipeline: the
  // shard slices ARE the rank-owned pool slices, and stream keying by
  // global index keeps pool contents independent of the rank count.
  ShardedConfig shard_config;
  shard_config.shards = options.ranks;
  shard_config.model = options.model;
  shard_config.rng_seed = options.rng_seed;
  shard_config.adaptive_representation = false;  // wire format: raw vectors
  // Same sampler mode as the single-node driver, so both build the same
  // pool from the same seed.
  shard_config.fused = resolve_fused_sampling(FusedSampling::kAuto);
  ShardedSampler sampler(graph.reverse, shard_config);

  auto generate_to = [&](std::uint64_t target) {
    target = cap_theta_request(target, options.max_rrr_sets, capped);
    if (target <= generated) return;
    pool.resize(target);
    sampler.generate(pool, generated, target, nullptr);
    generated = target;
  };

  // Selection routes through the same engine as the single-node driver:
  // the cluster simulation only changes where sets LIVE, and the
  // pinned/sharded counter machinery applies on the simulating host too.
  const SelectionEngine selection_engine;
  auto select = [&]() -> SelectionResult {
    SelectionOptions sopt;
    sopt.k = options.k;
    return selection_engine.select(SelectionKernel::kEfficient, pool, sopt);
  };

  // Martingale probing, shared with the single-node driver: the cluster
  // simulation only changes where sets LIVE, never which sets exist.
  const std::uint64_t theta = run_martingale_probing(
      params, generate_to, [&] { return select().coverage_fraction(); });

  const SelectionResult selection = select();

  DistImmResult result;
  result.seeds = selection.seeds;
  result.coverage_fraction = selection.coverage_fraction();
  result.theta = theta;
  result.num_rrr_sets = pool.size();
  result.theta_capped = capped;

  // Block-partition the pool across ranks and charge the strategy.
  const auto ranks = static_cast<std::size_t>(options.ranks);
  const auto rank_slices = split_ranges(pool.size(), ranks);
  result.sets_per_rank.resize(ranks, 0);
  for (std::size_t r = 0; r < ranks; ++r) {
    result.sets_per_rank[r] = rank_slices[r].second - rank_slices[r].first;
  }

  if (options.strategy == DistStrategy::kCounterReduce) {
    // One allreduce for the initial fused counter build, then one per
    // selection round to agree on the global arg-max and the decrements.
    const auto selection_rounds =
        static_cast<std::uint32_t>(result.seeds.size());
    result.comm.rounds = 1 + selection_rounds;
    result.comm.bytes_moved =
        static_cast<std::uint64_t>(result.comm.rounds) *
        allreduce_bytes(options.ranks, n);
    if (options.ranks > 1) {
      result.comm.messages = static_cast<std::uint64_t>(result.comm.rounds) *
                             2ull * (ranks - 1) * ranks;
    }
  } else {
    // Every non-root rank ships its slice of raw sketches to rank 0.
    result.comm.rounds = 1;
    for (std::size_t r = 1; r < ranks; ++r) {
      const auto [lo, hi] = rank_slices[r];
      for (std::size_t i = lo; i < hi; ++i) {
        result.comm.bytes_moved += set_wire_bytes(pool[i]);
      }
      if (hi > lo) ++result.comm.messages;
    }
  }
  return result;
}

}  // namespace eimm
