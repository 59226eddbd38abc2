#include "dist/imm.hpp"

#include "core/imm.hpp"
#include "runtime/partition.hpp"
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
std::uint64_t set_wire_bytes(const RRRSetView& set) {
  return 8ull + static_cast<std::uint64_t>(set.size()) * sizeof(VertexId);
}

}  // namespace

DistImmResult run_distributed_imm(const DiffusionGraph& graph,
                                  const DistImmOptions& options) {
  EIMM_CHECK(options.ranks >= 1, "ranks must be >= 1");

  // The cluster simulation only changes where sets LIVE, never which
  // sets exist: each simulated rank is one shard of the single-node
  // EfficientIMM build (the shard slices ARE the rank-owned pool
  // slices), so the pool, θ and seeds are the single-node driver's.
  ImmOptions imm;
  imm.k = options.k;
  imm.epsilon = options.epsilon;
  imm.ell = options.ell;
  imm.model = options.model;
  imm.rng_seed = options.rng_seed;
  imm.max_rrr_sets = options.max_rrr_sets;
  imm.shards = options.ranks;
  PoolBuild build = build_rrr_pool(graph, imm, Engine::kEfficient);
  const SelectionResult selection =
      final_selection(build, imm, Engine::kEfficient);
  const RRRPoolView view = build.view();
  const VertexId n = view.num_vertices();

  DistImmResult result;
  result.seeds = selection.seeds;
  result.coverage_fraction = selection.coverage_fraction();
  result.theta = build.theta;
  result.num_rrr_sets = view.size();
  result.theta_capped = build.theta_capped;

  // Block-partition the pool across ranks and charge the strategy.
  const auto ranks = static_cast<std::size_t>(options.ranks);
  const auto rank_slices = split_ranges(view.size(), ranks);
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
        result.comm.bytes_moved += set_wire_bytes(view[i]);
      }
      if (hi > lo) ++result.comm.messages;
    }
  }
  return result;
}

}  // namespace eimm
