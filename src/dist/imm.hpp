// Simulated distributed IMM (paper §VI future work).
//
// Models an MPI-style cluster of `ranks` processes on one node. The pool
// is the single-node EfficientIMM build (core/imm build_rrr_pool) with
// one sampling shard per rank, so rank r owns the r-th contiguous block
// of RRR-set indices and pool contents, θ and seeds never depend on the
// rank count. The two communication strategies the bench compares are
// then charged an analytic byte count over that build's RRRPoolView:
//
//   kCounterReduce — EfficientIMM's partitioning: sketches stay on the
//     rank that sampled them; each selection round allreduces the |V|
//     vertex-occurrence counters (ring allreduce cost model, so volume
//     is independent of sketch density).
//   kSetGather — Ripples-MPI-style: every non-root rank ships its raw
//     RRR payloads to rank 0 once (8 + 4·|set| bytes per set), then
//     rank 0 selects locally; volume scales with total sketch size.
//
// Both strategies see identical global counters, so they return
// identical seed sequences — the bench asserts this.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "diffusion/model.hpp"
#include "graph/csr.hpp"

namespace eimm {

enum class DistStrategy { kCounterReduce, kSetGather };

constexpr std::string_view to_string(DistStrategy s) noexcept {
  return s == DistStrategy::kCounterReduce ? "counter-reduce" : "set-gather";
}

/// Bytes and messages crossing the (simulated) network.
struct DistCommStats {
  std::uint64_t bytes_moved = 0;
  std::uint64_t messages = 0;
  /// Communication rounds (1 for set-gather; 1 + #selection rounds for
  /// counter-reduce: the initial build plus one allreduce per pick).
  std::uint32_t rounds = 0;
};

struct DistImmOptions {
  std::size_t k = 50;
  double epsilon = 0.5;
  double ell = 1.0;
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  std::uint64_t rng_seed = 0x5EEDBA5Eu;
  /// Simulated MPI ranks (>= 1; 1 degenerates to zero communication).
  int ranks = 2;
  std::uint64_t max_rrr_sets = 1u << 20;
  DistStrategy strategy = DistStrategy::kCounterReduce;
};

struct DistImmResult {
  std::vector<VertexId> seeds;
  double coverage_fraction = 0.0;
  std::uint64_t theta = 0;
  std::uint64_t num_rrr_sets = 0;
  /// True when max_rrr_sets truncated the pool below theta: num_rrr_sets
  /// (and the comm byte counts) then cover fewer sets than theta implies
  /// and the approximation guarantee is weakened.
  bool theta_capped = false;
  /// Per-rank pool slice sizes (diagnostics; sums to num_rrr_sets).
  std::vector<std::uint64_t> sets_per_rank;
  DistCommStats comm;
};

/// Runs build_rrr_pool plus final_selection (the single-node workflow,
/// shards = ranks) and charges the chosen strategy's communication. The
/// reverse graph must carry diffusion weights.
DistImmResult run_distributed_imm(const DiffusionGraph& graph,
                                  const DistImmOptions& options);

}  // namespace eimm
