// NUMA-sharded RRR sampling pipeline (§IV-B taken to its conclusion).
//
// The paper's Table II shows that WHERE the sampling phase's working set
// lives dominates Generate_RRRsets runtime on multi-socket hosts. This
// layer partitions one generation round into per-NUMA-domain shards:
//
//   1. ShardPlan splits the global RRR index range [begin, end) into
//      contiguous shard slices (runtime/partition) and assigns each shard
//      a NUMA domain plus a contiguous group of workers.
//   2. Each worker samples its shard's slots through a per-shard JobPool
//      (runtime/work_queue) — stealing stays confined to the shard, so a
//      thread never migrates its working set across domains — and stages
//      each set in a worker-private ShardArena (rrr/pool_view.hpp) whose
//      pages are mbind'd kLocal (numa/alloc): first touch by the sampling
//      worker places them on its own domain, and the worker writes each
//      slot's SegmentedPool entry itself. Scalar staging (LT, and IC with
//      fused off) walks each set into reused scratch and sorts it in
//      place; fused IC staging emits 64-slot blocks (rrr/fused.hpp).
//   3. Hand-off: the staged slots ARE the pool. generate() writes into a
//      caller-owned SegmentedPool whose slot entries point straight into
//      the arena pages (dense sets are bitmap slots under the adaptive
//      representation), and selection consumes them in place through
//      RRRPoolView. No merge, no second copy of the vertex payload;
//      RRRPoolView::flatten() builds the contiguous CSR image only for
//      the consumers that need one (snapshots, tests).
//
// Determinism: a scalar slot's content depends only on (rng_seed, i) —
// the same per-index streams the serial sampler uses — and a fused slot's
// only on (rng_seed, block, lane window), so every shard count, worker
// count, and steal schedule yields bit-identical pool content
// (tests/statcheck enforces this). On single-node hosts the kLocal
// policy falls back to first-touch and the pipeline degrades to plain
// batched generation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "diffusion/model.hpp"
#include "graph/csr.hpp"
#include "numa/alloc.hpp"
#include "numa/topology.hpp"
#include "rrr/pool_view.hpp"
#include "rrr/set.hpp"
#include "runtime/atomic_counters.hpp"

namespace eimm {

/// Resolves a shard-count request: explicit positive values win, then the
/// EIMM_SHARDS environment variable, then the detected NUMA domain count
/// (1 on non-NUMA hosts — the single-domain fallback). Always >= 1.
int resolve_shards(int requested);

/// How one generation round is cut into shards and who serves each shard.
struct ShardPlan {
  struct Shard {
    std::uint64_t begin = 0;  ///< global RRR index range [begin, end)
    std::uint64_t end = 0;
    int domain = 0;           ///< preferred NUMA node (advisory: placement
                              ///< follows the workers' first touch)
    std::size_t first_worker = 0;  ///< workers [first, first+count) serve it
    std::size_t worker_count = 0;

    [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
    [[nodiscard]] bool empty() const noexcept { return begin >= end; }
  };

  std::vector<Shard> shards;
  std::size_t total_workers = 1;

  /// Splits [begin, end) into `num_shards` contiguous slices, round-robins
  /// domains from `topo`, and distributes `num_workers` over the shards.
  /// When workers outnumber shards every shard gets a contiguous worker
  /// group; otherwise each worker serves a contiguous run of shards
  /// one-by-one (shard count > thread count stays valid, just serialized).
  static ShardPlan make(std::uint64_t begin, std::uint64_t end,
                        int num_shards, std::size_t num_workers,
                        const NumaTopology& topo);

  /// Shard indices worker `w` serves, in ascending order.
  [[nodiscard]] std::vector<std::size_t> shards_for_worker(
      std::size_t w) const;
};

/// Pipeline diagnostics. The per-shard vectors describe the most recent
/// round; staged_bytes is CUMULATIVE over the sampler's lifetime.
struct ShardStats {
  std::vector<std::uint64_t> sets_per_shard;
  std::vector<std::uint64_t> steals_per_shard;
  std::vector<int> shard_domains;
  /// Payload bytes staged into arenas, cumulative across rounds.
  std::uint64_t staged_bytes = 0;
  /// Arena chunk bytes the pool's worker arenas have mapped. Arenas
  /// only grow (a chunk is kept until its pool dies), so this never
  /// falls between rounds over one pool.
  std::uint64_t mapped_bytes = 0;
  int numa_domains = 1;  ///< detected domains when the plan was made
};

struct ShardedConfig {
  /// Resolved shard count (>= 1); use resolve_shards() to apply the
  /// EIMM_SHARDS / topology defaulting.
  int shards = 1;
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  std::uint64_t rng_seed = 0;
  std::size_t batch_size = 64;
  /// Adaptive vector/bitmap representation (§IV-C): sets with at least
  /// bitmap_min_members(|V|, bitmap_threshold) members become bitmap
  /// slots; false keeps every set a sorted run.
  bool adaptive_representation = true;
  double bitmap_threshold = kDefaultBitmapThreshold;
  /// Fused 64-wide IC generation (rrr/fused.hpp): each traversal covers
  /// one 64-slot block and emits up to 64 slots. Resolved already (use
  /// resolve_fused_sampling()); slot contents depend only on
  /// (rng_seed, block, lane window), so every shard count still yields
  /// identical pools — but IC contents differ from the scalar mode. LT
  /// ignores the flag (its walks share no traversal work).
  bool fused = false;
};

/// One sharded generation pipeline over a fixed reverse graph. generate()
/// may be called repeatedly with growing ranges (the martingale rounds);
/// stats() describes the most recent round plus cumulative bytes.
class ShardedSampler {
 public:
  ShardedSampler(const CSRGraph& reverse, ShardedConfig config);

  /// Samples global slots [begin, end) straight into `pool`'s arenas
  /// (already resized to at least `end`). Plans the round, pins the team,
  /// and has every worker stage its slots into its own arena and write
  /// their entries; earlier rounds' slots stay valid. Fused IC plans in
  /// 64-slot block units (a block is never split across shards, so pool
  /// content is invariant under the shard count); round boundaries may
  /// still clip a block's lane window — content then depends on the
  /// round schedule, which is itself deterministic in (params, seed).
  /// Scalar staging plans in slots. When `counters` is non-null every
  /// sampled vertex also increments its counter (kernel fusion,
  /// Algorithm 3): each worker tallies its round privately
  /// (CounterTally) and flushes once, one add per touched vertex.
  void generate(SegmentedPool& pool, std::uint64_t begin, std::uint64_t end,
                CounterArray* counters);

  [[nodiscard]] int num_shards() const noexcept { return config_.shards; }
  [[nodiscard]] const ShardStats& stats() const noexcept { return stats_; }

 private:
  const CSRGraph& reverse_;
  ShardedConfig config_;
  ShardStats stats_;
};

}  // namespace eimm
