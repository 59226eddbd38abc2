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
//   3. Hand-off, two ways:
//      * generate(SegmentedPool&, ...) — the zero-copy production path
//        every EfficientIMM build takes: the staged slots ARE the pool
//        (slot entries point straight into the arena pages; dense sets
//        are bitmap slots under the adaptive representation) and
//        selection consumes them through RRRPoolView. No merge, no
//        second copy of the vertex payload; ShardStats::merged_bytes
//        stays 0.
//      * generate(RRRPool&, ...) — the legacy merge path (dist/imm's
//        wire-format accounting and the flatten-identity tests): runs
//        are staged into the sampler's own SegmentedPool and copied into
//        RRRSet slots, producing the exact CSR image the unsharded path
//        builds. Its arenas are reset() between rounds — mapped chunks
//        are REUSED, so mapped_bytes plateaus while staged_bytes
//        accumulates.
//
// Determinism: slot i's content depends only on (rng_seed, i) — the same
// per-index streams the unsharded path uses — so every shard count,
// worker count, steal schedule, and hand-off mode yields bit-identical
// pool content (tests/statcheck enforces this). On single-node hosts the
// kLocal policy falls back to first-touch and the pipeline degrades to
// plain batched generation — at shards == 1 the scalar mode bit-matches
// a serial per-index loop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "diffusion/model.hpp"
#include "graph/csr.hpp"
#include "numa/alloc.hpp"
#include "numa/topology.hpp"
#include "rrr/pool.hpp"
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
/// round; the byte counters are CUMULATIVE over the sampler's lifetime so
/// benches can see chunk reuse (staged grows past mapped) and the merge
/// copy disappearing (merged stays 0 on the zero-copy path).
struct ShardStats {
  std::vector<std::uint64_t> sets_per_shard;
  std::vector<std::uint64_t> steals_per_shard;
  std::vector<int> shard_domains;
  /// Payload bytes staged into arenas, cumulative across rounds.
  std::uint64_t staged_bytes = 0;
  /// Arena chunk bytes currently mapped (plateaus under reset() reuse).
  std::uint64_t mapped_bytes = 0;
  /// Payload bytes copied out of the arenas into RRRPool slots at merge,
  /// cumulative. Zero on the generate(SegmentedPool&) zero-copy path.
  std::uint64_t merged_bytes = 0;
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
  /// bitmap_min_members(|V|, bitmap_threshold) members become RRRSet
  /// bitmaps on the merge path and bitmap slots on the zero-copy path;
  /// false keeps every set a sorted vector/run.
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
/// stats() describes the most recent round plus cumulative bytes. A
/// sampler instance must stick to ONE hand-off mode (enforced): the
/// byte accounting is per-mode — each mode stages through its own arena
/// set, so alternating modes would make staged/mapped/merged totals
/// describe a mix of the two, breaking the "merged_bytes == 0 proves
/// zero-copy" contract the bench and CI check.
class ShardedSampler {
 public:
  ShardedSampler(const CSRGraph& reverse, ShardedConfig config);

  /// Legacy merge path: samples global slots [begin, end) into `pool`
  /// (already resized to at least `end`), staging through the sampler's
  /// own arenas (chunks reused across calls via reset()). When `fused`
  /// is non-null every sampled vertex also increments the counter in
  /// place (kernel fusion, Algorithm 3).
  void generate(RRRPool& pool, std::uint64_t begin, std::uint64_t end,
                CounterArray* fused);

  /// Zero-copy path: samples global slots [begin, end) straight into
  /// `pool`'s arenas (already resized to at least `end`); slot entries
  /// point at the staged runs, which selection consumes in place via
  /// RRRPoolView. No payload is ever copied out (merged_bytes stays 0).
  void generate(SegmentedPool& pool, std::uint64_t begin, std::uint64_t end,
                CounterArray* fused);

  [[nodiscard]] int num_shards() const noexcept { return config_.shards; }
  [[nodiscard]] const ShardStats& stats() const noexcept { return stats_; }

 private:
  /// Shared staging engine: plans the round, pins the team, and has
  /// every worker sample its slots into its own arena of `pool` and write
  /// their entries (already resized to `end`). Sets with at least
  /// `bitmap_min` members become bitmap slots, the rest sorted runs.
  /// Fused IC plans in 64-slot block units (a block is never split
  /// across shards, so pool content is invariant under the shard count);
  /// round boundaries may still clip a block's lane window — content
  /// then depends on the round schedule, which is itself deterministic
  /// in (params, seed). Scalar staging plans in slots.
  void stage(SegmentedPool& pool, std::uint64_t begin, std::uint64_t end,
             CounterArray* counters, std::size_t bitmap_min);

  const CSRGraph& reverse_;
  ShardedConfig config_;
  ShardStats stats_;
  /// Merge-path staging, persistent so reset_arenas() reuses chunks.
  SegmentedPool merge_staging_;
  /// Hand-off mode lock (see class comment).
  enum class HandOff { kUnset, kMerge, kZeroCopy };
  HandOff mode_ = HandOff::kUnset;
};

}  // namespace eimm
