#include "rrr/sharded.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rrr/fused.hpp"
#include "rrr/generate.hpp"
#include "runtime/affinity.hpp"
#include "runtime/partition.hpp"
#include "runtime/work_queue.hpp"
#include "support/bits.hpp"
#include "support/env.hpp"
#include "support/macros.hpp"

namespace eimm {
namespace {

std::uint64_t total_runs(const std::vector<ShardArena>& arenas) {
  std::uint64_t runs = 0;
  for (const ShardArena& arena : arenas) runs += arena.runs();
  return runs;
}

/// One job pool per shard, sized in the plan's units (slots or blocks).
void make_jobs(const ShardPlan& plan, std::size_t batch,
               std::vector<std::unique_ptr<JobPool>>& jobs) {
  jobs.reserve(plan.shards.size());
  for (const ShardPlan::Shard& shard : plan.shards) {
    jobs.push_back(std::make_unique<JobPool>(
        shard.size(), batch, std::max<std::size_t>(1, shard.worker_count)));
  }
}

/// Fills `stats` for the round just staged. Plan units are slots
/// (slots_per_unit == 1) or fused blocks (kFusedLanes); each shard's set
/// count is clipped to [begin, end).
void record_round(ShardStats& stats, const ShardPlan& plan,
                  const std::vector<std::unique_ptr<JobPool>>& jobs,
                  const std::vector<ShardArena>& arenas, std::uint64_t begin,
                  std::uint64_t end, std::uint64_t slots_per_unit) {
  stats.numa_domains = numa_topology().num_nodes();
  stats.sets_per_shard.clear();
  stats.shard_domains.clear();
  stats.sets_per_shard.reserve(plan.shards.size());
  stats.shard_domains.reserve(plan.shards.size());
  for (const ShardPlan::Shard& shard : plan.shards) {
    const std::uint64_t lo = std::max(begin, shard.begin * slots_per_unit);
    const std::uint64_t hi = std::min(end, shard.end * slots_per_unit);
    stats.sets_per_shard.push_back(hi > lo ? hi - lo : 0);
    stats.shard_domains.push_back(shard.domain);
  }
  static const obs::Counter steal_counter =
      obs::counter("sampling.steals_total");
  static const obs::Counter staged_counter =
      obs::counter("sampling.staged_bytes_total");
  stats.steals_per_shard.assign(plan.shards.size(), 0);
  std::uint64_t round_steals = 0;
  for (std::size_t s = 0; s < jobs.size(); ++s) {
    stats.steals_per_shard[s] = jobs[s]->steal_count();
    round_steals += stats.steals_per_shard[s];
  }
  steal_counter.add(round_steals);
  const std::uint64_t staged_bytes_before = stats.staged_bytes;
  stats.staged_bytes = 0;
  stats.mapped_bytes = 0;
  for (const ShardArena& arena : arenas) {
    stats.staged_bytes += arena.staged_bytes();
    stats.mapped_bytes += arena.mapped_bytes();
  }
  if (stats.staged_bytes > staged_bytes_before) {
    staged_counter.add(stats.staged_bytes - staged_bytes_before);
  }
}

/// Records a staged arena slot as pool slot `i`.
void record_slot(SegmentedPool& pool, std::uint64_t i,
                 const RRRSetView& slot) noexcept {
  if (slot.repr() == RRRRepr::kBitmap) {
    pool.set_bitmap(i, slot.words().data(), slot.size());
  } else {
    pool.set_run(i, slot.vertices());
  }
}

/// Writes one sampled set into `arena` as pool slot `i`: a bitmap slot
/// when it has at least `bitmap_min` members (the adaptive
/// representation, §IV-C), otherwise a run sorted in place first, so
/// selection can binary-search it. Tallies the base counters in the same
/// pass (kernel fusion, Algorithm 3).
void stage_members(SegmentedPool& pool, ShardArena& arena, std::uint64_t i,
                   std::vector<VertexId>& members, std::size_t bitmap_min,
                   std::size_t bitmap_words, CounterTally& tally) {
  if (members.size() >= bitmap_min) {
    std::span<std::uint64_t> words;
    (void)arena.allocate_bitmap(bitmap_words, members.size(), words);
    for (const VertexId v : members) {
      words[v >> 6] |= std::uint64_t{1} << (v & 63);
      tally.bump(v);
    }
    pool.set_bitmap(i, words.data(), members.size());
    return;
  }
  std::sort(members.begin(), members.end());
  std::span<VertexId> run;
  (void)arena.allocate(members.size(), run);
  for (std::size_t j = 0; j < members.size(); ++j) {
    run[j] = members[j];
    tally.bump(members[j]);
  }
  pool.set_run(i, run);
}

}  // namespace

int resolve_shards(int requested) {
  if (requested > 0) return requested;
  const std::int64_t env = env_int("EIMM_SHARDS", 0);
  if (env > 0) {
    return static_cast<int>(
        std::min<std::int64_t>(env, std::numeric_limits<int>::max()));
  }
  return numa_topology().num_nodes();
}

ShardPlan ShardPlan::make(std::uint64_t begin, std::uint64_t end,
                          int num_shards, std::size_t num_workers,
                          const NumaTopology& topo) {
  EIMM_CHECK(end >= begin, "invalid shard range");
  const auto shards = static_cast<std::size_t>(std::max(1, num_shards));
  const std::size_t workers = std::max<std::size_t>(1, num_workers);

  ShardPlan plan;
  plan.total_workers = workers;
  plan.shards.resize(shards);
  const auto slices = split_ranges(static_cast<std::size_t>(end - begin),
                                   shards);
  const int domains = std::max(1, topo.num_nodes());
  for (std::size_t s = 0; s < shards; ++s) {
    Shard& shard = plan.shards[s];
    shard.begin = begin + slices[s].first;
    shard.end = begin + slices[s].second;
    shard.domain = topo.nodes.empty()
                       ? 0
                       : topo.nodes[s % static_cast<std::size_t>(domains)];
    if (workers >= shards) {
      const auto [w_lo, w_hi] = block_range(workers, shards, s);
      shard.first_worker = w_lo;
      shard.worker_count = w_hi - w_lo;
    } else {
      // More shards than workers: worker block_owner(...) serves this
      // shard alone (each worker walks a contiguous run of shards).
      shard.first_worker = block_owner(shards, workers, s);
      shard.worker_count = 1;
    }
  }
  return plan;
}

std::vector<std::size_t> ShardPlan::shards_for_worker(std::size_t w) const {
  std::vector<std::size_t> owned;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const Shard& shard = shards[s];
    if (w >= shard.first_worker && w < shard.first_worker + shard.worker_count) {
      owned.push_back(s);
    }
  }
  return owned;
}

ShardedSampler::ShardedSampler(const CSRGraph& reverse, ShardedConfig config)
    : reverse_(reverse), config_(std::move(config)) {
  EIMM_CHECK(config_.shards >= 1, "shard count must be >= 1");
  EIMM_CHECK(config_.batch_size > 0, "batch size must be positive");
}

void ShardedSampler::generate(SegmentedPool& pool, std::uint64_t begin,
                              std::uint64_t end, CounterArray* counters) {
  EIMM_CHECK(end >= begin, "invalid generation range");
  EIMM_CHECK(pool.size() >= end, "pool not resized for generation range");
  EIMM_CHECK(pool.num_vertices() == reverse_.num_vertices(),
             "segmented pool sized for a different graph");
  // Fusion pays only where lanes share traversal work: IC lanes coalesce
  // onto common frontiers, while LT lanes are independent walks, so LT
  // always takes the scalar loop.
  const bool fused =
      config_.fused && config_.model == DiffusionModel::kIndependentCascade;
  // Fused plans in BLOCK units: block b owns global slots [b*64,
  // (b+1)*64), and the round covers blocks [begin/64, ceil(end/64)). A
  // block is one indivisible job, so shard boundaries never split a
  // traversal and the pool stays identical for every shard count. Only
  // the ROUND range can clip a block's lane window (martingale growth is
  // in slots). Batch size is configured in slots either way.
  const std::uint64_t unit = fused ? kFusedLanes : 1;
  const std::uint64_t unit_begin = begin / unit;
  const std::uint64_t unit_end = (end + unit - 1) / unit;
  const std::size_t batch = std::max<std::size_t>(1, config_.batch_size / unit);
  const NumaTopology& topo = numa_topology();
  std::vector<ShardArena>& arenas = pool.arenas_for_staging();
  const std::uint64_t runs_before = total_runs(arenas);
  const VertexId n = reverse_.num_vertices();
  const std::size_t bitmap_words = words_for_bits(n);
  const std::size_t bitmap_min =
      config_.adaptive_representation
          ? bitmap_min_members(n, config_.bitmap_threshold)
          : kNoBitmaps;

  // Scalar work: LT walk steps plus IC in-edges scanned.
  static const obs::Counter steps_counter =
      obs::counter("sampler.scalar.steps_total");
  static const obs::Counter traversals_counter =
      obs::counter("sampler.fused.traversals_total");
  static const obs::Counter fused_sets_counter =
      obs::counter("sampler.fused.sets_total");
  // Fused kernel work: in-edges read by the compaction pass, and the
  // subset that went on to flip coins for at least one lane.
  static const obs::Counter fused_edges_counter =
      obs::counter("sampler.fused.edges_scanned_total");
  static const obs::Counter coin_edges_counter =
      obs::counter("sampler.fused.coin_edges_total");
  // Fused emit work: touched 64-vertex groups transposed as a bit
  // matrix (dense) or scattered lane bit by lane bit (sparse).
  static const obs::Counter transposed_counter =
      obs::counter("sampler.fused.groups_transposed_total");
  static const obs::Counter scattered_counter =
      obs::counter("sampler.fused.groups_scattered_total");
  static const obs::Histogram sets_per_traversal =
      obs::histogram("sampler.fused.sets_per_traversal");
  // Average lanes per touched vertex: 64 means every lane shares every
  // vertex (maximal traversal reuse), 1 means the lanes never overlapped
  // and fusion only amortized bookkeeping.
  static const obs::Histogram lane_occupancy =
      obs::histogram("sampler.fused.lane_occupancy");

  // Pin the team before planning work onto it: ShardPlan hands shard s
  // to a contiguous worker group, and the compact pin plan maps
  // contiguous thread ids to one domain each — together they keep a
  // shard's JobPool, scratch, and kLocal arena pages on one domain
  // instead of relying on OMP_PROC_BIND (the ROADMAP placement gap).
  // No-op on single-node hosts or under EIMM_PIN=none.
  pin_openmp_team();
  ShardPlan plan = ShardPlan::make(
      unit_begin, unit_end, config_.shards,
      static_cast<std::size_t>(omp_get_max_threads()), topo);
  std::vector<std::unique_ptr<JobPool>> jobs;

  // Runs stage_unit(u) for every unit of worker `wid`'s shards. One span
  // per worker-shard region: the trace shows which domain each worker
  // drained and for how long.
  auto drain = [&](std::size_t wid, const char* span_name, auto&& stage_unit) {
    for (const std::size_t s : plan.shards_for_worker(wid)) {
      const ShardPlan::Shard& shard = plan.shards[s];
      const std::size_t local = wid - shard.first_worker;
      obs::TraceSpan span(span_name, "shard", static_cast<std::int64_t>(s),
                          "domain", shard.domain, "worker",
                          static_cast<std::int64_t>(wid));
      for (JobBatch b = jobs[s]->next(local); !b.empty();
           b = jobs[s]->next(local)) {
        for (std::size_t j = b.begin; j < b.end; ++j) {
          stage_unit(shard.begin + j);
        }
      }
    }
  };

  if (end > begin) {
#pragma omp parallel
    {
#pragma omp single
      {
        // The plan must describe the team that actually materialized:
        // OMP_DYNAMIC, thread limits, or an enclosing parallel region
        // can hand us fewer threads than omp_get_max_threads() promised,
        // and a shard assigned to an absent worker would never drain.
        const auto team = static_cast<std::size_t>(omp_get_num_threads());
        if (team != plan.total_workers) {
          plan = ShardPlan::make(unit_begin, unit_end, config_.shards, team,
                                 topo);
        }
        // One job pool per shard: stealing is confined to the shard's
        // worker group, so the locality the plan establishes survives
        // imbalance. Arenas are worker-private (single writer each) and
        // PERSISTENT — growing rounds keep appending into the same
        // chunk set instead of mapping fresh arenas per round.
        make_jobs(plan, batch, jobs);
        pool.ensure_workers(plan.total_workers);
      }  // implicit barrier: every worker sees the final plan

      const auto wid = static_cast<std::size_t>(omp_get_thread_num());
      if (wid < plan.total_workers) {
        ShardArena& arena = arenas[wid];
        CounterTally tally(counters, n);
        if (fused) {
          FusedScratch scratch(n);
          std::array<ShardArena::Ref, kFusedLanes> lane_refs;
          std::uint64_t local_traversals = 0;
          std::uint64_t local_sets = 0;
          std::uint64_t local_edges = 0;
          std::uint64_t local_coin_edges = 0;
          std::uint64_t local_transposed = 0;
          std::uint64_t local_scattered = 0;
          drain(wid, "sampler.fused", [&](std::uint64_t block) {
            const std::uint64_t slot_lo = std::max(begin, block * kFusedLanes);
            const std::uint64_t slot_hi =
                std::min(end, (block + 1) * kFusedLanes);
            const auto lane_lo =
                static_cast<unsigned>(slot_lo - block * kFusedLanes);
            const auto lane_hi =
                static_cast<unsigned>(slot_hi - block * kFusedLanes);
            const FusedTraversalStats tstats = sample_rrr_fused_into(
                reverse_, config_.model, config_.rng_seed, block, lane_lo,
                lane_hi, scratch, arena, lane_refs.data(), bitmap_min, tally);
            for (std::uint64_t i = slot_lo; i < slot_hi; ++i) {
              record_slot(pool, i, arena.slot(lane_refs[i - slot_lo]));
            }
            ++local_traversals;
            local_sets += tstats.lanes;
            local_edges += tstats.edges_scanned;
            local_coin_edges += tstats.coin_edges;
            local_transposed += tstats.groups_transposed;
            local_scattered += tstats.groups_scattered;
            sets_per_traversal.observe(tstats.lanes);
            if (tstats.touched > 0) {
              lane_occupancy.observe(tstats.members / tstats.touched);
            }
          });
          traversals_counter.add(local_traversals);
          fused_sets_counter.add(local_sets);
          fused_edges_counter.add(local_edges);
          coin_edges_counter.add(local_coin_edges);
          transposed_counter.add(local_transposed);
          scattered_counter.add(local_scattered);
        } else {
          // Allocation-free: each set is walked into the reused scratch,
          // sorted there in place, and written once into the worker's
          // own arena and pool entry.
          SamplerScratch scratch(n);
          std::uint64_t steps = 0;
          drain(wid, "sampler.shard", [&](std::uint64_t global) {
            steps += sample_rrr_into(reverse_, config_.model, config_.rng_seed,
                                     global, scratch);
            stage_members(pool, arena, global, scratch.members, bitmap_min,
                          bitmap_words, tally);
          });
          steps_counter.add(steps);
        }
        tally.flush();
      }
    }
  }

  record_round(stats_, plan, jobs, arenas, begin, end, unit);
  // Every slot must have been staged exactly once; a scheduling bug here
  // would otherwise surface as silently-empty RRR sets far downstream.
  EIMM_CHECK(total_runs(arenas) - runs_before == end - begin,
             "sharded generation lost RRR slots");
}

}  // namespace eimm
