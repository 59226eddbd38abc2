// Public entry points: the full IMM workflow (Algorithm 1) with two
// interchangeable execution engines.
//
//   Engine::kEfficient — EfficientIMM (the paper's contribution): RRR-set
//     partitioning with a shared atomic counter, kernel fusion, adaptive
//     RRR representation, adaptive counter updates, dynamic job
//     balancing, NUMA-interleaved shared state. Every feature is an
//     independent flag so the ablation benches can toggle them.
//
//   Engine::kRipples — the baseline strategy the paper measures against:
//     sorted-vector RRR sets, separate generation/selection kernels,
//     vertex-partitioned selection with thread-local counters and
//     binary search over all sets, static scheduling.
//
// Both engines run the identical martingale workflow. EfficientIMM only
// skips work whose outcome is already known:
//   - certified probe rejection: with fused base counters (kernel
//     fusion), a probe whose top-k counter sum over the pool size fails
//     the acceptance bar cannot accept, so its greedy is skipped
//     (MartingaleIteration::skipped; see run_martingale_probing);
//   - when the top-up adds no set after the last probe, that probe's
//     selection is the final one (PoolBuild::last_probe).
// Accept decisions, θ, pools and seeds are those of a run without
// either shortcut. On sparse LT pools the rejected probes are all
// skipped, so a typical run selects once in total.
// With fused sampling off (FusedSampling::kOff or EIMM_FUSED=0) they also
// build identical RRR-set contents from the same seed, so runtime
// differences are purely the parallelization strategy, exactly as the
// paper frames them. Fused sampling — the EfficientIMM default, IC only —
// makes IC contents only statistically equivalent (ctest -L statcheck);
// LT always samples scalar, so LT contents are identical in every mode.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/martingale.hpp"
#include "diffusion/model.hpp"
#include "graph/csr.hpp"
#include "rrr/compressed_pool.hpp"
#include "rrr/fused.hpp"
#include "rrr/pool.hpp"
#include "rrr/pool_view.hpp"
#include "rrr/sharded.hpp"
#include "rrr/set.hpp"
#include "runtime/atomic_counters.hpp"
#include "seedselect/engine.hpp"

namespace eimm {

enum class Engine { kEfficient, kRipples };

constexpr std::string_view to_string(Engine e) noexcept {
  return e == Engine::kEfficient ? "EfficientIMM" : "Ripples";
}

struct ImmOptions {
  /// Seed-set budget (paper evaluation: k = 50).
  std::size_t k = 50;
  /// Approximation accuracy ε (paper evaluation: ε = 0.5).
  double epsilon = 0.5;
  /// Failure-probability exponent: success w.p. ≥ 1 - 1/n^ℓ.
  double ell = 1.0;
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  /// OpenMP threads; 0 = library default.
  int threads = 0;
  /// Base seed; all RRR-set streams derive from (seed, index), so results
  /// are reproducible across thread counts and schedules.
  std::uint64_t rng_seed = 0x5EEDBA5Eu;

  // --- EfficientIMM feature flags (ablations in bench/) ---
  /// Fuse Generate_RRRsets with the initial counter build (Algorithm 3).
  bool kernel_fusion = true;
  /// Adaptive vector/bitmap RRR representation (§IV-C), applied on every
  /// EfficientIMM path (scalar and fused, any shard count): sets with at
  /// least bitmap_threshold·|V| members are stored as |V|/8-byte bitmap
  /// slots, the rest as sorted runs. Set contents and seeds are
  /// identical either way; only storage and bitmap_sets change.
  bool adaptive_representation = true;
  /// Adaptive decrement-vs-rebuild counter update (§IV-C / Fig. 5).
  bool adaptive_update = true;
  /// Stealing job pool instead of static partitions (§IV-C) in the
  /// selection kernel. Sampling always drains the sharded sampler's
  /// per-shard stealing job pools.
  bool dynamic_balance = true;
  /// Interleave shared arrays across NUMA nodes (§IV-B); silently a
  /// no-op on single-node hosts.
  bool numa_aware = true;
  /// Bitmap-representation crossover, as a fraction of |V|.
  double bitmap_threshold = kDefaultBitmapThreshold;
  /// RRR sets per dynamic-balancing batch.
  std::size_t batch_size = 64;
  /// NUMA sampling shards (rrr/sharded.hpp). 0 resolves from the
  /// EIMM_SHARDS environment variable, defaulting to the detected NUMA
  /// domain count; 1 runs the same sharded sampler with one shard (no
  /// separate generation loop exists). Pool contents are bit-identical
  /// for every value — per-index RNG streams — so this only moves
  /// storage placement and scheduling.
  int shards = 0;
  /// NUMA counter shards for the selection phase (seedselect/engine.hpp):
  /// one domain-local counter replica per shard. 0 resolves from the
  /// EIMM_COUNTER_SHARDS environment variable, defaulting to the
  /// detected NUMA domain count; 1 keeps the legacy flat CounterArray.
  /// Forced to 1 when numa_aware is false (the sharded counter is a
  /// NUMA feature, so the --no-numa ablation disables it too). Seed
  /// sequences are bit-identical for every value — the sharded layout
  /// only moves counter placement, never greedy outcomes.
  int counter_shards = 0;

  /// Safety cap on total RRR sets — keeps bench-scale LT runs (θ up to
  /// 1e8-1e9 in the paper) tractable. Capped runs are flagged in the
  /// result; the quality guarantee then degrades gracefully.
  std::uint64_t max_rrr_sets = 1u << 22;

  /// Fused 64-wide IC sampling (rrr/fused.hpp): one traversal emits up
  /// to 64 RRR sets by packing lanes into a per-vertex uint64_t visited
  /// word. kAuto resolves the EIMM_FUSED environment variable (default
  /// ON; EIMM_FUSED=0 selects the scalar sampler). kEfficient engine and
  /// IC model only: LT walks share no traversal work, so an LT build
  /// samples scalar under every value. Fused pools are identical across
  /// shard counts and deterministic in the seed, but only STATISTICALLY
  /// equivalent to scalar IC (the joint traversal reorders coin flips) —
  /// the statcheck spread-ratio harness validates the mode instead of
  /// bit-identity.
  FusedSampling fused_sampling = FusedSampling::kAuto;
};

/// Wall-clock attribution matching the paper's Fig. 2 breakdown.
struct PhaseBreakdown {
  double sampling_seconds = 0.0;    // Generate_RRRsets (all rounds)
  double selection_seconds = 0.0;   // Find_Most_Influential_Set (all calls)
  double total_seconds = 0.0;
  [[nodiscard]] double other_seconds() const noexcept {
    const double other = total_seconds - sampling_seconds - selection_seconds;
    return other > 0.0 ? other : 0.0;
  }
};

struct ImmResult {
  std::vector<VertexId> seeds;
  /// F(S) over the final pool.
  double coverage_fraction = 0.0;
  /// n · F(S): the unbiased influence-spread estimate.
  double estimated_spread = 0.0;
  /// θ the martingale bound requested (may exceed num_rrr_sets when the
  /// max_rrr_sets cap kicked in).
  std::uint64_t theta = 0;
  std::uint64_t num_rrr_sets = 0;
  bool theta_capped = false;
  std::uint64_t rrr_memory_bytes = 0;
  std::uint64_t bitmap_sets = 0;
  std::uint32_t rebuild_rounds = 0;
  int threads_used = 0;
  /// Sampling shards the build used (1 on non-NUMA hosts by default).
  int shards_used = 1;
  /// Counter shards the selection phase used (1 = legacy flat array).
  int counter_shards_used = 1;
  /// Working counter-layout allocations across ALL selections of this
  /// run (probes + final). The SelectionWorkspace contract keeps this at
  /// exactly 1 for Engine::kEfficient (the workspace-reuse regression
  /// test pins it); the ripples kernel owns its thread-local counters
  /// internally, so kRipples runs report 0.
  std::uint64_t counter_layout_allocations = 0;
  /// Sharded-pipeline byte accounting (both zero for the ripples
  /// engine): payload staged into arenas and arena bytes mapped.
  std::uint64_t staged_bytes = 0;
  std::uint64_t mapped_bytes = 0;
  /// Whether the build sampled through the fused 64-wide generator
  /// (resolved from the option and EIMM_FUSED; false for LT).
  bool fused_sampling_used = false;
  /// Always kNone: pools are stored raw. Kept only because
  /// perfbench/driver.cpp reports it (see rrr/compressed_pool.hpp).
  PoolCompression pool_compression_used = PoolCompression::kNone;
  PhaseBreakdown breakdown;
  /// Sampling-phase probe history (diagnostics; one entry per executed
  /// iteration of the Algorithm 1 loop, skipped probes included).
  std::vector<MartingaleIteration> iterations;
};

/// Everything the sampling phase produces: the frozen RRR state plus the
/// provenance a consumer needs to reuse it without regenerating. run_imm
/// performs (or, via last_probe, reuses) its final selection over
/// exactly this state, and the serve/ subsystem freezes it into a
/// queryable SketchStore.
///
/// Storage: the ripples engine fills `pool` (sorted-vector RRRSets);
/// every EfficientIMM build stages straight into `segments` — sorted
/// runs plus, under the adaptive representation, bitmap slots — and
/// NEVER builds the contiguous image. Consumers read through view(),
/// which works over either, and call view().flatten() only when they
/// genuinely need the flat CSR (snapshots).
struct PoolBuild {
  RRRPool pool{0};
  /// Zero-copy segmented storage (populated iff `segmented`, i.e. for
  /// every EfficientIMM build).
  SegmentedPool segments;
  bool segmented = false;
  /// Fused base counters (kernel fusion, Algorithm 3); valid — and worth
  /// copying instead of rebuilding — only when counters_prebuilt.
  CounterArray base_counters;
  bool counters_prebuilt = false;
  /// Reusable selection scratch, shared by the probing rounds and —
  /// when run_imm drives the build — the final selection, so one run
  /// allocates exactly one working counter layout.
  SelectionWorkspace workspace;
  /// Sampler diagnostics (empty for the ripples engine).
  ShardStats shard_stats;
  std::uint64_t theta = 0;
  bool theta_capped = false;
  double sampling_seconds = 0.0;
  /// Selection time spent inside the probing iterations, the top-k
  /// bounds of certified probe rejection included (the final selection
  /// happens outside this struct's lifetime).
  double probing_selection_seconds = 0.0;
  /// The last probing iteration that ran its greedy (a skipped probe
  /// leaves it untouched), over the first
  /// last_probe->total_sets sets. When the top-up added no set after it
  /// (the usual case: the accepted probe's pool already exceeds θ),
  /// run_imm returns it as the final selection instead of re-running
  /// the identical greedy — Engine::kEfficient only; the Ripples
  /// baseline always re-runs, as the paper's Algorithm 1 does.
  std::optional<SelectionResult> last_probe;
  /// Resolved sampling shard count (always 1 for the ripples engine).
  int shards_used = 1;
  /// Whether generation went through the fused 64-wide sampler (IC only).
  bool fused_sampling_used = false;
  std::vector<MartingaleIteration> iterations;

  /// The one surface selection-side consumers read the build through.
  [[nodiscard]] RRRPoolView view() const noexcept {
    return segmented ? RRRPoolView(segments) : RRRPoolView(pool);
  }
  /// Number of RRR sets in whichever storage is active.
  [[nodiscard]] std::size_t size() const noexcept {
    return segmented ? segments.size() : pool.size();
  }
};

/// Runs the sampling phase only — martingale probing plus RRR-set
/// generation — and returns the pool run_imm would have selected over.
/// Deterministic in (graph, options, engine): the same inputs yield the
/// same pool contents regardless of thread count.
PoolBuild build_rrr_pool(const DiffusionGraph& graph,
                         const ImmOptions& options, Engine engine);

/// The selection run_imm returns over `build`: the last probe's, moved
/// out of build.last_probe, when no set was added after it (Engine::
/// kEfficient only), otherwise a fresh greedy over build.view() that
/// reuses the build's base counters and workspace. Emits the
/// "selection.final" span with its `reused` arg.
SelectionResult final_selection(PoolBuild& build, const ImmOptions& options,
                                Engine engine);

/// Runs the full IMM workflow with the chosen engine. The reverse graph
/// must already carry diffusion weights (see diffusion/weights.hpp).
ImmResult run_imm(const DiffusionGraph& graph, const ImmOptions& options,
                  Engine engine);

/// EfficientIMM with all optimizations as configured in `options`.
inline ImmResult run_efficient_imm(const DiffusionGraph& graph,
                                   const ImmOptions& options) {
  return run_imm(graph, options, Engine::kEfficient);
}

/// The Ripples-strategy baseline (feature flags ignored).
inline ImmResult run_baseline_imm(const DiffusionGraph& graph,
                                  const ImmOptions& options) {
  return run_imm(graph, options, Engine::kRipples);
}

}  // namespace eimm
