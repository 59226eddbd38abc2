#include "core/imm.hpp"

#include <omp.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "core/martingale.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_info.hpp"
#include "rrr/generate.hpp"
#include "rrr/pool.hpp"
#include "rrr/sharded.hpp"
#include "seedselect/engine.hpp"
#include "support/macros.hpp"
#include "support/timer.hpp"

namespace eimm {
namespace {

/// The Ripples baseline's generation loop: pool slots [begin, end) as
/// sorted vectors under a static θ/p split, the parallelization §II-B
/// describes. EfficientIMM builds go through the ShardedSampler instead
/// (see build_rrr_pool).
void generate_ripples_range(RRRPool& pool, const CSRGraph& reverse,
                            const ImmOptions& opt, std::uint64_t begin,
                            std::uint64_t end) {
#pragma omp parallel
  {
    SamplerScratch scratch(reverse.num_vertices());
#pragma omp for schedule(static)
    for (std::uint64_t i = begin; i < end; ++i) {
      pool[i] = RRRSet::make_vector(
          sample_rrr(reverse, opt.model, opt.rng_seed, i, scratch));
    }
  }
}

/// Counter shards this run's selection phase uses: the ripples baseline
/// and the --no-numa ablation both force the legacy flat layout (the
/// whole sharded-counter machinery is a NUMA feature, so the numa_aware
/// flag must gate it for the ablation benches to measure anything).
int resolved_counter_shards(const ImmOptions& options, Engine engine) {
  if (engine != Engine::kEfficient || !options.numa_aware) return 1;
  return resolve_counter_shards(options.counter_shards);
}

/// The selection-phase engine for one run: pinned thread team, counter
/// layout (flat vs domain-sharded) resolved from the options/environment.
SelectionEngine make_selection_engine(const ImmOptions& options,
                                      Engine engine) {
  SelectionEngineConfig config;
  config.counter_shards = resolved_counter_shards(options, engine);
  config.counter_policy = (engine == Engine::kEfficient && options.numa_aware)
                              ? MemPolicy::kInterleave
                              : MemPolicy::kDefault;
  return SelectionEngine(config);
}

/// One greedy selection pass over the build, consuming whichever storage
/// backs it IN PLACE through the pool view (no flattening) and reusing
/// both the fused base counters and the build's SelectionWorkspace.
/// Shared by the probing loop and the final selection so both see
/// identical SelectionOptions and the whole run performs exactly one
/// counter-layout allocation.
SelectionResult select_over_build(PoolBuild& build, const ImmOptions& options,
                                  Engine engine) {
  SelectionOptions sopt;
  sopt.k = options.k;
  sopt.adaptive_update =
      engine == Engine::kEfficient && options.adaptive_update;
  sopt.dynamic_balance =
      engine == Engine::kEfficient && options.dynamic_balance;
  sopt.batch_size = options.batch_size;
  const SelectionEngine selection = make_selection_engine(options, engine);
  if (engine == Engine::kEfficient) {
    return selection.select(
        SelectionKernel::kEfficient, build.view(), sopt,
        build.counters_prebuilt ? &build.base_counters : nullptr,
        &build.workspace);
  }
  return selection.select(SelectionKernel::kRipples, build.view(), sopt,
                          nullptr, &build.workspace);
}

/// Sum of the k largest counters. Every set a k-seed greedy covers holds
/// one of its seeds, so this bounds the covered-set count of any seed set
/// of at most k vertices. `heap` is reused scratch: a min-heap of the k
/// largest counts seen so far, never more than k entries.
std::uint64_t top_k_counter_sum(const CounterArray& counters, std::size_t k,
                                std::vector<std::uint64_t>& heap) {
  const std::greater<> min_heap;
  heap.clear();
  for (std::size_t v = 0; v < counters.size(); ++v) {
    const std::uint64_t count = counters.get(v);
    if (heap.size() < k) {
      heap.push_back(count);
      std::push_heap(heap.begin(), heap.end(), min_heap);
    } else if (count > heap.front()) {
      std::pop_heap(heap.begin(), heap.end(), min_heap);
      heap.back() = count;
      std::push_heap(heap.begin(), heap.end(), min_heap);
    }
  }
  return std::accumulate(heap.begin(), heap.end(), std::uint64_t{0});
}

/// Registry handles for the pipeline-level metrics; registered once per
/// process (the factories are idempotent anyway).
struct CoreMetrics {
  obs::Counter runs = obs::counter("imm.runs_total");
  obs::Counter final_reused = obs::counter("selection.final_reused_total");
  obs::Counter sets = obs::counter("sampling.sets_total");
  obs::Histogram generate_us = obs::histogram("sampling.generate_us");
  obs::Gauge pool_sets = obs::gauge("imm.pool_sets");
  obs::Gauge pool_bytes = obs::gauge("imm.rrr_memory_bytes");
};

CoreMetrics& core_metrics() {
  static CoreMetrics m;
  return m;
}

}  // namespace

PoolBuild build_rrr_pool(const DiffusionGraph& graph,
                         const ImmOptions& options, Engine engine) {
  EIMM_CHECK(graph.reverse.has_weights(),
             "assign diffusion weights to graph.reverse before run_imm");
  const VertexId n = graph.num_vertices();
  EIMM_CHECK(n >= 2, "graph too small");

  ThreadCountScope thread_scope(options.threads);

  const MartingaleParams params =
      compute_martingale_params(n, options.k, options.epsilon, options.ell);

  const bool use_fusion =
      engine == Engine::kEfficient && options.kernel_fusion;
  const MemPolicy policy = (engine == Engine::kEfficient && options.numa_aware)
                               ? MemPolicy::kInterleave
                               : MemPolicy::kDefault;

  PoolBuild build;
  build.pool = RRRPool(n);
  if (use_fusion) {
    build.base_counters = CounterArray(n, policy);
    build.counters_prebuilt = true;
  }
  build.shards_used =
      engine == Engine::kEfficient ? resolve_shards(options.shards) : 1;
  // Fusion serves IC only; an LT build samples scalar whatever was asked.
  build.fused_sampling_used =
      engine == Engine::kEfficient &&
      options.model == DiffusionModel::kIndependentCascade &&
      resolve_fused_sampling(options.fused_sampling);
  // Every EfficientIMM build stages through the ShardedSampler into the
  // segmented zero-copy storage; build.pool serves the Ripples baseline.
  build.segmented = engine == Engine::kEfficient;

  // Compressed backing (kEfficient only): rounds are gap-coded into
  // build.cpool as they land, and the raw staging storage is recycled,
  // so the resident pool is the compressed image plus ONE round of raw
  // staging. Selection and probing read the compressed view; contents
  // are identical, so seeds are too.
  const PoolCompression compression =
      engine == Engine::kEfficient
          ? resolve_pool_compression(options.pool_compress)
          : PoolCompression::kNone;
  build.compressed = compression != PoolCompression::kNone;
  if (build.compressed) {
    build.cpool = CompressedPool(n, compression == PoolCompression::kHuffman
                                        ? PoolCodec::kHuffman
                                        : PoolCodec::kVarint);
  }

  // The sharded sampler persists across the martingale rounds: its
  // arenas (owned by build.segments) keep accumulating staged slots, and
  // selection reads them in place through build.view().
  std::optional<ShardedSampler> sampler;
  if (build.segmented) {
    build.segments = SegmentedPool(n);
    ShardedConfig config;
    config.shards = build.shards_used;
    config.model = options.model;
    config.rng_seed = options.rng_seed;
    config.batch_size = options.batch_size;
    config.adaptive_representation = options.adaptive_representation;
    config.bitmap_threshold = options.bitmap_threshold;
    config.fused = build.fused_sampling_used;
    sampler.emplace(graph.reverse, config);
  }

  std::uint64_t generated = 0;

  auto generate_to = [&](std::uint64_t target) {
    target = cap_theta_request(target, options.max_rrr_sets,
                               build.theta_capped);
    if (target <= generated) return;
    ScopedAccumulator acc(build.sampling_seconds);
    obs::TraceSpan span("sampling.generate", "from",
                        static_cast<std::int64_t>(generated), "to",
                        static_cast<std::int64_t>(target), "shards",
                        build.shards_used);
    Timer generate_timer;
    if (build.segmented) {
      build.segments.resize(target);
      sampler->generate(build.segments, generated, target,
                        use_fusion ? &build.base_counters : nullptr);
      build.shard_stats = sampler->stats();
    } else {
      build.pool.resize(target);
      generate_ripples_range(build.pool, graph.reverse, options, generated,
                             target);
    }
    core_metrics().sets.add(target - generated);
    core_metrics().generate_us.observe(generate_timer.nanos() / 1000);
    if (build.compressed) {
      // Encode the fresh round, then recycle its raw staging storage.
      // Fused base counters were already incremented during generation,
      // so dropping the raw sets loses nothing the kernels need.
      build.cpool.append(build.segments, generated, target);
      build.segments.reset_arenas();
    }
    generated = target;
  };

  auto probe_coverage = [&]() -> double {
    ScopedAccumulator acc(build.probing_selection_seconds);
    obs::TraceSpan span("selection.probe");
    build.last_probe = select_over_build(build, options, engine);
    return build.last_probe->coverage_fraction();
  };

  // Certified probe rejection: the fused base counters already hold every
  // vertex's count over the pool, so the top-k sum over the pool size
  // bounds any probe's coverage. The divisor is the pool size, not θ_i:
  // under a max_rrr_sets cap the pool is smaller, and the greedy divides
  // by the pool size too. Without prebuilt counters (kernel fusion off,
  // and always for the Ripples baseline) every probe runs its greedy.
  std::vector<std::uint64_t> top_k_heap;
  std::function<double()> coverage_upper_bound;
  if (build.counters_prebuilt) {
    coverage_upper_bound = [&]() -> double {
      ScopedAccumulator acc(build.probing_selection_seconds);
      const std::size_t sets = build.size();
      if (sets == 0) return 0.0;
      const std::uint64_t top_k =
          top_k_counter_sum(build.base_counters, options.k, top_k_heap);
      return static_cast<double>(top_k) / static_cast<double>(sets);
    };
  }

  // --- Sampling phase: probe OPT guesses x_i = n / 2^i, then Set Theta ---
  build.theta = run_martingale_probing(
      params, generate_to, probe_coverage,
      [&](const MartingaleIteration& record) {
        build.iterations.push_back(record);
      },
      coverage_upper_bound);
  return build;
}

SelectionResult final_selection(PoolBuild& build, const ImmOptions& options,
                                Engine engine) {
  // The last probe already ran this very greedy when no set was added
  // since: same pool content, options, base counters and tie-break.
  const bool reused = engine == Engine::kEfficient &&
                      build.last_probe.has_value() &&
                      build.last_probe->total_sets == build.size();
  obs::TraceSpan span("selection.final", "k",
                      static_cast<std::int64_t>(options.k), "reused",
                      reused ? 1 : 0);
  if (!reused) return select_over_build(build, options, engine);
  core_metrics().final_reused.add();
  return std::move(*build.last_probe);
}

ImmResult run_imm(const DiffusionGraph& graph, const ImmOptions& options,
                  Engine engine) {
  ThreadCountScope thread_scope(options.threads);
  Timer total_timer;
  obs::TraceSpan run_span("run_imm", "k", static_cast<std::int64_t>(options.k));

  PoolBuild build = build_rrr_pool(graph, options, engine);
  const RRRPoolView view = build.view();
  const VertexId n = view.num_vertices();
  core_metrics().pool_sets.set(static_cast<std::int64_t>(view.size()));
  core_metrics().pool_bytes.set(
      static_cast<std::int64_t>(view.memory_bytes()));

  PhaseBreakdown breakdown;
  breakdown.sampling_seconds = build.sampling_seconds;
  breakdown.selection_seconds = build.probing_selection_seconds;

  // --- Selection phase ---
  SelectionResult selection;
  {
    ScopedAccumulator acc(breakdown.selection_seconds);
    selection = final_selection(build, options, engine);
  }
  core_metrics().runs.add();

  ImmResult result;
  result.iterations = std::move(build.iterations);
  result.seeds = selection.seeds;
  result.coverage_fraction = selection.coverage_fraction();
  result.estimated_spread =
      static_cast<double>(n) * result.coverage_fraction;
  result.theta = build.theta;
  result.num_rrr_sets = view.size();
  result.theta_capped = build.theta_capped;
  result.rrr_memory_bytes = view.memory_bytes();
  result.bitmap_sets = view.bitmap_count();
  result.rebuild_rounds = selection.rebuild_rounds;
  result.threads_used = omp_get_max_threads();
  result.shards_used = build.shards_used;
  result.fused_sampling_used = build.fused_sampling_used;
  result.counter_shards_used = resolved_counter_shards(options, engine);
  result.counter_layout_allocations = build.workspace.counter_allocations();
  result.staged_bytes = build.shard_stats.staged_bytes;
  result.mapped_bytes = build.shard_stats.mapped_bytes;
  if (build.compressed) {
    result.pool_compression_used = build.cpool.codec() == PoolCodec::kHuffman
                                       ? PoolCompression::kHuffman
                                       : PoolCompression::kVarint;
    result.compressed_payload_bytes = build.cpool.payload_bytes();
    result.encode_seconds = build.cpool.encode_seconds();
  }
  breakdown.total_seconds = total_timer.seconds();
  result.breakdown = breakdown;
  return result;
}

}  // namespace eimm
