#include "seedselect/engine.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <vector>

#include "numa/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rrr/bitset.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "support/macros.hpp"
#include "support/timer.hpp"

namespace eimm {

namespace {

/// Copies a fused base into the flat working layout (the final selection
/// mutates its counter; the base stays valid for reuse in the next
/// martingale round). Same undersized-base contract as
/// ShardedCounterArray::load_base — a silent truncation here would skip
/// the initial build with zeroed tail counters and quietly mis-select.
void copy_base_flat(const CounterArray& base, CounterArray& working) {
  EIMM_CHECK(base.size() >= working.size(),
             "base counter smaller than working layout");
  const std::size_t n = working.size();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    working.set(i, base.get(i));
  }
}

/// Compiles the whitelist/blacklist into a per-vertex mask; empty when
/// the query is unconstrained (every vertex eligible). Ids must already
/// be validated.
std::vector<std::uint8_t> build_mask(const SketchStore& store,
                                     const QueryOptions& q) {
  if (!q.constrained()) return {};
  const VertexId n = store.num_vertices();
  std::vector<std::uint8_t> mask;
  if (q.candidates.empty()) {
    mask.assign(n, 1);
  } else {
    mask.assign(n, 0);
    for (const VertexId v : q.candidates) mask[v] = 1;
  }
  for (const VertexId v : q.forbidden) mask[v] = 0;
  return mask;
}

}  // namespace

void validate_store_query(const SketchStore& store,
                          const QueryOptions& query) {
  EIMM_CHECK(query.k > 0, "query k must be positive");
  EIMM_CHECK(query.k <= store.k_max(),
             "query k exceeds the store's build-time cap");
  const VertexId n = store.num_vertices();
  for (const VertexId v : query.candidates) {
    EIMM_CHECK(v < n, "candidate vertex out of range");
  }
  for (const VertexId v : query.forbidden) {
    EIMM_CHECK(v < n, "forbidden vertex out of range");
  }
}

SelectionEngine::SelectionEngine(SelectionEngineConfig config)
    : shards_(resolve_counter_shards(config.counter_shards)),
      pin_(effective_pin_mode(config.pin.value_or(resolve_pin_mode()),
                              numa_topology())),
      counter_policy_(config.counter_policy) {}

SelectionResult SelectionEngine::select(SelectionKernel kernel,
                                        const RRRPoolView& pool,
                                        const SelectionOptions& options,
                                        const CounterArray* base,
                                        SelectionWorkspace* workspace) const {
  static const obs::Counter runs = obs::counter("selection.runs_total");
  static const obs::Histogram run_us = obs::histogram("selection.run_us");
  static const obs::Counter rounds_indexed =
      obs::counter("selection.rounds_indexed");
  static const obs::Counter rounds_scanned =
      obs::counter("selection.rounds_scanned");
  static const obs::Counter rounds_rebuilt =
      obs::counter("selection.rounds_rebuilt");
  obs::TraceSpan span("selection.select", "kernel",
                      kernel == SelectionKernel::kEfficient ? 0 : 1,
                      "counter_shards", shards_, "sets",
                      static_cast<std::int64_t>(pool.size()));
  Timer timer;
  SelectionResult result = select_impl(kernel, pool, options, base, workspace);
  runs.add();
  run_us.observe(timer.nanos() / 1000);
  // Every pick ends in one counter update: a rebuild, an indexed
  // decrement, or a scanning decrement (all Ripples rounds scan).
  rounds_indexed.add(result.indexed_rounds);
  rounds_rebuilt.add(result.rebuild_rounds);
  rounds_scanned.add(result.seeds.size() - result.indexed_rounds -
                     result.rebuild_rounds);
  return result;
}

SelectionResult SelectionEngine::select_impl(
    SelectionKernel kernel, const RRRPoolView& pool,
    const SelectionOptions& options, const CounterArray* base,
    SelectionWorkspace* workspace) const {
  // Pin the team first: the same OS threads serve every parallel region
  // the kernel spawns, so one pinning pass places the whole phase (and
  // the sharded replicas' first touch lands on the right domains).
  pin_openmp_team(pin_);

  SelectionOptions sopt = options;
  if (workspace != nullptr) {
    sopt.alive_scratch = &workspace->alive_;
    sopt.heap_scratch = &workspace->heap_;
  }

  if (kernel == SelectionKernel::kRipples) {
    return ripples_select_t<NullMem>(pool, sopt);
  }

  const VertexId n = pool.num_vertices();
  sopt.counters_prebuilt = base != nullptr;

  if (workspace == nullptr) {
    // One-shot path: a fresh working layout for this call only.
    if (shards_ <= 1) {
      CounterArray working(n, counter_policy_);
      if (base != nullptr) copy_base_flat(*base, working);
      return efficient_select_t<NullMem>(pool, working, sopt);
    }
    ShardedCounterArray working(n, shards_);
    if (base != nullptr) working.load_base(*base);
    return efficient_select_t<NullMem, ShardedCounterArray>(pool, working,
                                                            sopt);
  }

  // Workspace path: allocate the layout once, then reset+reload between
  // calls. A geometry or configuration change (different n, shard count,
  // or placement policy) forces a re-allocation — the probe loop never
  // triggers this, and counter_allocations() exposes it if it happens.
  SelectionWorkspace& ws = *workspace;
  const bool fresh = !ws.allocated_ || ws.n_ != n || ws.shards_ != shards_ ||
                     ws.policy_ != counter_policy_;
  if (fresh) {
    ws.n_ = n;
    ws.shards_ = shards_;
    ws.policy_ = counter_policy_;
    ws.flat_ = shards_ <= 1 ? CounterArray(n, counter_policy_)
                            : CounterArray();
    ws.sharded_ = shards_ > 1 ? ShardedCounterArray(n, shards_)
                              : ShardedCounterArray();
    ws.allocated_ = true;
    ++ws.counter_allocations_;
  } else {
    // Freshly mapped layouts come back zeroed; reused ones must be wiped
    // before the reload (or the kernel's initial build when no fused
    // base exists) so probe round N+1 never sees round N's decrements.
    // With a base present the reload below IS the wipe (copy_base_flat
    // overwrites every flat slot; reload_base fuses wipe+load for the
    // sharded layout), so the explicit reset only covers the no-base
    // case.
    ++ws.reuses_;
    if (base == nullptr) {
      if (shards_ <= 1) {
        ws.flat_.reset();
      } else {
        ws.sharded_.reset();
      }
    }
  }
  if (shards_ <= 1) {
    if (base != nullptr) copy_base_flat(*base, ws.flat_);
    return efficient_select_t<NullMem>(pool, ws.flat_, sopt);
  }
  if (base != nullptr) {
    if (fresh) {
      ws.sharded_.load_base(*base);  // already zeroed by construction
    } else {
      ws.sharded_.reload_base(*base);
    }
  }
  return efficient_select_t<NullMem, ShardedCounterArray>(pool, ws.sharded_,
                                                          sopt);
}

std::vector<LazyArgMaxHeap::Entry> store_degree_order(
    const SketchStore& store) {
  using Entry = LazyArgMaxHeap::Entry;
  std::vector<Entry> order;
  std::uint64_t max_degree = 0;
  for (VertexId v = 0; v < store.num_vertices(); ++v) {
    const std::uint64_t degree = store.degree(v);
    if (degree == 0) continue;
    order.push_back({degree, v});
    max_degree = std::max(max_degree, degree);
  }
  // LSD radix sort on max_degree - degree, 8 bits a pass: each pass is
  // stable, so equal degrees keep the ascending ids they were pushed in.
  std::vector<Entry> scratch(order.size());
  for (unsigned shift = 0; shift < 64 && (max_degree >> shift) != 0;
       shift += 8) {
    std::array<std::size_t, 257> start{};
    const auto digit = [&](const Entry& e) {
      return static_cast<std::size_t>(((max_degree - e.count) >> shift) &
                                      0xFF);
    };
    for (const Entry& e : order) ++start[digit(e) + 1];
    for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (const Entry& e : order) scratch[start[digit(e)]++] = e;
    order.swap(scratch);
  }
  return order;
}

QueryResult select_from_store(const SketchStore& store,
                              const QueryOptions& options) {
  if (!options.candidates.empty()) return select_from_store(store, options, {});
  return select_from_store(store, options, store_degree_order(store));
}

QueryResult select_from_store(const SketchStore& store,
                              const QueryOptions& options,
                              std::span<const LazyArgMaxHeap::Entry> order) {
  static const obs::Counter refreshes_total =
      obs::counter("query.select.refreshes_total");
  static const obs::Counter retired_total =
      obs::counter("query.select.sketches_retired_total");
  using Entry = LazyArgMaxHeap::Entry;
  const VertexId n = store.num_vertices();
  const std::uint64_t num_sketches = store.num_sketches();
  validate_store_query(store, options);

  QueryResult result;
  result.total_sketches = num_sketches;

  const std::vector<std::uint8_t> mask = build_mask(store, options);

  // A whitelist streams its own candidates: eligible, deduplicated and
  // sorted into the degree order's key — O(|C| log |C|), not |V|.
  std::vector<Entry> whitelist;
  if (!options.candidates.empty()) {
    for (const VertexId v : options.candidates) {
      const std::uint64_t degree = store.degree(v);
      if (mask[v] != 0 && degree != 0) whitelist.push_back({degree, v});
    }
    std::sort(whitelist.begin(), whitelist.end(), LazyArgMaxHeap::above);
    whitelist.erase(std::unique(whitelist.begin(), whitelist.end(),
                                [](const Entry& a, const Entry& b) {
                                  return a.id == b.id;
                                }),
                    whitelist.end());
    order = whitelist;
  }
  // The cursor over the order; a blacklist skips its forbidden entries.
  struct OrderStream {
    std::span<const Entry> order;
    const std::uint8_t* eligible;
    std::size_t at = 0;
    const Entry* peek() noexcept {
      while (at < order.size() && eligible != nullptr &&
             eligible[order[at].id] == 0) {
        ++at;
      }
      return at < order.size() ? &order[at] : nullptr;
    }
    void advance() noexcept { ++at; }
  } stream{order, options.candidates.empty() && !mask.empty() ? mask.data()
                                                          : nullptr};

  // Per-query scratch: the Algorithm 2 vertex-occurrence counters (seeded
  // from the inverted-index degrees — the initial counter build is free),
  // the retired sketches, and the heap of re-keyed stale entries.
  struct Counters {
    std::vector<std::uint64_t> counts;
    [[nodiscard]] std::uint64_t get(std::size_t v) const noexcept {
      return counts[v];
    }
    [[nodiscard]] const std::uint64_t* slot(std::size_t v) const noexcept {
      return &counts[v];
    }
  } counters{std::vector<std::uint64_t>(n)};
  for (VertexId v = 0; v < n; ++v) counters.counts[v] = store.degree(v);
  DynamicBitset retired(num_sketches);
  LazyArgMaxHeap stale;

  const std::size_t rounds =
      std::min<std::size_t>(options.k, static_cast<std::size_t>(n));
  for (std::size_t round = 0; round < rounds; ++round) {
    const ArgMaxResult best = stale.pop<NullMem>(counters, stream);
    if (best.value == 0) break;  // no eligible vertex covers an alive sketch
    const auto seed = static_cast<VertexId>(best.index);
    result.seeds.push_back(seed);
    result.marginal_coverage.push_back(best.value);
    result.covered_sketches += best.value;

    // Retire every alive sketch covering the pick, via the inverted
    // index — O(covered sketches), never a scan over all θ.
    for (const SketchId s : store.covering(seed)) {
      if (retired.test(s)) continue;
      retired.set(s);
      store.for_each_member(s, [&](VertexId u) { --counters.counts[u]; });
    }
  }
  refreshes_total.add(stale.refreshes());
  retired_total.add(result.covered_sketches);

  result.estimated_spread =
      static_cast<double>(n) * result.coverage_fraction();
  return result;
}

}  // namespace eimm
