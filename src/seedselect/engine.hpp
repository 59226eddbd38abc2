// SelectionEngine — the one owner of the Find_Most_Influential_Set
// phase. Every production caller (core/imm's probing + final selection,
// serve/QueryEngine's live kernel, dist/imm's simulated ranks, and the
// cachesim traced harness) routes selection through this subsystem
// instead of instantiating the select.hpp kernel templates directly.
//
// What the engine adds over the bare kernels:
//   * thread placement — workers are pinned to NUMA domains via
//     runtime/affinity before the kernel runs (EIMM_PIN; no-op on
//     single-node hosts), so the counter replicas below actually stay
//     domain-local;
//   * counter layout — EIMM_COUNTER_SHARDS (default: the detected
//     domain count) selects between the legacy flat CounterArray
//     (shards == 1, the bit-exact reference path) and the
//     ShardedCounterArray with one mbind(kLocal) replica per domain;
//   * the prebuilt-counter (kernel fusion, Algorithm 3) hand-off: the
//     engine copies a fused base into whichever working layout it
//     chose, so core/imm no longer needs to know the layout exists;
//   * round telemetry — each select() adds its indexed, scanned and
//     rebuilt counter-update rounds to the obs counters
//     selection.rounds_{indexed,scanned,rebuilt}.
//
// The efficient kernel's budgeted hot-vertex index and lazy arg-max heap
// (select.hpp) need no engine support beyond the heap storage a
// workspace lends: both are built inside every efficient selection, so
// probing, final selection, dist/imm and SketchStore builds all use
// them. The engine never caches a result across calls — reusing the
// last probe as the final selection is core/imm's decision, because
// only the caller knows no set was added in between.
//
// Contract: the engine's seed sequences are bit-identical to the legacy
// kernels for every shard count and pin mode (same lowest-vertex-id
// tie-break end to end) — enforced by tests/seedselect and the
// ctest -L statcheck harness.
//
// Layering note: owning the serve-side store kernel here makes
// seedselect reference serve (implementation-only: engine.cpp includes
// the serve headers, the declarations below use forward declarations),
// while serve calls back into this header — a deliberate cycle at the
// module level, paid so ONE subsystem defines every selection tie-break.
// The umbrella static library absorbs it; splitting the modules into
// standalone libraries would require hoisting the store kernel's data
// types into a lower layer first.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "numa/policy.hpp"
#include "runtime/affinity.hpp"
#include "runtime/atomic_counters.hpp"
#include "seedselect/select.hpp"

namespace eimm {

class SketchStore;
struct QueryOptions;
struct QueryResult;

/// Which greedy kernel to run (mirrors core/imm's Engine choice without
/// depending on it — core maps one onto the other).
enum class SelectionKernel { kEfficient, kRipples };

/// Reusable selection scratch for repeated selections over one growing
/// pool — the martingale probe loop's answer to "every probe allocates a
/// fresh counter layout and throws it away" (the PR 4 ROADMAP item).
/// The engine allocates the working counter layout (flat CounterArray or
/// ShardedCounterArray replicas, matching its configuration) on FIRST
/// use, then reset()s and reloads it from the fused base counters on
/// every subsequent call; the per-set alive flags and the lazy arg-max
/// heap's storage are likewise reused (each call builds its heap from
/// its own counters).
/// counter_allocations() is the regression hook: one run_imm performs
/// exactly one layout allocation across all probes plus the final
/// selection.
class SelectionWorkspace {
 public:
  SelectionWorkspace() = default;

  /// Counter-layout allocations performed so far (1 after any use; a
  /// value above 1 means the pool geometry or engine config changed
  /// mid-stream, which the probe loop never does).
  [[nodiscard]] std::uint64_t counter_allocations() const noexcept {
    return counter_allocations_;
  }
  /// Calls that reused the existing layout via reset+reload.
  [[nodiscard]] std::uint64_t reuses() const noexcept { return reuses_; }

 private:
  friend class SelectionEngine;

  std::size_t n_ = 0;
  int shards_ = 0;
  MemPolicy policy_ = MemPolicy::kDefault;
  bool allocated_ = false;
  CounterArray flat_;
  ShardedCounterArray sharded_;
  std::vector<std::uint8_t> alive_;
  LazyArgMaxHeap heap_;
  std::uint64_t counter_allocations_ = 0;
  std::uint64_t reuses_ = 0;
};

struct SelectionEngineConfig {
  /// Counter replicas for the efficient kernel: 0 resolves
  /// EIMM_COUNTER_SHARDS then the detected NUMA domain count; 1 keeps
  /// the legacy flat CounterArray (the statcheck reference path).
  int counter_shards = 0;
  /// Pin-mode override; unset resolves EIMM_PIN / set_pin_mode / auto.
  std::optional<PinMode> pin;
  /// Placement for the flat counter path (sharded replicas are always
  /// kLocal). core/imm passes kInterleave when numa_aware.
  MemPolicy counter_policy = MemPolicy::kDefault;
};

class SelectionEngine {
 public:
  explicit SelectionEngine(SelectionEngineConfig config = {});

  /// Resolved counter-shard count this engine will select with.
  [[nodiscard]] int counter_shards() const noexcept { return shards_; }
  /// Effective pin mode (kAuto already resolved against the topology).
  [[nodiscard]] PinMode pin_mode() const noexcept { return pin_; }

  /// Greedy selection over a pool view — the legacy contiguous RRRPool
  /// or the sharded sampler's SegmentedPool, consumed IN PLACE (both
  /// convert implicitly; no flattening happens here). `base`, when
  /// non-null, holds the fused initial counters (kernel fusion,
  /// Algorithm 3); the engine copies them into its working layout and
  /// skips the initial build. `workspace`, when non-null, supplies the
  /// working counter layout and alive flags: allocated on first use,
  /// reset+reloaded on every later call — callers running repeated
  /// selections (the martingale probe loop) pass one workspace so the
  /// whole run performs a single layout allocation. The ripples kernel
  /// ignores `base` and uses the workspace only for alive flags. Must
  /// be called outside any OpenMP parallel region (the kernels spawn
  /// their own).
  SelectionResult select(SelectionKernel kernel, const RRRPoolView& pool,
                         const SelectionOptions& options,
                         const CounterArray* base = nullptr,
                         SelectionWorkspace* workspace = nullptr) const;

  /// Traced variant for the cachesim harness: flat counters only (the
  /// cache model observes the paper's Algorithm 2 layout), no pinning
  /// (the trace must be schedule-stable). Accepts the same pool view as
  /// select(), so traces run over legacy pools and zero-copy segments
  /// alike. `counters` is required for the efficient kernel and ignored
  /// by ripples (which keeps thread-local counters of its own).
  template <typename Mem>
  SelectionResult select_traced(SelectionKernel kernel,
                                const RRRPoolView& pool,
                                const SelectionOptions& options,
                                CounterArray* counters = nullptr) const {
    if (kernel == SelectionKernel::kEfficient) {
      EIMM_CHECK(counters != nullptr,
                 "efficient traced selection needs a counter array");
      return efficient_select_t<Mem>(pool, *counters, options);
    }
    return ripples_select_t<Mem>(pool, options);
  }

 private:
  SelectionResult select_impl(SelectionKernel kernel, const RRRPoolView& pool,
                              const SelectionOptions& options,
                              const CounterArray* base,
                              SelectionWorkspace* workspace) const;

  int shards_ = 1;
  PinMode pin_ = PinMode::kNone;
  MemPolicy counter_policy_ = MemPolicy::kDefault;
};

/// Argument validation for one store query (shared by the engine's
/// store kernel and QueryEngine::run_batch's serial pre-validation, so
/// a bad batch fails fast and deterministically on its lowest invalid
/// index). Throws CheckError on out-of-range ids / k.
void validate_store_query(const SketchStore& store, const QueryOptions& query);

/// A store's vertices with a non-zero degree, each keyed by its degree,
/// in LazyArgMaxHeap order (degree descending, id ascending). Degrees
/// never change, so one order serves every query against the store;
/// QueryEngine builds it once per serving epoch. O(|V|) per radix pass:
/// an LSD radix sort over the degree bits, stable over ascending ids.
std::vector<LazyArgMaxHeap::Entry> store_degree_order(const SketchStore& store);

/// The serve-side selection kernel: an exact lazy greedy over a frozen
/// SketchStore (top-k, whitelists, blacklists), serial per query so
/// queries parallelize across each other. `order` is the store's
/// store_degree_order(); whitelist queries ignore it and stream their
/// own candidates, deduplicated and sorted by the same key. Within a
/// query counts only fall, so a degree or a refreshed count is an upper
/// bound of the live count: the kernel walks the order with a cursor,
/// re-keys each stale head into a small LazyArgMaxHeap, and takes the
/// first entry whose key is live — the exact (count desc, id asc)
/// arg-max, the same lowest-vertex-id tie-break as the pool kernels, so
/// an unconstrained query reproduces the efficient kernel's seed
/// sequence exactly. Each pick retires its covered sketches through the
/// inverted index (alive flags are a θ-bit bitset). Per query it adds
/// its stale entries to `query.select.refreshes_total` and its retired
/// sketches to `query.select.sketches_retired_total`. A free function
/// because it reads no engine state (counter layout and pinning are
/// pool-phase concerns; batch serving pins its own team).
QueryResult select_from_store(const SketchStore& store,
                              const QueryOptions& options,
                              std::span<const LazyArgMaxHeap::Entry> order);

/// One-shot form (store builds, deep validation): builds the order on the
/// spot — unless the query is a whitelist — and runs the same kernel.
QueryResult select_from_store(const SketchStore& store,
                              const QueryOptions& options);

}  // namespace eimm
