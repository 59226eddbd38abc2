// The global vertex-occurrence counter of Algorithm 2, in two layouts.
//
// CounterArray — one 64-bit atomic per vertex; increments/decrements are
// relaxed — the counter is a statistic, and the selection loop reads it
// only after an OpenMP barrier, which supplies the necessary ordering.
// 64-bit width matches the paper's observation that `lock incq` confines
// the locked region to one quadword, so concurrent updates to different
// vertices never contend on the same memory word (they may still share a
// cache line; that is the fine-grained-vs-padded trade-off benchmarked
// in bench/micro_counters).
//
// ShardedCounterArray — the NUMA answer to the same counter (§IV-C taken
// across sockets): one domain-local replica of the full array per NUMA
// domain, pages requested mbind(kLocal) so each replica faults onto the
// domain of the threads that write it. Updates go to the CALLER's home
// replica (pure local traffic — the remote-write pattern the paper's
// Table II NUMA bitmap analysis charges is gone); the logical value of a
// vertex is the SUM over replicas, read at arg-max time by the
// hierarchical reduction in runtime/reduction. Per-replica values may
// individually wrap below zero when a decrement lands on a different
// replica than the increment it cancels — uint64 modular arithmetic
// makes the sum exact regardless, so the summed view equals the flat
// array bit-for-bit and seed sequences are unchanged (a property the
// test suite enforces). With shards == 1 the layout degenerates to the
// flat array.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "numa/alloc.hpp"

namespace eimm {

/// Resolves a counter-shard request: explicit positive values win, then
/// the EIMM_COUNTER_SHARDS environment variable, then the detected NUMA
/// domain count (1 on non-NUMA hosts — the legacy flat layout). Always
/// >= 1.
int resolve_counter_shards(int requested);

/// Thread-affine view over one counter slab (the flat array, or one NUMA
/// replica of the sharded layout). The selection kernels resolve it once
/// per worker per parallel region, then update without re-deriving the
/// home replica on every counter touch.
class CounterSlab {
 public:
  CounterSlab() = default;
  explicit CounterSlab(std::atomic<std::uint64_t>* slab) noexcept
      : slab_(slab) {}

  void increment(std::size_t i) noexcept {
    slab_[i].fetch_add(1, std::memory_order_relaxed);
  }
  void decrement(std::size_t i) noexcept {
    slab_[i].fetch_sub(1, std::memory_order_relaxed);
  }
  void store(std::size_t i, std::uint64_t v) noexcept {
    slab_[i].store(v, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>* slab_ = nullptr;
};

class CounterArray {
 public:
  CounterArray() = default;

  /// `n` counters, zero-initialized, placed with `policy` (the
  /// NUMA-aware engine interleaves; kDefault for unit tests).
  explicit CounterArray(std::size_t n,
                        MemPolicy policy = MemPolicy::kDefault);

  [[nodiscard]] std::size_t size() const noexcept { return array_.size(); }

  /// Worker-local view; for the flat layout every worker shares the one
  /// slab (same API as the sharded layout, so the kernel is generic).
  [[nodiscard]] CounterSlab local() noexcept {
    return CounterSlab(array_.data());
  }

  void increment(std::size_t i) noexcept {
    array_[i].fetch_add(1, std::memory_order_relaxed);
  }
  /// Adds `delta` in one atomic update (the fused sampler credits a
  /// vertex with every lane that reached it at once).
  void add(std::size_t i, std::uint64_t delta) noexcept {
    array_[i].fetch_add(delta, std::memory_order_relaxed);
  }
  void decrement(std::size_t i) noexcept {
    array_[i].fetch_sub(1, std::memory_order_relaxed);
  }
  /// Non-atomic read; callers synchronize via parallel-region barriers.
  [[nodiscard]] std::uint64_t get(std::size_t i) const noexcept {
    return array_[i].load(std::memory_order_relaxed);
  }
  void set(std::size_t i, std::uint64_t v) noexcept {
    array_[i].store(v, std::memory_order_relaxed);
  }

  /// Zeroes all counters (parallel).
  void reset() noexcept;

  /// Copies the counters into a plain vector (for tests/inspection).
  [[nodiscard]] std::vector<std::uint64_t> snapshot() const;

  /// Sum of all counters (serial; test helper).
  [[nodiscard]] std::uint64_t total() const noexcept;

 private:
  NumaArray<std::atomic<std::uint64_t>> array_;
};

/// Domain-sharded counter: `shards` full replicas of an `n`-counter
/// array, each an mbind(kLocal) NumaArray. See the file comment for the
/// replica/sum semantics.
class ShardedCounterArray {
 public:
  ShardedCounterArray() = default;

  /// `n` counters replicated `shards` times (clamped to >= 1);
  /// zero-initialized. `policy` defaults to kLocal so each replica
  /// faults onto the domain of its writers (first touch under pinning).
  ShardedCounterArray(std::size_t n, int shards,
                      MemPolicy policy = MemPolicy::kLocal);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] int shards() const noexcept {
    return static_cast<int>(replicas_.size());
  }

  /// The calling thread's home replica: its NUMA domain modulo the shard
  /// count on NUMA hosts; its OpenMP thread id modulo the shard count on
  /// flat hosts (which still splits update contention). Any assignment
  /// is CORRECT — the summed view is replica-placement-invariant — home
  /// only decides which updates stay domain-local.
  [[nodiscard]] int home_shard() const noexcept;

  /// Worker-local view over the home replica (resolve once per region).
  [[nodiscard]] CounterSlab local() noexcept {
    return CounterSlab(replicas_[static_cast<std::size_t>(home_shard())]
                           .data());
  }
  /// View over one explicit replica (tests, loaders).
  [[nodiscard]] CounterSlab local(int shard) noexcept {
    return CounterSlab(replicas_[static_cast<std::size_t>(shard)].data());
  }

  /// Convenience single-update entry points (resolve home per call; the
  /// kernels use local() instead).
  void increment(std::size_t i) noexcept { local().increment(i); }
  void decrement(std::size_t i) noexcept { local().decrement(i); }

  /// Logical value: modular sum across replicas (see file comment).
  [[nodiscard]] std::uint64_t get(std::size_t i) const noexcept {
    std::uint64_t sum = 0;
    for (const auto& replica : replicas_) {
      sum += replica[i].load(std::memory_order_relaxed);
    }
    return sum;
  }

  /// Raw value of one replica slot (tests/diagnostics).
  [[nodiscard]] std::uint64_t replica_get(int shard,
                                          std::size_t i) const noexcept {
    return replicas_[static_cast<std::size_t>(shard)][i].load(
        std::memory_order_relaxed);
  }

  /// Zeroes every replica (parallel).
  void reset() noexcept;

  /// Loads a flat base counter (the fused Algorithm 3 build) into the
  /// sharded layout: workers copy disjoint vertex blocks into their own
  /// home replicas, so the values land domain-local under pinning. The
  /// array must be freshly constructed or reset — slots outside a
  /// worker's home replica are assumed zero.
  void load_base(const CounterArray& base);

  /// reset() + load_base() fused into ONE parallel pass: each worker
  /// writes the base into its home replica and zeroes its vertex block
  /// in every other replica — the reload the SelectionWorkspace performs
  /// between martingale probe rounds, without the separate wipe pass
  /// over the home replica. Works on any prior state.
  void reload_base(const CounterArray& base);

  /// Summed view as a plain vector (tests/inspection).
  [[nodiscard]] std::vector<std::uint64_t> snapshot() const;

  /// Sum of all logical counters (serial; test helper).
  [[nodiscard]] std::uint64_t total() const noexcept;

 private:
  std::size_t n_ = 0;
  std::vector<NumaArray<std::atomic<std::uint64_t>>> replicas_;
};

}  // namespace eimm
