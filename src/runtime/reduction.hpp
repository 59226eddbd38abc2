// Parallel arg-max reductions over either counter layout, the
// full-scan form of Algorithm 2, line 9. The efficient selection kernel
// now takes its arg-max from a lazy max-heap (seedselect/select.hpp)
// instead; these reductions remain as the reference the tests compare
// against and for the bench/micro_* counter drivers.
//
// Flat layout (CounterArray): each thread scans a contiguous vertex
// block for its regional maximum, then the regional maxima are reduced
// to the global maximum.
//
// Sharded layout (ShardedCounterArray): each thread scans its vertex
// block summing the per-domain replicas per vertex, then the regional
// maxima are reduced HIERARCHICALLY — a within-domain tree reduce over
// each domain's threads first, then one cross-domain merge of the
// domain winners — so the reduction's memory traffic mirrors the
// counter layout's locality.
//
// Ties break toward the lowest vertex id in EVERY step of both layouts
// (argmax_better is the single comparator), which makes the result
// deterministic regardless of thread count, shard count, or which
// domain a thread reduced under — a property the test suite leans on
// heavily.
#pragma once

#include <cstdint>
#include <utility>

#include "runtime/atomic_counters.hpp"

namespace eimm {

struct ArgMaxResult {
  std::size_t index = 0;
  std::uint64_t value = 0;
};

/// The one tie-break rule every reduce step uses: higher value wins;
/// equal values go to the lower index. Merging partial results with this
/// comparator yields the same winner in ANY merge order, which is what
/// lets the hierarchical (domain-grouped) reduce bit-match the flat one.
[[nodiscard]] inline bool argmax_better(const ArgMaxResult& a,
                                        const ArgMaxResult& b) noexcept {
  return a.value > b.value || (a.value == b.value && a.index < b.index);
}

/// Parallel arg-max over `counters` (must be called OUTSIDE any OpenMP
/// parallel region; spawns its own). Deterministic lowest-index
/// tie-break. `eligible`, when non-null, points at counters.size() bytes;
/// indices with a zero entry are skipped (SelectionOptions::eligible,
/// the constrained-selection path).
ArgMaxResult parallel_argmax(const CounterArray& counters,
                             const std::uint8_t* eligible = nullptr);

/// Serial reference implementation (tests compare against this).
ArgMaxResult serial_argmax(const CounterArray& counters,
                           const std::uint8_t* eligible = nullptr);

/// Sharded-layout arg-max over the SUMMED replica view: within-domain
/// tree reduce, then cross-domain merge. Bit-identical to the flat
/// overload on equal logical counter values.
ArgMaxResult parallel_argmax(const ShardedCounterArray& counters,
                             const std::uint8_t* eligible = nullptr);

/// Serial reference over the summed view.
ArgMaxResult serial_argmax(const ShardedCounterArray& counters,
                           const std::uint8_t* eligible = nullptr);

}  // namespace eimm
