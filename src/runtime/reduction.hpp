// Serial arg-max over either counter layout, the full-scan form of
// Algorithm 2, line 9. The selection kernels take their arg-max from a
// lazy max-heap (seedselect/select.hpp); these scans are the reference
// the tests compare that heap against.
//
// The sharded layout (ShardedCounterArray) is scanned over its SUMMED
// replica view, so both overloads see the same logical counter values.
// Ties break toward the lowest vertex id (argmax_better is the single
// comparator), which makes the result deterministic whatever the shard
// count.
#pragma once

#include <cstdint>

#include "runtime/atomic_counters.hpp"

namespace eimm {

struct ArgMaxResult {
  std::size_t index = 0;
  std::uint64_t value = 0;
};

/// The one tie-break rule: higher value wins; equal values go to the
/// lower index. Merging partial results with this comparator yields the
/// same winner in ANY merge order.
[[nodiscard]] inline bool argmax_better(const ArgMaxResult& a,
                                        const ArgMaxResult& b) noexcept {
  return a.value > b.value || (a.value == b.value && a.index < b.index);
}

/// Serial arg-max over `counters` with the lowest-index tie-break.
/// `eligible`, when non-null, points at counters.size() bytes; indices
/// with a zero entry are skipped (SelectionOptions::eligible, the
/// constrained-selection path).
ArgMaxResult serial_argmax(const CounterArray& counters,
                           const std::uint8_t* eligible = nullptr);

/// Serial arg-max over the sharded layout's summed view.
ArgMaxResult serial_argmax(const ShardedCounterArray& counters,
                           const std::uint8_t* eligible = nullptr);

}  // namespace eimm
