#include "runtime/reduction.hpp"

namespace eimm {

namespace {

/// Arg-max scan over either layout's get(); the mask test is hoisted so
/// the common unmasked path keeps its tight loop.
template <typename Counters>
ArgMaxResult scan_argmax(const Counters& counters,
                         const std::uint8_t* eligible) {
  ArgMaxResult best{0, 0};
  const std::size_t n = counters.size();
  if (eligible == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t v = counters.get(i);
      if (v > best.value) {  // strict '>' keeps the lowest index on ties
        best.value = v;
        best.index = i;
      }
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      if (eligible[i] == 0) continue;
      const std::uint64_t v = counters.get(i);
      if (v > best.value) {
        best.value = v;
        best.index = i;
      }
    }
  }
  return best;
}

}  // namespace

ArgMaxResult serial_argmax(const CounterArray& counters,
                           const std::uint8_t* eligible) {
  return scan_argmax(counters, eligible);
}

ArgMaxResult serial_argmax(const ShardedCounterArray& counters,
                           const std::uint8_t* eligible) {
  return scan_argmax(counters, eligible);
}

}  // namespace eimm
