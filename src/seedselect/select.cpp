#include "seedselect/select.hpp"

#include <functional>

namespace eimm {

void HotVertexIndex::plan(std::vector<std::uint64_t> keys,
                          std::uint64_t budget, VertexId n) {
  const auto count_of = [](std::uint64_t key) { return key >> 32; };
  const auto sum_counts = [&](auto first, auto last) {
    std::uint64_t sum = 0;
    for (; first != last; ++first) sum += count_of(*first);
    return sum;
  };

  // Weighted quickselect for the longest key-descending prefix whose
  // counts fit the budget: [begin, first) is accepted, [last, end) is
  // rejected, and each step halves the undecided range [first, last).
  auto first = keys.begin();
  auto last = keys.end();
  if (sum_counts(first, last) > budget) {
    std::uint64_t taken = 0;
    while (first != last) {
      const auto mid = first + (last - first) / 2;
      std::nth_element(first, mid, last, std::greater<>());
      const std::uint64_t through_mid = sum_counts(first, mid + 1);
      if (taken + through_mid <= budget) {
        taken += through_mid;
        first = mid + 1;
      } else {
        last = mid;
      }
    }
  }
  keys.erase(first, keys.end());
  if (keys.empty()) return;

  words_.assign(words_for_bits(n), 0);
  for (const std::uint64_t key : keys) {
    const auto v = static_cast<VertexId>(~key & 0xffffffffu);
    words_[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  ranks_.resize(words_.size());
  std::uint32_t below = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    ranks_[w] = below;
    below += static_cast<std::uint32_t>(popcount64(words_[w]));
  }
  // List sizes by rank, then their prefix sums (the total is <= budget,
  // which is < 2^29 because the pool has fewer than 2^32 sets).
  offsets_.assign(keys.size() + 1, 0);
  for (const std::uint64_t key : keys) {
    const auto v = static_cast<VertexId>(~key & 0xffffffffu);
    offsets_[rank<NullMem>(v) + 1] = static_cast<std::uint32_t>(count_of(key));
  }
  for (std::size_t r = 1; r < offsets_.size(); ++r) {
    offsets_[r] += offsets_[r - 1];
  }
  sets_.resize(offsets_.back());
}

SelectionResult efficient_select(const RRRPool& pool, CounterArray& counters,
                                 const SelectionOptions& options) {
  return efficient_select_t<NullMem>(pool, counters, options);
}

SelectionResult ripples_select(const RRRPool& pool,
                               const SelectionOptions& options) {
  return ripples_select_t<NullMem>(pool, options);
}

}  // namespace eimm
