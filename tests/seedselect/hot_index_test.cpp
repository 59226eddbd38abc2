// The budgeted hot-vertex index behind the efficient kernel's decrement
// rounds. The pools here are large enough (thousands of sets) for the
// θ/8 budget to index a handful of vertices, with skewed membership so
// the first picks hit the index and later ones fall back to the scan.
// Whatever path a round takes, seeds, marginals and coverage must equal
// the Ripples kernel and a plain reference greedy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "rrr/pool_view.hpp"
#include "runtime/reduction.hpp"
#include "runtime/thread_info.hpp"
#include "seedselect/select.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

constexpr VertexId kN = 1200;

using Sets = std::vector<std::vector<VertexId>>;

/// `count` sets of 1-4 members drawn with a power-law skew toward low
/// ids (a hot core plus a long tail); every `dense_every`-th set (0:
/// none) is instead a uniform 60-member set, which the adaptive policy
/// stores as a bitmap.
Sets skewed_sets(std::size_t count, std::size_t dense_every = 0,
                 std::uint64_t seed = 2024) {
  Xoshiro256 rng(seed);
  Sets sets(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<VertexId>& set = sets[i];
    if (dense_every != 0 && i % dense_every == 0) {
      while (set.size() < 60) {
        const auto v = static_cast<VertexId>(rng.next_bounded(kN));
        if (std::find(set.begin(), set.end(), v) == set.end()) {
          set.push_back(v);
        }
      }
    } else {
      const std::size_t size = 1 + rng.next_bounded(4);
      for (std::size_t j = 0; j < size; ++j) {
        const double u = std::pow(rng.next_double(), 1.5);
        set.push_back(static_cast<VertexId>(u * kN));
      }
    }
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
  }
  return sets;
}

RRRPool adaptive_pool(const Sets& sets) {
  RRRPool pool(kN);
  pool.resize(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    pool[i] = RRRSet::make_adaptive(sets[i], kN);
  }
  return pool;
}

/// Stages `reference` into a two-worker SegmentedPool, keeping each
/// set's representation (bitmap sets become bitmap slots).
SegmentedPool segmented_pool(const RRRPool& reference) {
  SegmentedPool segments(kN);
  segments.resize(reference.size());
  segments.ensure_workers(2);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ShardArena& arena = segments.arena(i % 2);
    if (reference[i].repr() != RRRRepr::kBitmap) {
      segments.set_run(i, arena.view(arena.append(reference[i].vertices())));
      continue;
    }
    std::span<std::uint64_t> words;
    arena.allocate_bitmap(words_for_bits(kN), reference[i].size(), words);
    reference[i].for_each(
        [&](VertexId v) { words[v >> 6] |= std::uint64_t{1} << (v & 63); });
    segments.set_bitmap(i, words.data(), reference[i].size());
  }
  return segments;
}

/// Textbook greedy max-coverage with the kernels' lowest-id tie-break.
SelectionResult reference_greedy(const Sets& sets, std::size_t k,
                                 const std::vector<std::uint8_t>* eligible) {
  SelectionResult result;
  result.total_sets = sets.size();
  std::vector<std::uint8_t> alive(sets.size(), 1);
  for (std::size_t round = 0; round < std::min<std::size_t>(k, kN);
       ++round) {
    std::vector<std::uint64_t> counts(kN, 0);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (!alive[i]) continue;
      for (const VertexId v : sets[i]) ++counts[v];
    }
    VertexId best = 0;
    std::uint64_t best_count = 0;
    for (VertexId v = 0; v < kN; ++v) {
      if (eligible != nullptr && (*eligible)[v] == 0) continue;
      if (counts[v] > best_count) {
        best_count = counts[v];
        best = v;
      }
    }
    if (best_count == 0) break;
    result.seeds.push_back(best);
    result.marginal_coverage.push_back(best_count);
    result.covered_sets += best_count;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (std::binary_search(sets[i].begin(), sets[i].end(), best)) {
        alive[i] = 0;
      }
    }
  }
  return result;
}

void expect_same_selection(const SelectionResult& actual,
                           const SelectionResult& expected,
                           const char* what) {
  EXPECT_EQ(actual.seeds, expected.seeds) << what;
  EXPECT_EQ(actual.marginal_coverage, expected.marginal_coverage) << what;
  EXPECT_EQ(actual.covered_sets, expected.covered_sets) << what;
}

/// The Ripples kernel has no eligibility mask; stripping the masked
/// vertices from every set leaves the eligible counts, and so the masked
/// greedy, unchanged.
SelectionResult ripples_reference(const Sets& sets,
                                  const SelectionOptions& options) {
  if (options.eligible == nullptr) {
    return ripples_select_t<NullMem>(testing::make_pool(kN, sets), options);
  }
  Sets stripped = sets;
  for (auto& set : stripped) {
    std::erase_if(set, [&](VertexId v) { return (*options.eligible)[v] == 0; });
  }
  SelectionOptions unmasked = options;
  unmasked.eligible = nullptr;
  return ripples_select_t<NullMem>(testing::make_pool(kN, stripped), unmasked);
}

/// Runs the flat efficient kernel over `pool` and checks it against the
/// Ripples kernel and against the reference greedy.
template <typename PoolT>
SelectionResult check_efficient(const PoolT& pool, const Sets& sets,
                                const SelectionOptions& options) {
  CounterArray counters(kN);
  const SelectionResult efficient =
      efficient_select_t<NullMem>(pool, counters, options);
  expect_same_selection(efficient, ripples_reference(sets, options),
                        "vs ripples");
  expect_same_selection(efficient,
                        reference_greedy(sets, options.k, options.eligible),
                        "vs reference greedy");
  return efficient;
}

std::uint32_t scanned_rounds(const SelectionResult& r) {
  return static_cast<std::uint32_t>(r.seeds.size()) - r.indexed_rounds -
         r.rebuild_rounds;
}

/// Each indexed vertex's list is exactly the ascending ids of the sets
/// containing it (brute force over `sets`).
void expect_brute_force_lists(const HotVertexIndex& index, const Sets& sets,
                              const char* what) {
  for (VertexId v = 0; v < kN; ++v) {
    const auto covering = index.covering(v);
    if (covering.empty()) continue;
    std::vector<std::uint32_t> expected;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (std::binary_search(sets[i].begin(), sets[i].end(), v)) {
        expected.push_back(static_cast<std::uint32_t>(i));
      }
    }
    EXPECT_EQ(std::vector<std::uint32_t>(covering.begin(), covering.end()),
              expected)
        << what << ": vertex " << v;
  }
}

CounterArray initial_counts(const RRRPool& pool) {
  CounterArray counters(pool.num_vertices());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].for_each([&](VertexId v) { counters.increment(v); });
  }
  return counters;
}

TEST(HotVertexIndex, ListsAreTheBudgetedTopPrefix) {
  const Sets sets = skewed_sets(8000);
  const RRRPool pool = testing::make_pool(kN, sets);
  const CounterArray counters = initial_counts(pool);
  const HotVertexIndex index =
      HotVertexIndex::build<NullMem>(RRRPoolView(pool), counters);
  ASSERT_FALSE(index.empty());
  EXPECT_LE(index.num_entries(), pool.size() / HotVertexIndex::kBudgetDivisor);

  // Indexed vertices come first in (count desc, id asc) order, and the
  // next vertex in that order would overflow the budget.
  std::vector<VertexId> order(kN);
  for (VertexId v = 0; v < kN; ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return counters.get(a) > counters.get(b);
  });
  std::uint64_t sum = 0;
  std::size_t indexed = 0;
  while (indexed < order.size() &&
         !index.covering(order[indexed]).empty()) {
    sum += counters.get(order[indexed]);
    ++indexed;
  }
  EXPECT_EQ(indexed, index.num_indexed());
  EXPECT_EQ(sum, index.num_entries());
  ASSERT_LT(indexed, order.size());
  EXPECT_GT(sum + counters.get(order[indexed]),
            pool.size() / HotVertexIndex::kBudgetDivisor);

  expect_brute_force_lists(index, sets, "flat pool");
  EXPECT_TRUE(index.covering(kN + 100).empty());
}

TEST(HotVertexIndex, BucketedListsMatchBruteForceForAnyTeamAndStorage) {
  const Sets sets = skewed_sets(8000, /*dense_every=*/50);
  const RRRPool pool = adaptive_pool(sets);
  const SegmentedPool segments = segmented_pool(pool);
  ASSERT_GT(RRRPoolView(segments).bitmap_count(), 0u);
  const CounterArray counters = initial_counts(pool);
  for (const int threads : {1, 2, 3}) {
    const ThreadCountScope scope(threads);
    for (const auto& [view, what] :
         {std::pair{RRRPoolView(pool), "flat"},
          std::pair{RRRPoolView(segments), "segmented"}}) {
      const HotVertexIndex index =
          HotVertexIndex::build<NullMem>(view, counters);
      ASSERT_FALSE(index.empty()) << what << ", " << threads << " threads";
      expect_brute_force_lists(index, sets, what);
    }
  }
}

TEST(HotVertexIndex, MoreThreadsThanSetsStillFillEveryList) {
  // 16 sets, budget 2: vertex 7 (in sets 3 and 12) is the only vertex
  // that fits, so 20 workers leave most ranges empty and two of them
  // each contribute one entry to the same list.
  Sets sets(16);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    sets[i] = {static_cast<VertexId>(100 + i)};
  }
  sets[3] = {7, 103};
  sets[12] = {7, 112};
  const RRRPool pool = testing::make_pool(kN, sets);
  const CounterArray counters = initial_counts(pool);
  for (const int threads : {1, 2, 3, 20}) {
    const ThreadCountScope scope(threads);
    const HotVertexIndex index =
        HotVertexIndex::build<NullMem>(RRRPoolView(pool), counters);
    ASSERT_EQ(index.num_indexed(), 1u) << threads << " threads";
    expect_brute_force_lists(index, sets, "tiny pool");
    const auto covering = index.covering(7);
    EXPECT_EQ(std::vector<std::uint32_t>(covering.begin(), covering.end()),
              (std::vector<std::uint32_t>{3, 12}));
  }
}

TEST(HotVertexIndex, CountsThatDisagreeWithThePoolBuildNoIndex) {
  const RRRPool pool = testing::make_pool(kN, skewed_sets(8000));
  for (const bool extra : {true, false}) {
    CounterArray counters = initial_counts(pool);
    ASSERT_FALSE(HotVertexIndex::build<NullMem>(RRRPoolView(pool), counters)
                     .empty());
    // Vertex 0 is the hottest by construction and far below the budget,
    // so it stays indexed either way; only its list size is now wrong.
    if (extra) {
      counters.increment(0);
    } else {
      counters.decrement(0);
    }
    EXPECT_TRUE(HotVertexIndex::build<NullMem>(RRRPoolView(pool), counters)
                    .empty())
        << (extra ? "count above" : "count below") << " membership";
  }
}

/// A pool that claims 2^32 slots; the index must refuse it before
/// reading any slot.
struct HugePool {
  [[nodiscard]] std::size_t size() const noexcept {
    return HotVertexIndex::kMaxSets;
  }
  [[nodiscard]] VertexId num_vertices() const noexcept { return 4; }
  [[nodiscard]] RRRSetView operator[](std::size_t) const {
    ADD_FAILURE() << "slot read on an oversized pool";
    return {};
  }
};

TEST(HotVertexIndex, PoolsOf2To32SetsSkipTheIndex) {
  CounterArray counters(4);
  for (VertexId v = 0; v < 4; ++v) counters.set(v, 1000 + v);
  EXPECT_TRUE(HotVertexIndex::build<NullMem>(HugePool{}, counters).empty());
}

TEST(HotVertexIndexSelection, AllRoundsHitTheIndex) {
  const Sets sets = skewed_sets(8000);
  const RRRPool pool = testing::make_pool(kN, sets);
  SelectionOptions options;
  options.k = 5;
  const SelectionResult r = check_efficient(pool, sets, options);
  ASSERT_EQ(r.seeds.size(), 5u);
  EXPECT_EQ(r.indexed_rounds, 5u);
  EXPECT_EQ(r.rebuild_rounds, 0u);
}

TEST(HotVertexIndexSelection, LateSeedsFallBackToTheScan) {
  const Sets sets = skewed_sets(8000);
  const RRRPool pool = testing::make_pool(kN, sets);
  SelectionOptions options;
  options.k = 60;
  const SelectionResult r = check_efficient(pool, sets, options);
  EXPECT_GT(r.indexed_rounds, 0u);
  EXPECT_GT(scanned_rounds(r), 0u);
}

TEST(HotVertexIndexSelection, EligibilityMaskSkipsIndexedWinners) {
  const Sets sets = skewed_sets(8000);
  const RRRPool pool = testing::make_pool(kN, sets);
  std::vector<std::uint8_t> eligible(kN, 1);
  eligible[0] = 0;  // the hottest vertex, certainly indexed
  eligible[2] = 0;
  SelectionOptions options;
  options.k = 30;
  options.eligible = &eligible;
  const SelectionResult r = check_efficient(pool, sets, options);
  EXPECT_GT(r.indexed_rounds, 0u);
  for (const VertexId seed : r.seeds) EXPECT_NE(eligible[seed], 0);
}

TEST(HotVertexIndexSelection, CounterShardsAgree) {
  const Sets sets = skewed_sets(8000);
  const RRRPool pool = testing::make_pool(kN, sets);
  SelectionOptions options;
  options.k = 40;
  const SelectionResult reference = check_efficient(pool, sets, options);
  for (const int shards : {1, 2, 3}) {
    ShardedCounterArray counters(kN, shards);
    const SelectionResult r =
        efficient_select_t<NullMem, ShardedCounterArray>(pool, counters,
                                                         options);
    expect_same_selection(r, reference, "sharded counters");
    EXPECT_EQ(r.indexed_rounds, reference.indexed_rounds) << shards;
  }
}

TEST(HotVertexIndexSelection, NonAdaptiveDecrementUsesTheIndex) {
  const Sets sets = skewed_sets(8000);
  const RRRPool pool = testing::make_pool(kN, sets);
  SelectionOptions options;
  options.k = 40;
  options.adaptive_update = false;
  const SelectionResult r = check_efficient(pool, sets, options);
  EXPECT_GT(r.indexed_rounds, 0u);
  EXPECT_EQ(r.rebuild_rounds, 0u);
}

TEST(HotVertexIndexSelection, SegmentedBitmapViewAgrees) {
  const Sets sets = skewed_sets(8000, /*dense_every=*/50);
  const RRRPool pool = adaptive_pool(sets);
  const SegmentedPool segments = segmented_pool(pool);
  ASSERT_GT(RRRPoolView(segments).bitmap_count(), 0u);
  SelectionOptions options;
  options.k = 40;
  const SelectionResult reference = check_efficient(pool, sets, options);
  EXPECT_GT(reference.indexed_rounds, 0u);

  const SelectionResult segmented =
      check_efficient(RRRPoolView(segments), sets, options);
  EXPECT_EQ(segmented.indexed_rounds, reference.indexed_rounds);
}

TEST(HotVertexIndexSelection, PoolBelowTheBudgetBuildsNoIndex) {
  // Every set contains vertex 0, so the top count is θ > θ/8: no index,
  // and every decrement round scans.
  Sets sets = skewed_sets(4000);
  for (auto& set : sets) {
    if (set.front() != 0) set.insert(set.begin(), 0);
  }
  const RRRPool pool = testing::make_pool(kN, sets);
  EXPECT_TRUE(
      HotVertexIndex::build<NullMem>(RRRPoolView(pool), initial_counts(pool))
          .empty());
  SelectionOptions options;
  options.k = 10;
  options.adaptive_update = false;
  const SelectionResult r = check_efficient(pool, sets, options);
  EXPECT_EQ(r.indexed_rounds, 0u);
  EXPECT_EQ(scanned_rounds(r), r.seeds.size());
}

/// Drives LazyArgMaxHeap the way a selection does — pop, zero the
/// winner, lower some other counts — and checks every pop against the
/// serial arg-max over the live counters, down to the {0, 0} that ends a
/// selection. Counts are drawn from a small range so ties are common.
/// `counters` holds the live values; `lower(v, by)` lowers one of them.
template <typename Counters, typename Lower>
void expect_heap_matches_serial_argmax(const Counters& counters,
                                       const std::uint8_t* eligible,
                                       Lower&& lower, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  LazyArgMaxHeap heap;
  heap.build<NullMem>(counters, eligible);
  for (std::size_t pops = 0;; ++pops) {
    ASSERT_LE(pops, counters.size());
    const ArgMaxResult expected = serial_argmax(counters, eligible);
    const ArgMaxResult best = heap.pop<NullMem>(counters);
    ASSERT_EQ(best.value, expected.value) << "pop " << pops;
    if (expected.value == 0) break;
    ASSERT_EQ(best.index, expected.index) << "pop " << pops;
    lower(best.index, best.value);
    for (int j = 0; j < 20; ++j) {
      const std::size_t v = rng.next_bounded(counters.size());
      const std::uint64_t live = counters.get(v);
      if (live != 0) lower(v, 1 + rng.next_bounded(live));
    }
  }
  EXPECT_EQ(heap.pop<NullMem>(counters).value, 0u) << "heap kept a live entry";
}

TEST(LazyArgMaxHeap, MatchesSerialArgMaxOnFlatCounters) {
  constexpr std::size_t kSlots = 500;
  Xoshiro256 rng(11);
  std::vector<std::uint8_t> eligible(kSlots, 1);
  for (std::size_t v = 0; v < kSlots; v += 7) eligible[v] = 0;
  const std::uint8_t* masks[] = {nullptr, eligible.data()};
  for (const std::uint8_t* mask : masks) {
    CounterArray counters(kSlots);
    for (std::size_t v = 0; v < kSlots; ++v) {
      counters.set(v, rng.next_bounded(6));  // many ties, some zeros
    }
    expect_heap_matches_serial_argmax(
        counters, mask,
        [&](std::size_t v, std::uint64_t by) {
          counters.set(v, counters.get(v) - by);
        },
        mask == nullptr ? 1 : 2);
  }
}

TEST(LazyArgMaxHeap, MatchesSerialArgMaxOnShardedCounters) {
  // Each count is split over the replicas and lowered through a
  // different replica than it was raised on, so single replica slots
  // wrap; only the summed view is meaningful.
  constexpr std::size_t kSlots = 300;
  for (const int shards : {1, 2, 3}) {
    Xoshiro256 rng(40 + shards);
    ShardedCounterArray counters(kSlots, shards);
    for (std::size_t v = 0; v < kSlots; ++v) {
      const std::uint64_t count = rng.next_bounded(6);
      for (std::uint64_t c = 0; c < count; ++c) {
        counters.local(static_cast<int>((v + c) % shards)).increment(v);
      }
    }
    std::size_t lowered = 0;
    expect_heap_matches_serial_argmax(
        counters, nullptr,
        [&](std::size_t v, std::uint64_t by) {
          CounterSlab slab =
              counters.local(static_cast<int>(++lowered % shards));
          for (std::uint64_t c = 0; c < by; ++c) slab.decrement(v);
        },
        shards);
  }
}

TEST(LazyArgMaxHeap, EqualCountsGoToTheLowestId) {
  const std::uint64_t counts[] = {2, 5, 3, 5, 0, 5};
  CounterArray counters(std::size(counts));
  for (std::size_t v = 0; v < std::size(counts); ++v) {
    counters.set(v, counts[v]);
  }
  LazyArgMaxHeap heap;
  heap.build<NullMem>(counters, nullptr);
  EXPECT_EQ(heap.size(), 5u);  // the zero count is never heaped
  std::vector<std::size_t> order;
  for (ArgMaxResult best = heap.pop<NullMem>(counters); best.value != 0;
       best = heap.pop<NullMem>(counters)) {
    order.push_back(best.index);
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 3, 5, 2, 0}));
}

TEST(HotVertexIndexSelection, RebuildRoundsKeepTheHeapExact) {
  // Vertex 5 joins two sets in three, so the first pick covers most of
  // the pool and the adaptive update rebuilds: every count drops at
  // once, the heap is rebuilt from the fresh counts, and the later
  // decrement rounds refresh it lazily again.
  Sets sets = skewed_sets(4000);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    auto& set = sets[i];
    if (i % 3 != 0 && !std::binary_search(set.begin(), set.end(), 5)) {
      set.insert(std::lower_bound(set.begin(), set.end(), 5), 5);
    }
  }
  const RRRPool pool = testing::make_pool(kN, sets);
  SelectionOptions options;
  options.k = 40;
  const SelectionResult r = check_efficient(pool, sets, options);
  ASSERT_FALSE(r.seeds.empty());
  EXPECT_EQ(r.seeds.front(), 5u);
  EXPECT_GT(r.rebuild_rounds, 0u);
  EXPECT_LT(r.rebuild_rounds, r.seeds.size());
}

TEST(HotVertexIndexSelection, StopsOnceEveryEligibleCountIsZero) {
  // Five distinct members in all: k = 20 stops after 5 picks, and after
  // 3 when only three of them are eligible.
  Sets sets(400);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    sets[i] = {static_cast<VertexId>(10 * (i % 5) + 3)};
    if (i % 3 == 0) sets[i].push_back(43);
  }
  for (auto& set : sets) {
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
  }
  const RRRPool pool = testing::make_pool(kN, sets);
  SelectionOptions options;
  options.k = 20;
  EXPECT_EQ(check_efficient(pool, sets, options).seeds.size(), 5u);

  std::vector<std::uint8_t> eligible(kN, 0);
  eligible[3] = eligible[13] = eligible[43] = 1;
  options.eligible = &eligible;
  EXPECT_EQ(check_efficient(pool, sets, options).seeds.size(), 3u);
}

}  // namespace
}  // namespace eimm
