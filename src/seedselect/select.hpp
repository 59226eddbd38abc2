// The two Find_Most_Influential_Set kernels.
//
// ripples_select_t — the baseline strategy the paper profiles (§II-B,
// Challenge 1): vertices are partitioned across threads; every thread
// scans EVERY sorted RRR set and binary-searches the portion that
// intersects its vertex range, maintaining thread-local counters. After
// each pick, every thread again scans every surviving set containing the
// seed to decrement its own counters. Memory traffic:
// O(log(avg |R|) · θ · p).
//
// efficient_select_t — EfficientIMM's Algorithm 2: RRR sets are
// partitioned across threads; each member vertex increments one shared
// 64-bit atomic counter; after each pick the counter is either
// decremented over covered sets or rebuilt from the survivors —
// whichever touches fewer vertices (§IV-C "Adaptive Vertex Occurrence
// Counter Update").
//
// The arg-max is lazy (LazyArgMaxHeap below): a max-heap of (count, id),
// count descending and id ascending, is built from the initial counters
// and again after each rebuild round. Each pick re-reads the top's live
// counter; a stale top is refreshed in place and sifted down, an exact
// one is the seed. This is exact because no count rises inside a
// selection: a decrement only lowers counts, and a rebuild recounts the
// survivors, a subset of the sets counted before. Every other entry
// therefore holds an upper bound of its live count, ordered after the
// top, so a top whose stored count is still live beats every live
// count, and an equal live count elsewhere must belong to a higher id.
// Picks cost O(refreshed entries · log |V|) counter reads instead of a
// |V|-wide scan per round.
//
// Decrement rounds go through a budgeted hot-vertex index
// (HotVertexIndex below), built once per selection from the initial
// counters: the highest-count vertices whose counts sum to at most θ/8,
// each with the ascending ids of the sets containing it. One parallel
// pass over the pool fills it, each worker bucketing the hits of its own
// contiguous range of set ids privately, so no atomic or sort is
// needed; a decrement whose seed is indexed then costs O(covered sets) —
// it walks the seed's list — instead of a θ-wide scan that probes every
// alive set to test membership. A seed outside the index (or a pool
// with no index: the top vertex alone exceeds the budget, or θ ≥ 2^32)
// falls back to that scan unchanged. The kernel is
// additionally templated on the Counters layout: the flat CounterArray
// (the paper's shared atomic array) or the NUMA ShardedCounterArray
// (per-domain replicas, updates to the caller's home replica, reads
// summed over the replicas). Workers resolve a CounterSlab view once per
// parallel region; both layouts produce bit-identical seed sequences.
//
// Both kernels are templated on a Mem policy that observes every data
// access (counters, set payloads, heap entries, index lists); NullMem
// compiles to nothing, and src/cachesim provides a tracing policy that
// feeds the L1/L2 model for the Table IV reproduction — over the same
// heap and bucketed fill production runs. They are additionally
// templated on the Pool storage: the legacy RRRPool or an RRRPoolView
// (rrr/pool_view.hpp) over shard-local arena segments — the zero-copy
// hand-off from the sharded sampler. Both kernels break counter ties
// toward the lowest vertex id, so they return identical seed sequences
// on the same pool content, whichever storage backs it — a
// cross-validation the test suite enforces.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "runtime/atomic_counters.hpp"
#include "runtime/partition.hpp"
#include "runtime/reduction.hpp"
#include "runtime/work_queue.hpp"
#include "rrr/pool.hpp"
#include "rrr/pool_view.hpp"
#include "support/aligned.hpp"
#include "support/bits.hpp"
#include "support/macros.hpp"

namespace eimm {

/// Memory-access observer that observes nothing (production path).
struct NullMem {
  static constexpr bool kTracing = false;
  static void touch(const void* addr, std::size_t bytes) noexcept {
    EIMM_UNUSED(addr);
    EIMM_UNUSED(bytes);
  }
};

/// The efficient kernel's lazy arg-max (see the file comment for why it
/// is exact): a binary max-heap of (count, id) ordered by count
/// descending, then id ascending, whose stored counts may lag the live
/// counters from above. Valid only while no counter rises between
/// build() and the last pop() — true for one greedy selection.
class LazyArgMaxHeap {
 public:
  /// Heaps every eligible slot of `counters` with a non-zero count
  /// (`eligible`: nullptr, or counters.size() bytes; a zero skips the
  /// slot). O(|V|): one read per counter plus a bottom-up heapify.
  template <typename Mem, typename Counters>
  void build(const Counters& counters, const std::uint8_t* eligible) {
    heap_.clear();
    for (std::size_t i = 0; i < counters.size(); ++i) {
      if (eligible != nullptr && eligible[i] == 0) continue;
      Mem::touch(counters.slot(i), sizeof(std::uint64_t));
      const std::uint64_t count = counters.get(i);
      if (count != 0) heap_.push_back({count, static_cast<VertexId>(i)});
    }
    Mem::touch(heap_.data(), heap_.size() * sizeof(Entry));
    for (std::size_t at = heap_.size() / 2; at-- > 0;) sift_down<Mem>(at);
  }

  /// Removes and returns the vertex with the highest live count (lowest
  /// id on ties); {0, 0} once every heaped count has reached 0. Stale
  /// tops are refreshed from `counters` and sifted down on the way.
  template <typename Mem, typename Counters>
  ArgMaxResult pop(const Counters& counters) {
    while (!heap_.empty()) {
      Entry& top = heap_.front();
      Mem::touch(&top, sizeof(Entry));
      Mem::touch(counters.slot(top.id), sizeof(std::uint64_t));
      const std::uint64_t live = counters.get(top.id);
      if (live == top.count) {
        const ArgMaxResult best{top.id, live};
        remove_top<Mem>();
        return best;
      }
      if (live == 0) {
        remove_top<Mem>();
      } else {
        top.count = live;
        sift_down<Mem>(0);
      }
    }
    return {};
  }

  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  struct Entry {
    std::uint64_t count;
    VertexId id;
  };

  /// Heap order: `a` above `b` (ids are unique, so this is total).
  static bool above(const Entry& a, const Entry& b) noexcept {
    return a.count > b.count || (a.count == b.count && a.id < b.id);
  }

  template <typename Mem>
  void remove_top() {
    Mem::touch(&heap_.back(), sizeof(Entry));
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down<Mem>(0);
  }

  template <typename Mem>
  void sift_down(std::size_t at) {
    const std::size_t size = heap_.size();
    const Entry moving = heap_[at];
    for (std::size_t child = 2 * at + 1; child < size;
         at = child, child = 2 * at + 1) {
      const bool pair = child + 1 < size;
      Mem::touch(&heap_[child], (pair ? 2 : 1) * sizeof(Entry));
      if (pair && above(heap_[child + 1], heap_[child])) ++child;
      if (!above(heap_[child], moving)) break;
      Mem::touch(&heap_[at], sizeof(Entry));
      heap_[at] = heap_[child];
    }
    Mem::touch(&heap_[at], sizeof(Entry));
    heap_[at] = moving;
  }

  std::vector<Entry> heap_;
};

struct SelectionOptions {
  std::size_t k = 50;
  /// Choose decrement-vs-rebuild per round (EfficientIMM §IV-C). When
  /// false, always decrement (the non-adaptive ablation of Fig. 5).
  bool adaptive_update = true;
  /// Skip the initial counter build because the generation kernel already
  /// incremented counters in place (kernel fusion, Algorithm 3).
  bool counters_prebuilt = false;
  /// Distribute RRR-set batches through the stealing JobPool instead of a
  /// static split (§IV-C "Dynamic Job Balancing").
  bool dynamic_balance = true;
  /// Jobs per batch for the JobPool.
  std::size_t batch_size = 64;
  /// Optional per-vertex eligibility mask (size ≥ the counter array's
  /// size): vertices with a zero entry are never picked as seeds, though
  /// their counters are still maintained. Pool-level constrained
  /// selection; also the reference the serve/ QueryEngine's constrained
  /// kernel is cross-validated against
  /// (tests/serve/query_engine_test.cpp).
  const std::vector<std::uint8_t>* eligible = nullptr;
  /// Reusable per-set alive-flag storage: when non-null the kernel uses
  /// (and fully re-initializes) this vector instead of allocating its
  /// own — the SelectionWorkspace reuse path for the martingale probe
  /// loop. Contents on return are the final alive flags.
  std::vector<std::uint8_t>* alive_scratch = nullptr;
  /// Reusable storage for the efficient kernel's lazy arg-max heap, on
  /// the same terms as alive_scratch (rebuilt by every call).
  LazyArgMaxHeap* heap_scratch = nullptr;
};

struct SelectionResult {
  std::vector<VertexId> seeds;
  /// Counter value of each seed at pick time (its marginal coverage).
  std::vector<std::uint64_t> marginal_coverage;
  /// Number of RRR sets covered by the final seed set.
  std::uint64_t covered_sets = 0;
  /// Pool size at selection time (θ).
  std::uint64_t total_sets = 0;
  /// How many rounds chose rebuild over decrement (diagnostics).
  std::uint32_t rebuild_rounds = 0;
  /// Decrement rounds that walked the hot-vertex index instead of
  /// scanning every set; the remaining rounds (seeds.size() − rebuild −
  /// indexed) scanned.
  std::uint32_t indexed_rounds = 0;

  /// F(S): fraction of RRR sets covered — the martingale estimator input.
  [[nodiscard]] double coverage_fraction() const noexcept {
    return total_sets ? static_cast<double>(covered_sets) /
                            static_cast<double>(total_sets)
                      : 0.0;
  }
};

namespace detail {

/// Traced iteration over one RRR set: touches the payload the way the
/// real representation lays it out (run elements or bitmap words). `SetT` is RRRSet or RRRSetView — both expose the
/// same surface, so the kernels run unchanged over legacy pools and
/// zero-copy views.
template <typename Mem, typename SetT, typename Fn>
void for_each_traced(const SetT& set, Fn&& fn) {
  const RRRRepr repr = set.repr();
  if (repr == RRRRepr::kVector) {
    for (const VertexId& v : set.vertices()) {
      Mem::touch(&v, sizeof(VertexId));
      fn(v);
    }
  } else {
    // Bitmap: the kernel streams whole words and expands set bits.
    const std::uint64_t* words = set.words().data();
    set.for_each([&](VertexId v) {
      Mem::touch(words + (v >> 6), sizeof(std::uint64_t));
      fn(v);
    });
  }
}

/// Traced membership test (binary search probes / single bit test).
template <typename Mem, typename SetT>
bool contains_traced(const SetT& set, VertexId v) {
  const RRRRepr repr = set.repr();
  if (repr == RRRRepr::kVector) {
    const auto& verts = set.vertices();
    std::size_t lo = 0, hi = verts.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      Mem::touch(verts.data() + mid, sizeof(VertexId));
      if (verts[mid] < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < verts.size() && verts[lo] == v;
  }
  if constexpr (Mem::kTracing) {
    const auto words = set.words();
    if ((v >> 6) < words.size()) {
      Mem::touch(words.data() + (v >> 6), sizeof(std::uint64_t));
    }
  }
  return set.contains(v);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Budgeted hot-vertex index (decrement rounds of the efficient kernel)
// ---------------------------------------------------------------------------

/// Inverted lists for the vertices most likely to be picked: the longest
/// prefix of the vertices ordered by initial count (descending, lower id
/// first on ties) whose counts sum to at most num_sets / kBudgetDivisor.
/// Each indexed vertex owns the ascending ids of the sets containing it,
/// so a decrement round whose seed is indexed walks exactly the sets it
/// covers. The lists never change during a selection: a rebuild round
/// only flips alive flags, which the walk checks per entry.
///
/// Memory: at most 4 B × θ/8 of set ids (under 3% of SegmentedPool's
/// 16-byte entry table) plus a |V|-bit membership bitmap with one 32-bit
/// rank per 64 vertices and one offset per indexed vertex.
class HotVertexIndex {
 public:
  /// Budget: at most num_sets / kBudgetDivisor list entries in total.
  static constexpr std::uint64_t kBudgetDivisor = 8;
  /// Set ids are stored as uint32_t, so pools of kMaxSets (2^32) sets or
  /// more build no index and every decrement round scans — ids are never
  /// truncated, however large ImmOptions::max_rrr_sets lets θ grow.
  static constexpr std::uint64_t kMaxSets = std::uint64_t{1} << 32;

  /// Builds the index over `pool` from its initial per-vertex counts
  /// (`counters` must hold exactly each vertex's set count, as it does
  /// before the first pick). Returns an empty index when the pool is too
  /// large for 32-bit ids, the top vertex alone exceeds the budget, or
  /// the counts disagree with the pool. Call outside parallel regions.
  template <typename Mem, typename Counters, typename PoolT>
  static HotVertexIndex build(const PoolT& pool, const Counters& counters) {
    HotVertexIndex index;
    const std::uint64_t num_sets = pool.size();
    if (num_sets >= kMaxSets) return index;
    const std::uint64_t budget = num_sets / kBudgetDivisor;
    const VertexId n = pool.num_vertices();
    // Candidate keys: count in the high word, inverted id in the low
    // word, so a larger key means a higher count, then a lower id.
    std::vector<std::uint64_t> keys;
    for (VertexId v = 0; v < n; ++v) {
      Mem::touch(counters.slot(v), sizeof(std::uint64_t));
      const std::uint64_t count = counters.get(v);
      if (count == 0) continue;
      if (count > budget) return index;  // the top vertex cannot fit
      keys.push_back(count << 32 | (~std::uint64_t{v} & 0xffffffffu));
    }
    index.plan(std::move(keys), budget, n);
    if (!index.empty()) index.fill<Mem>(pool);
    return index;
  }

  [[nodiscard]] bool empty() const noexcept { return sets_.empty(); }
  /// Indexed vertices / total list entries (diagnostics and tests).
  [[nodiscard]] std::size_t num_indexed() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t num_entries() const noexcept {
    return sets_.size();
  }

  /// Ascending ids of every set (alive or not) containing `v`; empty
  /// when `v` is not indexed (an indexed vertex has count >= 1).
  template <typename Mem = NullMem>
  [[nodiscard]] std::span<const std::uint32_t> covering(VertexId v) const {
    const std::size_t w = v >> 6;
    if (w >= words_.size()) return {};
    Mem::touch(&words_[w], sizeof(std::uint64_t));
    if (((words_[w] >> (v & 63)) & 1) == 0) return {};
    const std::size_t r = rank<Mem>(v);
    Mem::touch(&offsets_[r], 2 * sizeof(std::uint32_t));
    return {sets_.data() + offsets_[r], offsets_[r + 1] - offsets_[r]};
  }

 private:
  /// Chooses the indexed vertices from the candidate keys (expected
  /// O(|V|): a weighted quickselect over nth_element, no full sort) and
  /// lays out the bitmap, ranks and list offsets. Defined in select.cpp.
  void plan(std::vector<std::uint64_t> keys, std::uint64_t budget,
            VertexId n);

  /// Position of indexed vertex `v` among the indexed vertices.
  template <typename Mem>
  [[nodiscard]] std::size_t rank(VertexId v) const noexcept {
    const std::size_t w = v >> 6;
    Mem::touch(&ranks_[w], sizeof(std::uint32_t));
    const std::uint64_t below = words_[w] & ((std::uint64_t{1} << (v & 63)) - 1);
    return ranks_[w] + static_cast<std::size_t>(popcount64(below));
  }

  /// One parallel pass over the pool. Worker t of the team owns the
  /// contiguous, ascending set ids block_range(θ, team, t) and buckets
  /// its hits privately: the (rank, set id) pairs in set-id order plus a
  /// per-rank count. The counts then give every worker its own cursor
  /// into each list, after the cursors of the workers before it, and the
  /// buckets are scattered — so each list comes out ascending with no
  /// atomic, no sort, and a content independent of the team size. Counts
  /// that disagree with the pool empty the index instead of overrunning.
  template <typename Mem, typename PoolT>
  void fill(const PoolT& pool) {
    struct Hit {
      std::uint32_t rank;
      std::uint32_t set;
    };
    // Padded: every hit grows its worker's vector header.
    struct alignas(kCacheLineSize) Bucket {
      std::vector<Hit> hits;
      std::vector<std::uint32_t> cursor;  // per-rank hits, then positions
      bool overrun = false;
    };
    const std::size_t m = num_indexed();
    const std::size_t entries = sets_.size();
    const std::size_t num_sets = pool.size();
    std::vector<Bucket> buckets(
        static_cast<std::size_t>(omp_get_max_threads()));
    std::size_t team = 1;
#pragma omp parallel
    {
      const auto tid = static_cast<std::size_t>(omp_get_thread_num());
      const auto nthreads = static_cast<std::size_t>(omp_get_num_threads());
      if (tid == 0) team = nthreads;
      Bucket& mine = buckets[tid];
      mine.cursor.assign(m, 0);
      const auto [begin, end] = block_range(num_sets, nthreads, tid);
      for (std::size_t i = begin; i < end; ++i) {
        detail::for_each_traced<Mem>(pool[i], [&](VertexId v) {
          const std::size_t w = v >> 6;
          Mem::touch(&words_[w], sizeof(std::uint64_t));
          if (((words_[w] >> (v & 63)) & 1) == 0) return;
          // More hits than the index holds: the counts are wrong.
          if (mine.hits.size() == entries) {
            mine.overrun = true;
            return;
          }
          const auto r = static_cast<std::uint32_t>(rank<Mem>(v));
          Mem::touch(&mine.cursor[r], sizeof(std::uint32_t));
          ++mine.cursor[r];
          mine.hits.push_back({r, static_cast<std::uint32_t>(i)});
          Mem::touch(&mine.hits.back(), sizeof(Hit));
        });
      }
    }
    // Turn the per-worker counts into cursors, worker by worker within
    // each list; every list must end exactly at the next one's offset.
    bool exact = std::none_of(buckets.begin(), buckets.begin() + team,
                              [](const Bucket& b) { return b.overrun; });
    for (std::size_t r = 0; exact && r < m; ++r) {
      std::uint64_t at = offsets_[r];
      for (std::size_t t = 0; t < team; ++t) {
        Mem::touch(&buckets[t].cursor[r], sizeof(std::uint32_t));
        const std::uint32_t count = buckets[t].cursor[r];
        buckets[t].cursor[r] = static_cast<std::uint32_t>(at);
        at += count;
      }
      exact = at == offsets_[r + 1];
    }
    if (!exact) {
      *this = HotVertexIndex();
      return;
    }
    const auto workers = static_cast<std::int64_t>(team);
#pragma omp parallel for schedule(static)
    for (std::int64_t t = 0; t < workers; ++t) {
      Bucket& bucket = buckets[static_cast<std::size_t>(t)];
      for (const Hit& hit : bucket.hits) {
        Mem::touch(&hit, sizeof(Hit));
        Mem::touch(&bucket.cursor[hit.rank], sizeof(std::uint32_t));
        const std::uint32_t at = bucket.cursor[hit.rank]++;
        Mem::touch(&sets_[at], sizeof(std::uint32_t));
        sets_[at] = hit.set;
      }
    }
  }

  std::vector<std::uint64_t> words_;    // |V|-bit "is indexed" bitmap
  std::vector<std::uint32_t> ranks_;    // indexed vertices before word w
  std::vector<std::uint32_t> offsets_;  // list r is [offsets_[r], [r+1])
  std::vector<std::uint32_t> sets_;     // concatenated set-id lists
};

// ---------------------------------------------------------------------------
// EfficientIMM kernel (Algorithm 2)
// ---------------------------------------------------------------------------

template <typename Mem = NullMem, typename Counters = CounterArray,
          typename PoolT = RRRPool>
SelectionResult efficient_select_t(const PoolT& pool, Counters& counters,
                                   const SelectionOptions& options) {
  const std::size_t num_sets = pool.size();
  const VertexId n = pool.num_vertices();
  EIMM_CHECK(counters.size() >= n, "counter array smaller than vertex count");
  EIMM_CHECK(options.k > 0, "k must be positive");
  const std::uint8_t* eligible = nullptr;
  if (options.eligible != nullptr) {
    // The arg-max heaps the whole counter array, so the mask must cover
    // every counter slot, not just |V|.
    EIMM_CHECK(options.eligible->size() >= counters.size(),
               "eligibility mask smaller than counter array");
    eligible = options.eligible->data();
  }

  SelectionResult result;
  result.total_sets = num_sets;
  // Alive flags: workspace-provided scratch (assign() fully resets it, so
  // a reused buffer starts every call from the all-alive state) or a
  // call-local vector.
  std::vector<std::uint8_t> own_alive;
  std::vector<std::uint8_t>& alive =
      options.alive_scratch != nullptr ? *options.alive_scratch : own_alive;
  alive.assign(num_sets, 1);

  const auto workers = static_cast<std::size_t>(omp_get_max_threads());

  // Initial counter build (skipped under kernel fusion): partition the
  // RRR sets, broadcast each member into the worker's counter slab (the
  // one shared array, or its home NUMA replica under the sharded layout).
  if (!options.counters_prebuilt) {
    if (options.dynamic_balance) {
      JobPool jobs(num_sets, options.batch_size, workers);
#pragma omp parallel
      {
        CounterSlab slab = counters.local();
        const auto wid = static_cast<std::size_t>(omp_get_thread_num());
        for (JobBatch batch = jobs.next(wid); !batch.empty();
             batch = jobs.next(wid)) {
          for (std::size_t i = batch.begin; i < batch.end; ++i) {
            detail::for_each_traced<Mem>(pool[i], [&](VertexId v) {
              Mem::touch(slab.slot(v), sizeof(std::uint64_t));
              slab.increment(v);
            });
          }
        }
      }
    } else {
#pragma omp parallel
      {
        CounterSlab slab = counters.local();
#pragma omp for schedule(static)
        for (std::size_t i = 0; i < num_sets; ++i) {
          detail::for_each_traced<Mem>(pool[i], [&](VertexId v) {
            Mem::touch(slab.slot(v), sizeof(std::uint64_t));
            slab.increment(v);
          });
        }
      }
    }
  }

  // Both built from the initial counts, before the first pick changes
  // them (the heap is rebuilt after each rebuild round).
  const HotVertexIndex index =
      HotVertexIndex::build<Mem>(pool, std::as_const(counters));
  LazyArgMaxHeap own_heap;
  LazyArgMaxHeap& heap =
      options.heap_scratch != nullptr ? *options.heap_scratch : own_heap;
  heap.build<Mem>(counters, eligible);

  std::uint64_t alive_count = num_sets;
  const std::size_t rounds = std::min<std::size_t>(options.k, n);
  for (std::size_t round = 0; round < rounds; ++round) {
    const ArgMaxResult best = heap.pop<Mem>(counters);
    if (best.value == 0) break;  // no eligible vertex covers an alive set
    const auto seed = static_cast<VertexId>(best.index);
    result.seeds.push_back(seed);
    result.marginal_coverage.push_back(best.value);

    // The counter value of the winner IS the number of alive sets the
    // seed covers — no survey pass needed. Decrementing touches the
    // covered sets, rebuilding touches the survivors: pick whichever is
    // the smaller side (§IV-C "Adaptive Vertex Occurrence Counter
    // Update"). This is exactly where skewed datasets explode: the first
    // seeds cover most of the pool, so decrement does nearly all the
    // work just to throw it away, while rebuild touches almost nothing.
    const std::uint64_t covered_count = best.value;
    result.covered_sets += covered_count;
    const bool rebuild =
        options.adaptive_update && 2 * covered_count > alive_count;
    alive_count -= covered_count;

    if (rebuild) {
      ++result.rebuild_rounds;
      // Rebuild: zero the counter, re-broadcast only the survivors.
      counters.reset();
#pragma omp parallel
      {
        CounterSlab slab = counters.local();
#pragma omp for schedule(dynamic, 16)
        for (std::size_t i = 0; i < num_sets; ++i) {
          if (!alive[i]) continue;
          if (detail::contains_traced<Mem>(pool[i], seed)) {
            alive[i] = 0;
            continue;
          }
          detail::for_each_traced<Mem>(pool[i], [&](VertexId v) {
            Mem::touch(slab.slot(v), sizeof(std::uint64_t));
            slab.increment(v);
          });
        }
      }
      // Every count was just recounted, and on the dense pools that
      // rebuild most of them dropped: re-heaping the fresh counts costs
      // O(|V|), where refreshing the stale entries one by one would cost
      // O(|V| log |V|).
      heap.build<Mem>(counters, eligible);
    } else if (const auto covering = index.covering<Mem>(seed);
               !covering.empty()) {
      ++result.indexed_rounds;
      // Indexed decrement: walk only the seed's list. Each set id appears
      // once in it, so exactly one worker retires each covered set; the
      // decrements commute, so the counters end where the scan leaves
      // them.
      const auto entries = static_cast<std::int64_t>(covering.size());
#pragma omp parallel
      {
        CounterSlab slab = counters.local();
#pragma omp for schedule(dynamic, 16)
        for (std::int64_t j = 0; j < entries; ++j) {
          Mem::touch(&covering[j], sizeof(std::uint32_t));
          const std::uint32_t i = covering[j];
          Mem::touch(&alive[i], sizeof(std::uint8_t));
          if (!alive[i]) continue;
          alive[i] = 0;
          detail::for_each_traced<Mem>(pool[i], [&](VertexId v) {
            Mem::touch(slab.slot(v), sizeof(std::uint64_t));
            slab.decrement(v);
          });
        }
      }
    } else {
      // Decrement: remove each covered set's contribution. Under the
      // sharded layout the decrement lands on the DECREMENTING thread's
      // home replica — possibly not the one the matching increment hit;
      // the summed view stays exact either way (modular arithmetic, see
      // atomic_counters.hpp), which is what makes the §IV-C adaptive
      // update shard-layout-agnostic.
#pragma omp parallel
      {
        CounterSlab slab = counters.local();
#pragma omp for schedule(dynamic, 16)
        for (std::size_t i = 0; i < num_sets; ++i) {
          if (!alive[i]) continue;
          if (!detail::contains_traced<Mem>(pool[i], seed)) continue;
          alive[i] = 0;
          detail::for_each_traced<Mem>(pool[i], [&](VertexId v) {
            Mem::touch(slab.slot(v), sizeof(std::uint64_t));
            slab.decrement(v);
          });
        }
      }
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Ripples baseline kernel (§II-B)
// ---------------------------------------------------------------------------

template <typename Mem = NullMem, typename PoolT = RRRPool>
SelectionResult ripples_select_t(const PoolT& pool,
                                 const SelectionOptions& options) {
  const std::size_t num_sets = pool.size();
  const VertexId n = pool.num_vertices();
  EIMM_CHECK(options.k > 0, "k must be positive");

  SelectionResult result;
  result.total_sets = num_sets;
  std::vector<std::uint8_t> own_alive;
  std::vector<std::uint8_t>& alive =
      options.alive_scratch != nullptr ? *options.alive_scratch : own_alive;
  alive.assign(num_sets, 1);

  // Thread-local counters over a static vertex partition. Stored as one
  // flat array indexed by vertex: thread t owns [vl, vh) and only touches
  // its own slice, mimicking Ripples' per-thread counter vectors.
  std::vector<std::uint64_t> local_counters(n, 0);

  // Initial count: EVERY thread traverses EVERY RRR set and uses binary
  // search to find the slice of the (sorted) set that intersects its
  // vertex range — the access pattern Challenge 1 blames.
#pragma omp parallel
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    const auto nthreads = static_cast<std::size_t>(omp_get_num_threads());
    const auto [vl, vh] = block_range(n, nthreads, tid);
    for (std::size_t i = 0; i < num_sets; ++i) {
      const auto& set = pool[i];
      if (set.repr() == RRRRepr::kVector) {
        const auto& verts = set.vertices();
        // Binary search for the lower bound of the thread's range...
        std::size_t lo = 0, hi = verts.size();
        while (lo < hi) {
          const std::size_t mid = lo + (hi - lo) / 2;
          Mem::touch(verts.data() + mid, sizeof(VertexId));
          if (verts[mid] < vl) lo = mid + 1;
          else hi = mid;
        }
        // ...then walk members inside [vl, vh).
        for (std::size_t j = lo; j < verts.size() && verts[j] < vh; ++j) {
          Mem::touch(verts.data() + j, sizeof(VertexId));
          Mem::touch(local_counters.data() + verts[j], sizeof(std::uint64_t));
          local_counters[verts[j]]++;
        }
      } else {
        set.for_each([&](VertexId v) {
          if (v >= vl && v < vh) {
            Mem::touch(local_counters.data() + v, sizeof(std::uint64_t));
            local_counters[v]++;
          }
        });
      }
    }
  }

  const std::size_t rounds = std::min<std::size_t>(options.k, n);
  for (std::size_t round = 0; round < rounds; ++round) {
    // Reduce the per-thread maxima (lowest-id tie-break, same as the
    // efficient kernel, so seed sequences are comparable).
    ArgMaxResult best{0, 0};
    for (VertexId v = 0; v < n; ++v) {
      Mem::touch(local_counters.data() + v, sizeof(std::uint64_t));
      if (local_counters[v] > best.value) {
        best.value = local_counters[v];
        best.index = v;
      }
    }
    if (best.value == 0) break;
    const auto seed = static_cast<VertexId>(best.index);
    result.seeds.push_back(seed);
    result.marginal_coverage.push_back(best.value);

    // Decrement pass: every thread re-scans every alive set, binary-
    // searching for the seed; sets containing it are retired and their
    // members' counters (within the thread's range) decremented.
    std::uint64_t covered_count = 0;
#pragma omp parallel reduction(+ : covered_count)
    {
      const auto tid = static_cast<std::size_t>(omp_get_thread_num());
      const auto nthreads = static_cast<std::size_t>(omp_get_num_threads());
      const auto [vl, vh] = block_range(n, nthreads, tid);
      for (std::size_t i = 0; i < num_sets; ++i) {
        if (!alive[i]) continue;
        if (!detail::contains_traced<Mem>(pool[i], seed)) continue;
        if (tid == 0) ++covered_count;  // count each set once
        const auto& set = pool[i];
        if (set.repr() == RRRRepr::kVector) {
          const auto& verts = set.vertices();
          std::size_t lo = 0, hi = verts.size();
          while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            Mem::touch(verts.data() + mid, sizeof(VertexId));
            if (verts[mid] < vl) lo = mid + 1;
            else hi = mid;
          }
          for (std::size_t j = lo; j < verts.size() && verts[j] < vh; ++j) {
            Mem::touch(verts.data() + j, sizeof(VertexId));
            Mem::touch(local_counters.data() + verts[j],
                       sizeof(std::uint64_t));
            local_counters[verts[j]]--;
          }
        } else {
          set.for_each([&](VertexId v) {
            if (v >= vl && v < vh) {
              Mem::touch(local_counters.data() + v, sizeof(std::uint64_t));
              local_counters[v]--;
            }
          });
        }
      }
      // Retire covered sets after all threads finished decrementing.
#pragma omp barrier
#pragma omp for schedule(static)
      for (std::size_t i = 0; i < num_sets; ++i) {
        if (alive[i] && detail::contains_traced<Mem>(pool[i], seed)) {
          alive[i] = 0;
        }
      }
    }
    result.covered_sets += covered_count;
  }
  return result;
}

/// Production-path wrappers (NullMem), defined in select.cpp.
SelectionResult efficient_select(const RRRPool& pool, CounterArray& counters,
                                 const SelectionOptions& options);
SelectionResult ripples_select(const RRRPool& pool,
                               const SelectionOptions& options);

}  // namespace eimm
