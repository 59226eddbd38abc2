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
// 64-bit atomic counter; the arg-max is a two-step parallel reduction;
// after each pick the counter is either decremented over covered sets or
// rebuilt from the survivors — whichever touches fewer vertices
// (§IV-C "Adaptive Vertex Occurrence Counter Update"). Decrement rounds
// go through a budgeted hot-vertex index (HotVertexIndex below), built
// once per selection from the initial counters: the highest-count
// vertices whose counts sum to at most θ/8, each with the ascending ids
// of the sets containing it. One parallel pass over the pool fills it;
// a decrement whose seed is indexed then costs O(covered sets) — it
// walks the seed's list — instead of a θ-wide scan that decodes every
// alive set to test membership. A seed outside the index (or a pool
// with no index: the top vertex alone exceeds the budget, or θ ≥ 2^32)
// falls back to that scan unchanged. The kernel is
// additionally templated on the Counters layout: the flat CounterArray
// (the paper's shared atomic array) or the NUMA ShardedCounterArray
// (per-domain replicas, updates to the caller's home replica, summed
// hierarchical arg-max). Workers resolve a CounterSlab view once per
// parallel region; both layouts produce bit-identical seed sequences.
//
// Both kernels are templated on a Mem policy that observes every data
// access (counters, set payloads); NullMem compiles to nothing, and
// src/cachesim provides a tracing policy that feeds the L1/L2 model for
// the Table IV reproduction. They are additionally templated on the Pool
// storage: the legacy RRRPool or an RRRPoolView (rrr/pool_view.hpp) over
// shard-local arena segments — the zero-copy hand-off from the sharded
// sampler. Both kernels break counter ties toward the lowest vertex id,
// so they return identical seed sequences on the same pool content,
// whichever storage backs it — a cross-validation the test suite
// enforces.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/atomic_counters.hpp"
#include "runtime/partition.hpp"
#include "runtime/reduction.hpp"
#include "runtime/work_queue.hpp"
#include "rrr/pool.hpp"
#include "rrr/pool_view.hpp"
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
/// real representation lays it out (run elements, bitmap words, or the
/// gap-coded bytes). `SetT` is RRRSet or RRRSetView — both expose the
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
  } else if (repr == RRRRepr::kBitmap) {
    // Bitmap: the kernel streams whole words and expands set bits.
    const std::uint64_t* words = set.words().data();
    set.for_each([&](VertexId v) {
      Mem::touch(words + (v >> 6), sizeof(std::uint64_t));
      fn(v);
    });
  } else {
    if constexpr (std::is_same_v<SetT, RRRSetView>) {
      const auto bytes = set.payload();
      Mem::touch(bytes.data(), bytes.size());
    }
    set.for_each(std::forward<Fn>(fn));
  }
}

/// Traced membership test (binary search probes / single bit test /
/// linear decode of a gap-coded payload).
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
    if (repr == RRRRepr::kBitmap) {
      const auto words = set.words();
      if ((v >> 6) < words.size()) {
        Mem::touch(words.data() + (v >> 6), sizeof(std::uint64_t));
      }
    } else if constexpr (std::is_same_v<SetT, RRRSetView>) {
      const auto bytes = set.payload();
      Mem::touch(bytes.data(), bytes.size());
    }
  }
  return set.contains(v);
}

/// Arg-max over either counter layout. The production path uses the
/// layout's parallel reduction (two-step flat, hierarchical sharded);
/// the traced path scans serially so every counter read reaches the
/// cache model.
template <typename Mem, typename Counters>
ArgMaxResult argmax_counters(const Counters& counters,
                             const std::uint8_t* eligible = nullptr) {
  if constexpr (!Mem::kTracing) {
    return parallel_argmax(counters, eligible);
  } else {
    ArgMaxResult best{0, 0};
    for (std::size_t i = 0; i < counters.size(); ++i) {
      if (eligible != nullptr && eligible[i] == 0) continue;
      Mem::touch(counters.slot(i), sizeof(std::uint64_t));
      const std::uint64_t v = counters.get(i);
      if (v > best.value) {
        best.value = v;
        best.index = i;
      }
    }
    return best;
  }
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

  /// One parallel pass over the pool: every member of an indexed vertex
  /// claims the next slot of that vertex's list through an atomic cursor
  /// starting at its offset. Lists are then sorted, so their content
  /// (and a traced walk) does not depend on the schedule. A count that
  /// disagrees with the pool empties the index instead of overrunning.
  template <typename Mem, typename PoolT>
  void fill(const PoolT& pool) {
    const std::size_t m = num_indexed();
    std::vector<std::atomic<std::uint32_t>> cursor(m);
    for (std::size_t r = 0; r < m; ++r) cursor[r] = offsets_[r];
    std::atomic<bool> overrun{false};
    const auto num_sets = static_cast<std::int64_t>(pool.size());
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < num_sets; ++i) {
      detail::for_each_traced<Mem>(pool[static_cast<std::size_t>(i)],
                                   [&](VertexId v) {
        const std::size_t w = v >> 6;
        Mem::touch(&words_[w], sizeof(std::uint64_t));
        if (((words_[w] >> (v & 63)) & 1) == 0) return;
        const std::size_t r = rank<Mem>(v);
        Mem::touch(&cursor[r], sizeof(std::uint32_t));
        const std::uint32_t at =
            cursor[r].fetch_add(1, std::memory_order_relaxed);
        if (at >= offsets_[r + 1]) {
          overrun.store(true, std::memory_order_relaxed);
          return;
        }
        Mem::touch(&sets_[at], sizeof(std::uint32_t));
        sets_[at] = static_cast<std::uint32_t>(i);
      });
    }
    bool exact = !overrun.load();
    for (std::size_t r = 0; exact && r < m; ++r) {
      exact = cursor[r].load(std::memory_order_relaxed) == offsets_[r + 1];
    }
    if (!exact) {
      *this = HotVertexIndex();
      return;
    }
    const auto lists = static_cast<std::int64_t>(m);
#pragma omp parallel for schedule(dynamic, 64)
    for (std::int64_t r = 0; r < lists; ++r) {
      Mem::touch(sets_.data() + offsets_[r],
                 (offsets_[r + 1] - offsets_[r]) * sizeof(std::uint32_t));
      std::sort(sets_.begin() + offsets_[r], sets_.begin() + offsets_[r + 1]);
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
    // The arg-max scans the whole counter array, so the mask must cover
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

  // Built from the initial counts, before the first pick changes them.
  const HotVertexIndex index =
      HotVertexIndex::build<Mem>(pool, std::as_const(counters));

  std::uint64_t alive_count = num_sets;
  const std::size_t rounds = std::min<std::size_t>(options.k, n);
  for (std::size_t round = 0; round < rounds; ++round) {
    const ArgMaxResult best = detail::argmax_counters<Mem>(counters, eligible);
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
