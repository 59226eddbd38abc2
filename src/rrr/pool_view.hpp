// Zero-copy hand-off between the sampling and selection kernels.
//
// The paper's Table II / §IV analysis puts the win in keeping the
// sampling working set domain-local. Rebuilding the flat RRRPool image
// from the staged runs would cost a full extra copy of every vertex
// payload; this layer lets selection read the staged runs instead:
//
//   RRRSetView     — one RRR set, whichever storage backs it: a legacy
//                    RRRSet (vector or bitmap), a sorted arena run, or
//                    an arena bitmap.
//   ShardArena     — worker-private staging storage (page-aligned
//                    mbind(kLocal) NumaBuffer chunks) that only grows:
//                    every martingale round appends to the same arenas.
//   SegmentedPool  — the shard-local pool format that survives into
//                    selection: per-worker arenas owning the staged
//                    slots, plus one 16-byte entry per global RRR slot
//                    in a slot table that grows in place (mremap).
//                    A slot is either a sorted vertex run or — the
//                    paper's adaptive representation (§IV-C) — a
//                    word-aligned bitmap over |V|. No contiguous image
//                    is ever built.
//   RRRPoolView    — the pool abstraction every selection-side consumer
//                    (seedselect kernels, SelectionEngine, coverage
//                    probing, serve/SketchStore freezing, cachesim)
//                    accepts: a contiguous legacy RRRPool or a
//                    SegmentedPool, behind one slot-addressed surface.
//
// Determinism: slot content is identical under every backing (runs are
// sorted exactly like RRRSet's vector representation; bitmap slots
// enumerate ascending), so selection over a view is bit-identical to
// selection over the flattened pool — enforced by tests/rrr/pool_view
// and the ctest -L statcheck view sweep. flatten() stays available for
// consumers that genuinely need the contiguous CSR image (snapshot
// serialization); everything else reads in place.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "numa/alloc.hpp"
#include "rrr/pool.hpp"
#include "rrr/set.hpp"
#include "support/aligned.hpp"
#include "support/bits.hpp"

namespace eimm {

/// One RRR set behind the view: a legacy RRRSet, a sorted arena run, or
/// an arena bitmap. Same observable surface every way — ascending
/// for_each enumeration, exact contains — so the selection kernels
/// produce identical seed sequences no matter which storage backs the
/// pool. Bitmap slots route the kernels to the generic for_each/contains
/// path (the vertices() span fast path exists only for kVector).
class RRRSetView {
 public:
  RRRSetView() = default;
  /*implicit*/ RRRSetView(const RRRSet& set) noexcept
      : kind_(Kind::kSet), set_(&set) {}
  /*implicit*/ RRRSetView(std::span<const VertexId> run) noexcept
      : run_(run) {}

  /// A bitmap over |V| (`words` = ceil(|V|/64), bits past |V| zero)
  /// holding `count` members.
  [[nodiscard]] static RRRSetView bitmap(std::span<const std::uint64_t> words,
                                         std::size_t count) noexcept {
    RRRSetView view;
    view.kind_ = Kind::kBitmap;
    view.words_ = words;
    view.count_ = count;
    return view;
  }

  /// kVector for arena runs (they are sorted vertex runs by contract);
  /// kBitmap for arena bitmaps.
  [[nodiscard]] RRRRepr repr() const noexcept {
    switch (kind_) {
      case Kind::kSet: return set_->repr();
      case Kind::kBitmap: return RRRRepr::kBitmap;
      case Kind::kRun: break;
    }
    return RRRRepr::kVector;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    switch (kind_) {
      case Kind::kSet: return set_->size();
      case Kind::kBitmap: return count_;
      case Kind::kRun: break;
    }
    return run_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Sorted-member span; valid only when repr() == kVector (mirrors
  /// RRRSet::vertices(), which the baseline binary-search kernel uses).
  /// Empty for bitmap slots — they have no materialized members.
  [[nodiscard]] std::span<const VertexId> vertices() const noexcept {
    switch (kind_) {
      case Kind::kSet:
        return {set_->vertices().data(), set_->vertices().size()};
      case Kind::kBitmap: return {};
      case Kind::kRun: break;
    }
    return run_;
  }

  /// The bitmap words of an arena or RRRSet bitmap (empty otherwise).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return kind_ == Kind::kSet ? set_->words() : words_;
  }

  [[nodiscard]] bool contains(VertexId v) const noexcept {
    switch (kind_) {
      case Kind::kSet: return set_->contains(v);
      case Kind::kBitmap:
        return (v >> 6) < words_.size() && ((words_[v >> 6] >> (v & 63)) & 1);
      case Kind::kRun: break;
    }
    return std::binary_search(run_.begin(), run_.end(), v);
  }

  /// Invokes fn(vertex) for every member in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    switch (kind_) {
      case Kind::kSet: set_->for_each(std::forward<Fn>(fn)); return;
      case Kind::kBitmap:
        for (std::size_t w = 0; w < words_.size(); ++w) {
          for_each_set_bit(words_[w], w * 64, [&](std::size_t v) {
            fn(static_cast<VertexId>(v));
          });
        }
        return;
      case Kind::kRun: break;
    }
    for (const VertexId v : run_) fn(v);
  }

 private:
  enum class Kind : std::uint8_t { kRun, kSet, kBitmap };

  Kind kind_ = Kind::kRun;
  const RRRSet* set_ = nullptr;           // kSet
  std::span<const VertexId> run_;         // kRun
  std::span<const std::uint64_t> words_;  // kBitmap
  std::size_t count_ = 0;                 // kBitmap
};

/// Worker-private staging storage for sampled RRR slots: page-aligned
/// NumaBuffer chunks requested kLocal, so the pages land on the sampling
/// worker's own domain under first-touch. Single-writer; a slot never
/// spans chunks, so view()/slot() is one contiguous span. Each arena
/// fills whole cache lines: the workers' arenas sit side by side in
/// SegmentedPool and every staged slot writes the cursor and counters,
/// so two arenas sharing a line would false-share.
class alignas(kCacheLineSize) ShardArena {
 public:
  /// Handle to one staged slot: a sorted run (words == 0) or a bitmap of
  /// `words` 64-bit words holding `len` members.
  struct Ref {
    std::uint32_t chunk = 0;
    std::uint32_t pos = 0;    ///< offset in VertexId units
    std::uint32_t len = 0;    ///< member count
    std::uint32_t words = 0;  ///< bitmap word count; 0 for a run
  };

  /// `chunk_vertices` is the default chunk capacity; slots larger than
  /// it get a dedicated exactly-sized chunk.
  explicit ShardArena(std::size_t chunk_vertices = std::size_t{1} << 18)
      : chunk_vertices_(chunk_vertices == 0 ? 1 : chunk_vertices) {}

  Ref append(std::span<const VertexId> vertices);

  /// Reserves an uninitialized run of `len` vertices, returning its ref
  /// and a writable span the caller must fill before the run is read.
  /// Same placement rules as append (a run never spans chunks); the
  /// fused sampler uses this to scatter lane members straight into the
  /// arena with no intermediate buffer.
  Ref allocate(std::size_t len, std::span<VertexId>& out);

  /// Reserves a ZEROED, 8-byte-aligned bitmap of `words` words for a set
  /// of `members` members; the caller sets exactly that many bits before
  /// the slot is read.
  Ref allocate_bitmap(std::size_t words, std::size_t members,
                      std::span<std::uint64_t>& out);

  /// A run's members; valid only for run refs (words == 0).
  [[nodiscard]] std::span<const VertexId> view(const Ref& ref) const noexcept;
  /// Either kind of staged slot.
  [[nodiscard]] RRRSetView slot(const Ref& ref) const noexcept;

  /// Bytes of mapped staging memory currently held (diagnostics).
  [[nodiscard]] std::uint64_t mapped_bytes() const noexcept;
  /// Cumulative payload bytes staged since construction.
  [[nodiscard]] std::uint64_t staged_bytes() const noexcept {
    return staged_vertices_ * sizeof(VertexId);
  }
  /// Staged slots since construction.
  [[nodiscard]] std::uint64_t runs() const noexcept { return runs_; }

 private:
  /// Places `units` VertexId units at a multiple of `align` units.
  Ref place(std::size_t units, std::size_t align, VertexId*& out);
  [[nodiscard]] const VertexId* data(const Ref& ref) const noexcept {
    return static_cast<const VertexId*>(chunks_[ref.chunk].data()) + ref.pos;
  }

  std::size_t chunk_vertices_;
  std::vector<NumaBuffer> chunks_;  // the last one is written
  std::size_t head_used_ = 0;       // vertices used in the last chunk
  std::uint64_t runs_ = 0;
  std::uint64_t staged_vertices_ = 0;
};

/// The shard-local pool format that survives into selection: slot i is
/// a SORTED vertex run or a bitmap staged in one of the per-worker
/// arenas, addressed by a raw 16-byte entry. The arenas are owned here,
/// so the staged pages live exactly as long as the pool — a
/// SegmentedPool can be moved into a SketchStore and keep serving.
///
/// Concurrency contract: ensure_workers()/resize() are driver-side
/// (serial, or inside `omp single`); workers then fill DISJOINT slots
/// through their own arena(w) + set_run/set_bitmap.
class SegmentedPool {
 public:
  SegmentedPool() = default;
  explicit SegmentedPool(VertexId num_vertices)
      : num_vertices_(num_vertices) {}
  SegmentedPool(SegmentedPool&& other) noexcept { *this = std::move(other); }
  SegmentedPool& operator=(SegmentedPool&& other) noexcept {
    num_vertices_ = other.num_vertices_;
    size_ = std::exchange(other.size_, 0);
    table_ = std::move(other.table_);
    arenas_ = std::move(other.arenas_);
    return *this;
  }

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return num_vertices_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Grows the slot table to `count` entries (never shrinks) in place:
  /// no written entry is copied or re-zeroed; new ones read as empty.
  void resize(std::size_t count);

  /// Grows the per-worker arena set to at least `workers` arenas. Must
  /// not run concurrently with arena()/set_run().
  void ensure_workers(std::size_t workers);
  [[nodiscard]] std::size_t num_workers() const noexcept {
    return arenas_.size();
  }
  [[nodiscard]] ShardArena& arena(std::size_t worker) noexcept {
    return arenas_[worker];
  }
  /// Staging-side access to the whole arena vector (the sharded sampler
  /// plans over it and may grow it inside its `omp single` region).
  /// Driver-side only — never call while workers are appending.
  [[nodiscard]] std::vector<ShardArena>& arenas_for_staging() noexcept {
    return arenas_;
  }

  /// Records slot `i`'s staged run. `run` must point into one of this
  /// pool's arenas, which live as long as the pool.
  void set_run(std::size_t i, std::span<const VertexId> run) noexcept {
    entries()[i] = Entry{run.data(), static_cast<std::uint64_t>(run.size())};
  }
  /// Records slot `i`'s staged bitmap (ceil(|V|/64) words, `count`
  /// members); same lifetime contract as set_run.
  void set_bitmap(std::size_t i, const std::uint64_t* words,
                  std::size_t count) noexcept {
    entries()[i] = Entry{words, kBitmapFlag | count};
  }

  [[nodiscard]] bool is_bitmap(std::size_t i) const noexcept {
    return (entries()[i].len & kBitmapFlag) != 0;
  }
  /// Slot `i`, whichever kind it is.
  [[nodiscard]] RRRSetView slot(std::size_t i) const noexcept {
    const Entry& e = entries()[i];
    if ((e.len & kBitmapFlag) == 0) {
      return RRRSetView(std::span<const VertexId>(
          static_cast<const VertexId*>(e.data), e.len));
    }
    return RRRSetView::bitmap(
        {static_cast<const std::uint64_t*>(e.data),
         words_for_bits(num_vertices_)},
        e.len & ~kBitmapFlag);
  }

  /// Cumulative payload / currently-mapped staging bytes over all arenas.
  [[nodiscard]] std::uint64_t staged_bytes() const noexcept;
  [[nodiscard]] std::uint64_t mapped_bytes() const noexcept;
  /// Resident footprint: mapped arena bytes plus the mapped slot table.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;

 private:
  /// Entry::len's top bit marks a bitmap slot; the low bits are always
  /// the member count.
  static constexpr std::uint64_t kBitmapFlag = std::uint64_t{1} << 63;

  struct Entry {
    const void* data = nullptr;
    std::uint64_t len = 0;
  };

  [[nodiscard]] Entry* entries() const noexcept {
    return static_cast<Entry*>(table_.data());
  }

  VertexId num_vertices_ = 0;
  std::size_t size_ = 0;
  NumaBuffer table_;  ///< size_ Entry slots, then untouched capacity
  std::vector<ShardArena> arenas_;
};

/// Non-owning, slot-addressed view over any pool storage. Implicit
/// construction keeps every RRRPool call site source-compatible; the
/// referenced pool must outlive the view (same contract as std::span).
class RRRPoolView {
 public:
  RRRPoolView() = default;
  /*implicit*/ RRRPoolView(const RRRPool& pool) noexcept : pool_(&pool) {}
  /*implicit*/ RRRPoolView(const SegmentedPool& segments) noexcept
      : segments_(&segments) {}

  [[nodiscard]] bool segmented() const noexcept { return segments_ != nullptr; }

  [[nodiscard]] VertexId num_vertices() const noexcept {
    if (pool_ != nullptr) return pool_->num_vertices();
    return segments_ != nullptr ? segments_->num_vertices() : 0;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    if (pool_ != nullptr) return pool_->size();
    return segments_ != nullptr ? segments_->size() : 0;
  }

  [[nodiscard]] RRRSetView operator[](std::size_t i) const noexcept {
    if (pool_ != nullptr) return RRRSetView((*pool_)[i]);
    return segments_->slot(i);
  }

  /// Sum of set sizes (== total counter increments during a build).
  [[nodiscard]] std::uint64_t total_vertices() const noexcept;
  /// Sets in bitmap representation: RRRSet bitmaps or segmented bitmap
  /// slots.
  [[nodiscard]] std::size_t bitmap_count() const noexcept;
  /// Heap/staging footprint of the backing storage, slot tables included.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;

  /// Copies every set into one contiguous CSR image — the ONLY remaining
  /// payload copy on the data path, kept for snapshot serialization and
  /// cross-backing equality checks. Parallel fill; bitmap sets expand to
  /// sorted runs.
  [[nodiscard]] FlatPool flatten() const;

 private:
  const RRRPool* pool_ = nullptr;
  const SegmentedPool* segments_ = nullptr;
};

}  // namespace eimm
