// SketchStore — the frozen, queryable image of one IMM build.
//
// The paper's asymmetry (sampling dominates, selection is cheap) is also
// a serving opportunity: generate the RRR sketches ONCE with the full
// martingale machinery, then answer many independent seed-selection
// queries against the frozen pool without regeneration — the same
// build/serve split HBMax exploits by compressing RRR state for reuse.
//
// The store holds two immutable CSR indexes over the same pool:
//   sketch → member vertices   (the flattened pool; drives decrements)
//   vertex → covering sketches (the inverted index; after a pick, jump
//                               straight to the covered sketches instead
//                               of scanning all θ sets)
// plus the precomputed unconstrained greedy sequence up to the build-time
// cap k_max, so plain top-k queries are an O(k) prefix read.
//
// Freezing: build() flattens the build's pool into the contiguous CSR
// image once (RRRPoolView::flatten — bitmap sets expand to sorted runs)
// and releases the build's storage before deriving the index, so a built
// store holds exactly the arrays a loaded one does.
//
// Snapshots (magic "EIMMSKS", version 4 — the one version save() writes
// and the loaders read; a file of any other version fails with a typed
// bin::FormatError that names the version and asks for a rebuild) are a
// header + page-aligned section table (id, CRC32C, offset, length; every
// section offset 4096-aligned) followed by the raw arrays, INCLUDING the
// derived inverted index and default greedy sequence. The section count
// picks the layout:
//   7 sections — raw: the sketch-vertices section holds u32 members.
//   8 sections — compressed: the sketch-vertices section holds the
//                delta-varint gap streams of all sketches back to back
//                (rrr/gap_codec.hpp), and an eighth section carries the
//                per-sketch byte offsets. Loads keep the payload
//                compressed and serve queries decode-on-enumerate.
// load_file() mmaps the file read-only and serves every array straight
// from the mapping — zero pool copies, cold start O(section table +
// offsets scan) instead of O(pool) — so N serving processes share one
// page-cache copy of the sketch data. Each table entry carries the
// CRC32C of its section's payload bytes: mmap loads verify lazily by
// default (at first QueryEngine construction, preserving the O(table)
// cold start) or eagerly per SnapshotLoadOptions::checksums. A mismatch
// surfaces as typed bin::FormatError with section+offset — a flipped bit
// is never served.
// One decoder reads a byte image of the whole file, which is the
// read-only mapping on the mmap path and an owned 8-byte-aligned copy on
// the stream path (pipes, tests). Stream loads therefore serve from
// exactly the bytes an mmap load would, verify checksums before
// returning, and always scan the payload.
//
// Everything is read-only after build/load — queries allocate their own
// scratch (see QueryEngine) — so any number of threads can serve from one
// store concurrently. save→load→save is bit-identical under both load
// paths, and a store compares equal (operator== is logical, not
// representational) to its own loaded snapshot, raw or compressed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/imm.hpp"
#include "graph/types.hpp"
#include "io/mmap.hpp"
#include "rrr/gap_codec.hpp"
#include "rrr/pool.hpp"
#include "rrr/pool_view.hpp"
#include "support/macros.hpp"

namespace eimm {

/// Sketch ids are dense [0, num_sketches); 32 bits bounds a store at
/// ~4.3B sketches, far above the 2^22 default generation cap.
using SketchId = std::uint32_t;

/// Build provenance carried in every snapshot: enough to reproduce the
/// store (workload + seed + accuracy) and to label benchmark output.
struct SketchStoreMeta {
  std::string workload;  // free-form dataset label
  std::string model;     // "IC" | "LT"
  std::uint64_t rng_seed = 0;
  double epsilon = 0.0;
  std::uint64_t theta = 0;  // martingale θ the build requested
  bool theta_capped = false;

  friend bool operator==(const SketchStoreMeta&,
                         const SketchStoreMeta&) = default;
};

/// How load_file() should back the store.
enum class SnapshotLoadMode {
  kMap,     ///< mmap the file read-only and serve from it (the default)
  kStream,  ///< copy the whole file into owned memory
};

/// When an mmap load verifies the per-section CRC32C checksums (stream
/// loads always verify — the bytes are in hand).
enum class ChecksumMode {
  kLazy,   ///< defer to verify_checksums() — first QueryEngine ctor —
           ///< keeping the O(table) mmap cold start
  kEager,  ///< verify every section at load time
};

struct SnapshotLoadOptions {
  SnapshotLoadMode mode = SnapshotLoadMode::kMap;
  /// Adds the O(pool) scans the mmap path skips by default: per-member
  /// range/ordering checks plus recompute-and-compare of the derived
  /// inverted index and default greedy sequence. Stream loads always
  /// validate the primary payload; deep validation adds the derived-
  /// state cross-check there too (and forces checksum verification
  /// first).
  bool deep_validate = false;
  /// Checksum handling on the mmap path.
  ChecksumMode checksums = ChecksumMode::kLazy;
};

/// What a load cost — the acceptance counters for the zero-copy path.
struct SnapshotLoadStats {
  std::uint32_t version = 0;
  bool mmap_backed = false;
  std::uint64_t file_bytes = 0;
  /// Bytes mapped read-only (the whole file on the mmap path, else 0).
  std::uint64_t bytes_mapped = 0;
  /// Bytes copied into owned memory: the whole file on a stream load, 0
  /// on the mmap path (nothing but the meta strings is duplicated).
  std::uint64_t bytes_copied = 0;
  bool deep_validated = false;
  /// Compressed layout: the payload stayed gap-coded through the load.
  bool compressed = false;
  /// Bytes of the compressed sketch payload (0 for raw layouts).
  std::uint64_t compressed_payload_bytes = 0;
  /// Checksums were verified DURING the load (stream / eager mmap). A
  /// lazy mmap load leaves this false; see checksums_pending().
  bool checksums_verified = false;
};

/// Snapshot writer knobs (see save()).
struct SnapshotSaveOptions {
  /// Write the compressed-payload layout. Works from any backing: a
  /// loaded compressed store's varint payload is written as-is, a raw
  /// one encodes at save time.
  bool compress = false;
};

class SketchStore {
 public:
  /// Runs the sampling phase (identical to run_imm with Engine::kEfficient
  /// and the same options) and freezes the resulting pool, releasing the
  /// build's storage first. options.k is the build-time query cap:
  /// queries may ask for any k ≤ k_max. The cap is clamped to |V|
  /// (greedy can never return more seeds).
  static SketchStore build(const DiffusionGraph& graph,
                           const ImmOptions& options,
                           std::string workload_label = "");

  /// Freezes a COPY of an existing pool — an RRRPool or a SegmentedPool,
  /// both convert to the view (test seam and offline conversions; the
  /// caller keeps the pool).
  static SketchStore from_pool(RRRPoolView pool, std::size_t k_max,
                               SketchStoreMeta meta = {});

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return num_vertices_;
  }
  [[nodiscard]] std::uint64_t num_sketches() const noexcept {
    return num_sketches_;
  }
  [[nodiscard]] std::size_t k_max() const noexcept { return k_max_; }
  [[nodiscard]] const SketchStoreMeta& meta() const noexcept { return meta_; }

  /// Member vertices of sketch `s`, ascending, from the flat image
  /// (owned or mmap'ed). Compressed stores have no materialized members
  /// to span — this throws CheckError there; use for_each_member (works
  /// over every backing).
  [[nodiscard]] std::span<const VertexId> sketch(SketchId s) const {
    EIMM_CHECK(!compressed_,
               "sketch() spans are unavailable on a compressed store; "
               "enumerate with for_each_member()");
    return {sketch_vertices_.data() + sketch_offsets_[s], member_count(s)};
  }

  /// Invokes fn(vertex) for every member of sketch `s` in ascending
  /// order, whatever the backing — the enumeration surface query
  /// kernels use so compressed and raw stores serve identically. May
  /// throw CheckError on a corrupt compressed payload.
  template <typename Fn>
  void for_each_member(SketchId s, Fn&& fn) const {
    if (compressed_) {
      comp_slot(s).for_each(std::forward<Fn>(fn));
      return;
    }
    for (const VertexId v : sketch(s)) fn(v);
  }

  /// Member count of sketch `s` (cheap for every backing).
  [[nodiscard]] std::uint64_t member_count(SketchId s) const noexcept {
    return sketch_offsets_[s + 1] - sketch_offsets_[s];
  }

  /// True when the sketch payload is gap-coded (a loaded compressed
  /// snapshot) and queries decode on enumerate.
  [[nodiscard]] bool compressed() const noexcept { return compressed_; }
  /// Bytes of the gap-coded payload (0 when not compressed).
  [[nodiscard]] std::uint64_t compressed_payload_bytes() const noexcept {
    return compressed_ ? comp_offsets_.back() : 0;
  }

  /// Sketches covering vertex `v`, ascending.
  [[nodiscard]] std::span<const SketchId> covering(VertexId v) const noexcept {
    return {node_sketches_.data() + node_offsets_[v],
            node_sketches_.data() + node_offsets_[v + 1]};
  }

  /// Number of sketches covering `v` — exactly the initial value of the
  /// Algorithm 2 vertex-occurrence counter.
  [[nodiscard]] std::uint64_t degree(VertexId v) const noexcept {
    return node_offsets_[v + 1] - node_offsets_[v];
  }

  /// The unconstrained greedy sequence (≤ k_max seeds; shorter when the
  /// pool is exhausted first) and each seed's marginal coverage.
  [[nodiscard]] std::span<const VertexId> default_seeds() const noexcept {
    return default_seeds_;
  }
  [[nodiscard]] std::span<const std::uint64_t> default_marginals()
      const noexcept {
    return default_marginals_;
  }

  /// Owned heap footprint (mmap-served arrays are NOT counted — they are
  /// shared page cache; see mapped_bytes()).
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;
  /// Bytes served from the read-only snapshot mapping (0 unless
  /// mmap-loaded).
  [[nodiscard]] std::uint64_t mapped_bytes() const noexcept {
    return mapping_.size();
  }

  // --- Snapshots (eimm::bin format, magic "EIMMSKS") ---
  /// Writes the checksummed v4 section-table format: 7 raw sections, or
  /// 8 with the compressed payload when options.compress is set.
  void save(std::ostream& os, SnapshotSaveOptions options = {}) const;
  void save_file(const std::string& path,
                 SnapshotSaveOptions options = {}) const;
  /// Stream loader: copies the snapshot into an owned image and decodes
  /// it like a mapping. Always verifies checksums and validates the
  /// primary payload.
  static SketchStore load(std::istream& is);
  static SketchStore load_file(const std::string& path,
                               SnapshotLoadOptions options = {});

  /// What the most recent load cost; zeroed on built stores.
  [[nodiscard]] const SnapshotLoadStats& load_stats() const noexcept {
    return load_stats_;
  }

  /// Verifies any deferred section checksums (lazy mmap loads).
  /// Idempotent and safe under concurrency; a no-op when nothing is
  /// pending. Throws bin::FormatError naming the corrupt section — and
  /// stays retryable: a failed verification leaves the store pending.
  /// QueryEngine construction calls this, so a serving path never
  /// answers from unverified bytes.
  void verify_checksums() const;
  /// True while a lazy mmap load still has unverified checksums.
  [[nodiscard]] bool checksums_pending() const noexcept;

  /// Logical equality: same shape, meta, and per-sketch members —
  /// independent of which storage backs each side, so a built store
  /// equals its own loaded (owned, mmap'ed or compressed) snapshot.
  friend bool operator==(const SketchStore& a, const SketchStore& b);

 private:
  SketchStore() = default;

  /// The one freeze behind build() and from_pool(): adopts the flat
  /// image and finalizes it.
  static SketchStore freeze(FlatPool&& flat, std::size_t k_max,
                            SketchStoreMeta meta);

  /// Derives the inverted index and the default greedy sequence from the
  /// sketch members (freeze only — snapshots carry the derived arrays).
  void finalize();

  /// Decodes a loaded compressed payload into the contiguous image (the
  /// raw re-save of a compressed store).
  [[nodiscard]] std::vector<VertexId> assemble_payload() const;

  /// O(sections + offsets + |V| + k) shape checks of a load: counts,
  /// query cap, sketch offsets against the payload, and the derived
  /// arrays.
  void validate_structure() const;
  /// O(pool) scans: sketch members strictly ascending and < |V|, node
  /// index entries < num_sketches (stream loads always; mmap on
  /// deep_validate).
  void validate_payload() const;
  /// Recomputes the inverted index and the default greedy sequence from
  /// the primary data and compares them to the loaded arrays
  /// (deep_validate only).
  void validate_derived() const;

  /// The one decoder: parses the header and section table of `image`
  /// (the whole file — mapped or owned, which the caller keeps alive
  /// inside this store), verifies checksums now or defers them per
  /// `checksums`, and points the read surface into the image.
  void decode_sections(std::span<const std::uint8_t> image,
                       ChecksumMode checksums);

  /// Gap-coded members of a compressed sketch (compressed_ only),
  /// over the snapshot's varint payload spans.
  [[nodiscard]] GapRun comp_slot(SketchId s) const noexcept {
    return GapRun{comp_payload_.data() + comp_offsets_[s],
                  comp_offsets_[s + 1] - comp_offsets_[s],
                  static_cast<std::uint32_t>(sketch_offsets_[s + 1] -
                                             sketch_offsets_[s])};
  }

  VertexId num_vertices_ = 0;
  std::uint64_t num_sketches_ = 0;
  std::uint64_t k_max_ = 0;
  SketchStoreMeta meta_;
  SnapshotLoadStats load_stats_;

  // Owned storage; a vector stays empty when the snapshot mapping backs
  // the corresponding view instead.
  std::vector<std::uint64_t> sketch_offsets_own_;
  std::vector<VertexId> sketch_vertices_own_;
  std::vector<std::uint64_t> node_offsets_own_;
  std::vector<SketchId> node_sketches_own_;
  std::vector<VertexId> default_seeds_own_;
  std::vector<std::uint64_t> default_marginals_own_;

  // The read surface every accessor serves from: spans into the owned
  // vectors OR into mapping_. Both survive moves of the store — heap and
  // mmap allocations never relocate.
  std::span<const std::uint64_t> sketch_offsets_;  // num_sketches_ + 1
  std::span<const VertexId> sketch_vertices_;      // empty iff compressed_
  std::span<const std::uint64_t> node_offsets_;    // num_vertices_ + 1
  std::span<const SketchId> node_sketches_;
  std::span<const VertexId> default_seeds_;
  std::span<const std::uint64_t> default_marginals_;

  /// Compressed backing (used iff compressed_): the varint payload and
  /// its byte offsets inside the snapshot image.
  bool compressed_ = false;
  std::span<const std::uint64_t> comp_offsets_;  // num_sketches_ + 1
  std::span<const std::uint8_t> comp_payload_;

  /// Checksum state of a load: the section list with expected CRCs, verified once (at load, or on first demand after a lazy mmap
  /// load). Held through a shared_ptr so the store stays movable (the
  /// sections point into the snapshot image, which never relocates on
  /// move).
  struct PendingChecksums;
  std::shared_ptr<PendingChecksums> pending_checksums_;

  /// The snapshot image of a load: the read-only mapping, or the owned
  /// copy a stream load reads. At most one is non-empty.
  MappedFile mapping_;
  std::vector<std::uint8_t> image_own_;
};

}  // namespace eimm
