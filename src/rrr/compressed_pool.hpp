// Pool-scale compressed RRR storage — the third backing behind
// RRRPoolView, next to the contiguous RRRPool and the zero-copy
// SegmentedPool.
//
// Every slot is the shared delta-varint gap stream (rrr/gap_codec.hpp)
// of its sorted members, packed into ONE byte blob addressed CSR-style
// by byte offsets — typically 1-2 bytes per member instead of 4, which
// is the HBMax-style memory-bounded scale-up the paper's §IV-C rejects
// for codec overhead (imm_cli --pool-compress prints one run's payload
// bytes and selection time). An optional second stage
// (PoolCodec::kHuffman) canonical-Huffman-codes each slot's gap
// bytes with one pool-wide codebook built from the first generation
// round (Laplace-smoothed over all 256 symbols, so later rounds can
// emit bytes the first round never saw); slot streams are byte-aligned,
// which keeps the shard-parallel encode race-free (no two slots share a
// byte) at a cost of at most 7 pad bits per slot.
//
// Consumption is decode-on-enumerate: slot(i) returns a CompressedSlot
// view whose for_each/contains lazily decode — RRRSetView wraps it with
// repr() == RRRRepr::kCompressed, so the selection kernels, martingale
// probes, and serve/QueryEngine run UNCHANGED over a compressed pool
// and emit bit-identical seed sequences (ascending enumeration and
// exact membership are preserved; ctest -L statcheck enforces it).
//
// append() is the per-round hand-off: after each generation round,
// core/imm encodes the freshly sampled slots (shard-parallel two-pass:
// measure → prefix-sum → encode-in-place) and releases the raw staging
// storage, so peak memory is compressed(all rounds) + raw(one round).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "graph/types.hpp"
#include "rrr/gap_codec.hpp"
#include "rrr/huffman.hpp"

namespace eimm {

class RRRPoolView;

/// Slot encoding: plain gap varints, or gap varints re-coded through the
/// pool-wide canonical Huffman book.
enum class PoolCodec : std::uint8_t { kVarint = 0, kHuffman = 1 };

/// Pool-compression request (ImmOptions::pool_compress). kAuto resolves
/// the EIMM_POOL_COMPRESS environment variable: unset/0/off/false →
/// kNone, 1/on/true/varint → kVarint, 2/huffman → kHuffman.
enum class PoolCompression { kAuto, kNone, kVarint, kHuffman };

/// Applies the environment defaulting (explicit request wins).
[[nodiscard]] PoolCompression resolve_pool_compression(
    PoolCompression requested);

[[nodiscard]] std::string_view to_string(PoolCompression mode) noexcept;

/// One compressed slot: `count` members gap-coded into `bytes` payload
/// bytes at `data`; `huffman` non-null when the bytes are a byte-aligned
/// Huffman bit stream of the gap bytes (decode through the table),
/// null for plain varints. Cheap value type — RRRSetView carries it.
struct CompressedSlot {
  const std::uint8_t* data = nullptr;
  std::uint64_t bytes = 0;
  std::uint32_t count = 0;
  const HuffmanDecodeTable* huffman = nullptr;

  /// Invokes fn(vertex) for every member in ascending order. Throws
  /// CheckError on a corrupt payload (bounds-checked decode).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (huffman == nullptr) {
      GapRun{data, bytes, count}.for_each(std::forward<Fn>(fn));
      return;
    }
    const std::uint64_t bit_limit = bytes * 8;
    std::uint64_t cursor = 0;
    VertexId current = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t value = decode_gap(bit_limit, cursor);
      current = (i == 0) ? static_cast<VertexId>(value - 1)
                         : static_cast<VertexId>(current + value);
      fn(current);
    }
  }

  /// Membership by linear decode, early-exiting past `v` (gaps are
  /// strictly positive). O(count) — the measured §IV-C trade.
  [[nodiscard]] bool contains(VertexId v) const {
    if (huffman == nullptr) return GapRun{data, bytes, count}.contains(v);
    const std::uint64_t bit_limit = bytes * 8;
    std::uint64_t cursor = 0;
    VertexId current = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t value = decode_gap(bit_limit, cursor);
      current = (i == 0) ? static_cast<VertexId>(value - 1)
                         : static_cast<VertexId>(current + value);
      if (current == v) return true;
      if (current > v) return false;
    }
    return false;
  }

  [[nodiscard]] std::vector<VertexId> decode() const {
    std::vector<VertexId> out;
    out.reserve(count);
    for_each([&](VertexId v) { out.push_back(v); });
    return out;
  }

 private:
  /// One varint whose bytes come out of the Huffman bit stream.
  [[nodiscard]] std::uint64_t decode_gap(std::uint64_t bit_limit,
                                         std::uint64_t& cursor) const {
    std::uint64_t value = 0;
    unsigned shift = 0;
    for (;;) {
      const std::uint8_t byte = huffman->decode_one(data, bit_limit, cursor);
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
      if (EIMM_UNLIKELY(shift > 63)) {
        detail::fail_varint("varint wider than 64 bits",
                            static_cast<std::size_t>(cursor >> 3));
      }
    }
  }
};

class CompressedPool {
 public:
  CompressedPool() = default;
  explicit CompressedPool(VertexId num_vertices,
                          PoolCodec codec = PoolCodec::kVarint)
      : num_vertices_(num_vertices), codec_(codec) {}

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return num_vertices_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return counts_.size(); }
  [[nodiscard]] PoolCodec codec() const noexcept { return codec_; }

  /// Encodes slots [begin, end) of `src` and appends them — the
  /// per-round hand-off from the sampling storage. Rounds must arrive
  /// in order (begin == size()). Shard-parallel; must be called outside
  /// any OpenMP parallel region.
  void append(const RRRPoolView& src, std::size_t begin, std::size_t end);

  /// Slot `i` as the decode-on-enumerate view RRRSetView wraps.
  [[nodiscard]] CompressedSlot slot(std::size_t i) const noexcept {
    return CompressedSlot{bytes_.data() + offsets_[i],
                          offsets_[i + 1] - offsets_[i], counts_[i],
                          codec_ == PoolCodec::kHuffman ? decode_table_.get()
                                                        : nullptr};
  }

  /// Full decode of slot `i` (tests, flatten, snapshot transcode).
  /// Observes obs `pool.decode_us` per call.
  [[nodiscard]] std::vector<VertexId> decode_slot(std::size_t i) const;

  /// Compressed payload bytes only (the memory the codec buys back).
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
    return bytes_.size();
  }
  /// Full footprint: payload + offsets + counts + decode tables.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;
  /// Sum of member counts over all slots.
  [[nodiscard]] std::uint64_t total_vertices() const noexcept {
    return total_vertices_;
  }
  /// Wall-clock spent inside append() so far.
  [[nodiscard]] double encode_seconds() const noexcept {
    return encode_seconds_;
  }

  /// Raw CSR arrays — the snapshot adoption seam (serve/SketchStore
  /// serves varint pools from these spans in place).
  [[nodiscard]] std::span<const std::uint64_t> offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] std::span<const std::uint32_t> counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] std::span<const std::uint8_t> payload() const noexcept {
    return bytes_;
  }

 private:
  VertexId num_vertices_ = 0;
  PoolCodec codec_ = PoolCodec::kVarint;
  std::vector<std::uint64_t> offsets_{0};  // byte offsets, size()+1
  std::vector<std::uint32_t> counts_;      // members per slot
  std::vector<std::uint8_t> bytes_;        // packed slot payloads
  std::uint64_t total_vertices_ = 0;
  double encode_seconds_ = 0.0;
  /// Huffman stage: one pool-wide codebook, built from the first
  /// append()'s gap bytes (+1 smoothing over all 256 symbols so unseen
  /// bytes in later rounds still have codes). unique_ptr keeps slot
  /// views' table pointer stable across moves of the pool.
  bool book_built_ = false;
  HuffmanEncodeTable encode_table_;
  std::unique_ptr<HuffmanDecodeTable> decode_table_;
};

}  // namespace eimm
