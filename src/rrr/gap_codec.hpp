// The delta-varint gap codec the compressed RRR pool (rrr/compressed_pool)
// stores every slot in, and bench/micro_rrr measures per set.
//
// Stream layout, fixed across all producers so their encodings are
// bit-identical: a sorted, deduplicated member list {v0 < v1 < ...}
// becomes the LEB128 varints
//
//   (v0 + 1), (v1 - v0), (v2 - v1), ...
//
// The +1 on the head keeps every emitted varint strictly positive, so a
// zero anywhere in a decoded stream is proof of corruption. Gap bytes of
// social-graph sketches are heavily skewed toward small values — the
// property the optional Huffman second stage (rrr/huffman.hpp) exploits.
//
// Decoding is hardened for on-disk input: read_varint() bounds-checks
// every byte against the stream and caps the shift at 63 bits, throwing
// CheckError (with the byte offset) instead of reading out of bounds or
// shifting past the value width on a corrupt or truncated payload.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "support/macros.hpp"

namespace eimm {

namespace detail {
/// Throws CheckError describing a malformed varint at `pos` (out-of-line
/// so the hot decode loop stays small).
[[noreturn]] void fail_varint(const char* reason, std::size_t pos);
}  // namespace detail

/// Appends `value` as a LEB128 varint (7 payload bits per byte, high bit
/// set on every byte but the last).
inline void write_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

/// Encoded size of `value` as a LEB128 varint (1-10 bytes).
[[nodiscard]] inline std::size_t varint_bytes(std::uint64_t value) noexcept {
  std::size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

/// Reads one varint at `pos`, advancing it. Throws CheckError (carrying
/// the byte offset) when the stream ends mid-varint or a continuation
/// chain would shift past 64 bits — corrupt payloads fail loudly instead
/// of reading out of bounds.
inline std::uint64_t read_varint(std::span<const std::uint8_t> bytes,
                                 std::size_t& pos) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  for (;;) {
    if (EIMM_UNLIKELY(pos >= bytes.size())) {
      detail::fail_varint("truncated varint", pos);
    }
    const std::uint8_t byte = bytes[pos++];
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
    if (EIMM_UNLIKELY(shift > 63)) {
      detail::fail_varint("varint wider than 64 bits", pos);
    }
  }
}

/// Appends the canonical gap stream of `sorted` (strictly ascending,
/// deduplicated) to `out`; returns the bytes appended. The ONE encoder
/// of the format, so every producer's streams are bit-identical.
std::size_t append_gap_stream(std::vector<std::uint8_t>& out,
                              std::span<const VertexId> sorted);

/// Encoded size of the gap stream append_gap_stream would emit.
[[nodiscard]] std::uint64_t gap_stream_bytes(std::span<const VertexId> sorted)
    noexcept;

/// Non-owning view of one encoded gap run: `count` members in `bytes`
/// payload bytes at `data`. The enumerate/membership surface compressed
/// pool slots expose to the selection kernels.
struct GapRun {
  const std::uint8_t* data = nullptr;
  std::uint64_t bytes = 0;
  std::uint32_t count = 0;

  /// Invokes fn(vertex) for every member in ascending order. Throws
  /// CheckError on a corrupt stream.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::span<const std::uint8_t> span{data,
                                             static_cast<std::size_t>(bytes)};
    std::size_t pos = 0;
    VertexId current = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t value = read_varint(span, pos);
      current = (i == 0) ? static_cast<VertexId>(value - 1)
                         : static_cast<VertexId>(current + value);
      fn(current);
    }
  }

  /// Membership by linear decode — O(count), early-exiting once the
  /// running value passes `v` (gaps are strictly positive). This is
  /// exactly the codec overhead §IV-C cites.
  [[nodiscard]] bool contains(VertexId v) const {
    const std::span<const std::uint8_t> span{data,
                                             static_cast<std::size_t>(bytes)};
    std::size_t pos = 0;
    VertexId current = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t value = read_varint(span, pos);
      current = (i == 0) ? static_cast<VertexId>(value - 1)
                         : static_cast<VertexId>(current + value);
      if (current == v) return true;
      if (current > v) return false;
    }
    return false;
  }

  /// Full decode back to the sorted member list.
  [[nodiscard]] std::vector<VertexId> decode() const;
};

}  // namespace eimm
