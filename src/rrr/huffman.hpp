// Canonical Huffman codec over byte streams — the compression HBMax
// (Chen et al., PACT'22; cited as [2] in the paper) applies to RRR-set
// storage. EfficientIMM's §IV-C argues the codec overhead is why it
// prefers the adaptive vector/bitmap scheme; this module implements the
// contrasted technique so the trade-off is concrete. The optional second
// stage of the pool-scale CompressedPool (rrr/compressed_pool.hpp) runs
// it over the varint gap stream of every slot (rrr/gap_codec.hpp).
//
// Gap bytes of social-graph sketches are heavily skewed toward small
// values, which is exactly where Huffman shines — typically another
// 1.3-2x over the plain varint encoding — at the price of bit-serial
// decode on every membership test or iteration.
//
// The codec is factored into reusable stages so CompressedPool can share
// ONE codebook across millions of slots: lengths_from_frequencies()
// turns a byte histogram into deterministic canonical code lengths,
// HuffmanEncodeTable / HuffmanDecodeTable materialize the per-symbol
// codes and the canonical decode tables from those lengths, and
// decode_one() is the bounds-checked bit-serial inner step (CheckError
// on truncated or invalid streams — never an out-of-bounds read).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "support/macros.hpp"

namespace eimm {

namespace detail {
[[noreturn]] void fail_huffman(const char* reason, std::uint64_t bit);
}  // namespace detail

/// Canonical per-symbol codes built from code lengths (encode side).
struct HuffmanEncodeTable {
  std::array<std::uint32_t, 256> codes{};
  std::array<std::uint8_t, 256> lengths{};

  static HuffmanEncodeTable build(
      const std::array<std::uint8_t, 256>& lengths);
};

/// Canonical decode tables: first code and symbol offset per length,
/// plus the (length, value)-ordered symbol list. Built once per stream
/// (or once per pool), then decode_one() is table-lookup only.
struct HuffmanDecodeTable {
  /// Width of the one-lookup fast path: every code of length <=
  /// kFastBits decodes via one table read. Gap-byte alphabets are
  /// heavily skewed, so in practice this covers ~all symbols.
  static constexpr int kFastBits = 8;

  std::array<std::uint32_t, 33> first_code{};
  std::array<std::uint32_t, 33> first_index{};
  std::array<std::uint8_t, 256> lengths{};
  /// (symbol << 8) | code_length per kFastBits-wide window; 0 = the
  /// window starts a code longer than kFastBits (take the serial path).
  std::array<std::uint16_t, 1u << kFastBits> fast{};
  std::vector<std::uint8_t> ordered_symbols;

  static HuffmanDecodeTable build(
      const std::array<std::uint8_t, 256>& lengths);

  /// Decodes one symbol from the MSB-first bit stream at `bits`,
  /// advancing `cursor` (a bit offset). `bit_limit` bounds the stream;
  /// throws CheckError when the code runs past it or matches no symbol.
  [[nodiscard]] std::uint8_t decode_one(const std::uint8_t* bits,
                                        std::uint64_t bit_limit,
                                        std::uint64_t& cursor) const {
    if (cursor + kFastBits <= bit_limit) {
      // One aligned window read: bytes up to (cursor + 7) >> 3 exist
      // whenever a full window fits under bit_limit.
      const std::uint64_t byte_index = cursor >> 3;
      const unsigned shift = static_cast<unsigned>(cursor & 7);
      std::uint32_t window =
          static_cast<std::uint32_t>(bits[byte_index] << shift);
      if (shift != 0) {
        window |= bits[byte_index + 1] >> (8u - shift);
      }
      const std::uint16_t entry = fast[window & 0xFFu];
      if (entry != 0) {
        cursor += entry & 0xFFu;
        return static_cast<std::uint8_t>(entry >> 8);
      }
    }
    std::uint32_t code = 0;
    std::uint8_t length = 0;
    while (cursor < bit_limit && length < 32) {
      const std::uint64_t byte_index = cursor >> 3;
      const int bit_in_byte = static_cast<int>(7 - (cursor & 7));
      code = (code << 1) | ((bits[byte_index] >> bit_in_byte) & 1u);
      ++cursor;
      ++length;
      const std::uint32_t offset = code - first_code[length];
      const std::uint32_t symbol_index = first_index[length] + offset;
      if (code >= first_code[length] &&
          symbol_index < ordered_symbols.size() &&
          lengths[ordered_symbols[symbol_index]] == length) {
        return ordered_symbols[symbol_index];
      }
    }
    if (length >= 32) {
      detail::fail_huffman("invalid Huffman stream (no code matched)",
                           cursor);
    }
    detail::fail_huffman("truncated Huffman stream", cursor);
  }
};

/// General-purpose canonical Huffman coding of byte payloads.
class HuffmanCodec {
 public:
  struct Encoded {
    /// Canonical code lengths per symbol (0 = symbol absent), enough to
    /// reconstruct the codebook on decode.
    std::array<std::uint8_t, 256> code_lengths{};
    std::uint64_t payload_bits = 0;
    std::vector<std::uint8_t> bits;

    /// size()-based footprint: encode() shrinks to fit, and a decode-side
    /// or moved-into buffer with slack capacity is never overstated.
    [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
      return bits.size() + sizeof(code_lengths) + sizeof(payload_bits);
    }
  };

  /// Deterministic Huffman code lengths from a byte-frequency table
  /// (0 = absent symbol; ties broken by symbol registration order).
  static std::array<std::uint8_t, 256> lengths_from_frequencies(
      const std::array<std::uint64_t, 256>& freq);

  /// Encodes `data`; deterministic (canonical codes, ties by symbol).
  static Encoded encode(const std::vector<std::uint8_t>& data);

  /// Decodes a payload produced by encode(). Throws CheckError on a
  /// corrupt stream (invalid prefix or truncated bits).
  static std::vector<std::uint8_t> decode(const Encoded& encoded);
};

}  // namespace eimm
