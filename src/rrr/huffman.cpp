#include "rrr/huffman.hpp"

#include <algorithm>
#include <queue>
#include <string>

namespace eimm {

namespace detail {

void fail_huffman(const char* reason, std::uint64_t bit) {
  throw CheckError(std::string(reason) + " at bit offset " +
                   std::to_string(bit));
}

}  // namespace detail

namespace {

/// Symbols with nonzero length, sorted by (length, value) — the
/// canonical order both tables are built from.
std::vector<int> canonical_order(const std::array<std::uint8_t, 256>& lengths) {
  std::vector<int> symbols;
  for (int s = 0; s < 256; ++s) {
    if (lengths[static_cast<std::size_t>(s)] > 0) symbols.push_back(s);
  }
  std::sort(symbols.begin(), symbols.end(), [&](int a, int b) {
    const auto la = lengths[static_cast<std::size_t>(a)];
    const auto lb = lengths[static_cast<std::size_t>(b)];
    if (la != lb) return la < lb;
    return a < b;
  });
  return symbols;
}

class BitWriter {
 public:
  void write(std::uint32_t code, std::uint8_t length) {
    for (int b = length - 1; b >= 0; --b) {
      if (bit_ == 0) bytes_.push_back(0);
      if ((code >> b) & 1u) {
        bytes_.back() |= static_cast<std::uint8_t>(1u << (7 - bit_));
      }
      bit_ = (bit_ + 1) % 8;
    }
    total_bits_ += length;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }
  [[nodiscard]] std::uint64_t bits() const noexcept { return total_bits_; }

 private:
  std::vector<std::uint8_t> bytes_;
  int bit_ = 0;
  std::uint64_t total_bits_ = 0;
};

}  // namespace

std::array<std::uint8_t, 256> HuffmanCodec::lengths_from_frequencies(
    const std::array<std::uint64_t, 256>& freq) {
  // Classic two-queue/heap construction; lengths are capped naturally
  // (256 symbols -> max depth 255 fits uint8).
  struct Node {
    std::uint64_t weight;
    int index;          // tie-break for determinism
    int left = -1;
    int right = -1;
    int symbol = -1;    // >= 0 for leaves
  };
  std::vector<Node> nodes;
  auto cmp = [&nodes](int a, int b) {
    if (nodes[static_cast<std::size_t>(a)].weight !=
        nodes[static_cast<std::size_t>(b)].weight) {
      return nodes[static_cast<std::size_t>(a)].weight >
             nodes[static_cast<std::size_t>(b)].weight;
    }
    return nodes[static_cast<std::size_t>(a)].index >
           nodes[static_cast<std::size_t>(b)].index;
  };
  std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);

  for (int s = 0; s < 256; ++s) {
    if (freq[static_cast<std::size_t>(s)] == 0) continue;
    nodes.push_back({freq[static_cast<std::size_t>(s)],
                     static_cast<int>(nodes.size()), -1, -1, s});
    heap.push(static_cast<int>(nodes.size()) - 1);
  }

  std::array<std::uint8_t, 256> lengths{};
  if (nodes.empty()) return lengths;
  if (nodes.size() == 1) {
    // Single-symbol alphabet: give it a 1-bit code.
    lengths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
    return lengths;
  }

  while (heap.size() > 1) {
    const int a = heap.top();
    heap.pop();
    const int b = heap.top();
    heap.pop();
    nodes.push_back({nodes[static_cast<std::size_t>(a)].weight +
                         nodes[static_cast<std::size_t>(b)].weight,
                     static_cast<int>(nodes.size()), a, b, -1});
    heap.push(static_cast<int>(nodes.size()) - 1);
  }

  // Depth-first walk assigning depths as code lengths (iterative).
  std::vector<std::pair<int, std::uint8_t>> stack{{heap.top(), 0}};
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& node = nodes[static_cast<std::size_t>(idx)];
    if (node.symbol >= 0) {
      lengths[static_cast<std::size_t>(node.symbol)] =
          depth == 0 ? 1 : depth;  // degenerate guard
      continue;
    }
    stack.push_back({node.left, static_cast<std::uint8_t>(depth + 1)});
    stack.push_back({node.right, static_cast<std::uint8_t>(depth + 1)});
  }
  return lengths;
}

HuffmanEncodeTable HuffmanEncodeTable::build(
    const std::array<std::uint8_t, 256>& lengths) {
  // Canonical code assignment: symbols sorted by (length, value) get
  // consecutive codes; decode only needs the lengths array.
  HuffmanEncodeTable table;
  table.lengths = lengths;
  std::uint32_t code = 0;
  std::uint8_t previous_length = 0;
  for (const int s : canonical_order(lengths)) {
    const std::uint8_t length = lengths[static_cast<std::size_t>(s)];
    code <<= (length - previous_length);
    table.codes[static_cast<std::size_t>(s)] = code;
    ++code;
    previous_length = length;
  }
  return table;
}

HuffmanDecodeTable HuffmanDecodeTable::build(
    const std::array<std::uint8_t, 256>& lengths) {
  HuffmanDecodeTable table;
  table.lengths = lengths;
  for (const int s : canonical_order(lengths)) {
    table.ordered_symbols.push_back(static_cast<std::uint8_t>(s));
  }
  std::uint32_t code = 0;
  std::size_t index = 0;
  for (std::uint8_t length = 1; length <= 32; ++length) {
    code <<= 1;
    table.first_code[length] = code;
    table.first_index[length] = static_cast<std::uint32_t>(index);
    while (index < table.ordered_symbols.size() &&
           table.lengths[table.ordered_symbols[index]] == length) {
      if (length <= HuffmanDecodeTable::kFastBits) {
        // Prefix property: no other code shares this window's leading
        // bits, so every suffix pattern resolves to this symbol.
        const std::uint8_t symbol = table.ordered_symbols[index];
        const int free_bits = HuffmanDecodeTable::kFastBits - length;
        const std::uint32_t base = code << free_bits;
        for (std::uint32_t suffix = 0; suffix < (1u << free_bits);
             ++suffix) {
          table.fast[base + suffix] =
              static_cast<std::uint16_t>((symbol << 8) | length);
        }
      }
      ++index;
      ++code;
    }
  }
  return table;
}

HuffmanCodec::Encoded HuffmanCodec::encode(
    const std::vector<std::uint8_t>& data) {
  Encoded out;
  if (data.empty()) return out;

  std::array<std::uint64_t, 256> freq{};
  for (const std::uint8_t byte : data) ++freq[byte];
  out.code_lengths = lengths_from_frequencies(freq);
  const HuffmanEncodeTable table = HuffmanEncodeTable::build(out.code_lengths);

  BitWriter writer;
  for (const std::uint8_t byte : data) {
    writer.write(table.codes[byte], table.lengths[byte]);
  }
  out.payload_bits = writer.bits();
  out.bits = writer.take();
  out.bits.shrink_to_fit();
  return out;
}

std::vector<std::uint8_t> HuffmanCodec::decode(const Encoded& encoded) {
  std::vector<std::uint8_t> out;
  if (encoded.payload_bits == 0) return out;

  EIMM_CHECK(encoded.payload_bits <= encoded.bits.size() * 8,
             "truncated Huffman payload");
  const HuffmanDecodeTable table =
      HuffmanDecodeTable::build(encoded.code_lengths);
  std::uint64_t cursor = 0;
  while (cursor < encoded.payload_bits) {
    out.push_back(table.decode_one(encoded.bits.data(), encoded.payload_bits,
                                   cursor));
  }
  return out;
}

}  // namespace eimm
