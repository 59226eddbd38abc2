#include "rrr/huffman.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "rrr/gap_codec.hpp"
#include "support/macros.hpp"
#include "support/rng.hpp"

namespace eimm {
namespace {

TEST(HuffmanCodec, EmptyInput) {
  const auto encoded = HuffmanCodec::encode({});
  EXPECT_EQ(encoded.payload_bits, 0u);
  EXPECT_TRUE(HuffmanCodec::decode(encoded).empty());
}

TEST(HuffmanCodec, SingleSymbolAlphabet) {
  const std::vector<std::uint8_t> data(100, 0x42);
  const auto encoded = HuffmanCodec::encode(data);
  // 1-bit codes: 100 bits ≈ 13 bytes, far below the 100-byte input.
  EXPECT_EQ(encoded.payload_bits, 100u);
  EXPECT_EQ(HuffmanCodec::decode(encoded), data);
}

TEST(HuffmanCodec, TwoSymbols) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 64; ++i) data.push_back(i % 2 ? 0xAA : 0x55);
  const auto encoded = HuffmanCodec::encode(data);
  EXPECT_EQ(HuffmanCodec::decode(encoded), data);
  EXPECT_EQ(encoded.payload_bits, 64u);  // 1 bit per symbol
}

TEST(HuffmanCodec, RoundTripRandomBytes) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint8_t> data(1 + rng.next_bounded(5000));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_bounded(256));
    const auto encoded = HuffmanCodec::encode(data);
    EXPECT_EQ(HuffmanCodec::decode(encoded), data) << "trial " << trial;
  }
}

TEST(HuffmanCodec, RoundTripSkewedBytes) {
  // Geometric-ish distribution, like varint gap streams.
  Xoshiro256 rng(7);
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 10000; ++i) {
    std::uint8_t value = 1;
    while (rng.next_bool(0.5) && value < 64) value *= 2;
    data.push_back(value);
  }
  const auto encoded = HuffmanCodec::encode(data);
  EXPECT_EQ(HuffmanCodec::decode(encoded), data);
  // Skewed input must compress well below 8 bits/symbol.
  EXPECT_LT(encoded.payload_bits, 8u * data.size() * 6 / 10);
}

TEST(HuffmanCodec, DeterministicEncoding) {
  std::vector<std::uint8_t> data{5, 5, 7, 7, 7, 9};
  const auto a = HuffmanCodec::encode(data);
  const auto b = HuffmanCodec::encode(data);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.code_lengths, b.code_lengths);
}

TEST(HuffmanCodec, CorruptStreamDetected) {
  const std::vector<std::uint8_t> data(50, 1);
  auto encoded = HuffmanCodec::encode(data);
  encoded.bits.clear();  // truncate the payload entirely
  EXPECT_THROW(HuffmanCodec::decode(encoded), CheckError);
}

std::vector<std::uint8_t> gap_stream(std::vector<VertexId> members) {
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  std::vector<std::uint8_t> bytes;
  append_gap_stream(bytes, members);
  return bytes;
}

TEST(HuffmanCodec, GapStreamRoundTripsBitIdentically) {
  // CompressedPool's Huffman stage codes the canonical gap stream: the
  // decoded bytes must be that stream bit for bit, and decode through
  // GapRun back to the members — empty sets, vertex 0 and the largest
  // id included.
  std::vector<std::vector<VertexId>> cases = {
      {}, {9, 3, 9, 1, 200, 64}, {0, kInvalidVertex - 1}};
  Xoshiro256 rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<VertexId> members;
    const std::size_t count = rng.next_bounded(600);
    for (std::size_t i = 0; i < count; ++i) {
      members.push_back(static_cast<VertexId>(rng.next_bounded(1u << 22)));
    }
    cases.push_back(std::move(members));
  }
  for (std::vector<VertexId>& members : cases) {
    const std::vector<std::uint8_t> bytes = gap_stream(members);
    const HuffmanCodec::Encoded encoded = HuffmanCodec::encode(bytes);
    const std::vector<std::uint8_t> decoded = HuffmanCodec::decode(encoded);
    EXPECT_EQ(decoded, bytes);

    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
    const GapRun run{decoded.data(), decoded.size(),
                     static_cast<std::uint32_t>(members.size())};
    EXPECT_EQ(run.decode(), members);

    const HuffmanCodec::Encoded again = HuffmanCodec::encode(bytes);
    EXPECT_EQ(again.code_lengths, encoded.code_lengths);
    EXPECT_EQ(again.payload_bits, encoded.payload_bits);
    EXPECT_EQ(again.bits, encoded.bits);
  }
}

// A member set Huffman-coded over its gap stream, answered by decoding
// the stream back and walking it as a GapRun.
struct HuffmanCodedSet {
  HuffmanCodec::Encoded encoded;
  std::uint32_t count = 0;

  [[nodiscard]] std::vector<VertexId> decode() const {
    const std::vector<std::uint8_t> bytes = HuffmanCodec::decode(encoded);
    return GapRun{bytes.data(), bytes.size(), count}.decode();
  }
  [[nodiscard]] bool contains(VertexId v) const {
    const std::vector<std::uint8_t> bytes = HuffmanCodec::decode(encoded);
    return GapRun{bytes.data(), bytes.size(), count}.contains(v);
  }
};

HuffmanCodedSet huffman_set(std::vector<VertexId> members) {
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  return HuffmanCodedSet{HuffmanCodec::encode(gap_stream(members)),
                         static_cast<std::uint32_t>(members.size())};
}

TEST(HuffmanSet, EmptySet) {
  const HuffmanCodedSet set = huffman_set({});
  EXPECT_EQ(set.count, 0u);
  EXPECT_EQ(set.encoded.payload_bits, 0u);
  EXPECT_TRUE(set.decode().empty());
  EXPECT_FALSE(set.contains(0));
}

TEST(HuffmanSet, RoundTrip) {
  const HuffmanCodedSet set = huffman_set({9, 3, 9, 1, 200, 64});
  EXPECT_EQ(set.count, 5u);
  EXPECT_EQ(set.decode(), (std::vector<VertexId>{1, 3, 9, 64, 200}));
  EXPECT_TRUE(set.contains(64));
  EXPECT_FALSE(set.contains(65));
}

TEST(HuffmanSet, RoundTripRandomSets) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<VertexId> members;
    const std::size_t count = 1 + rng.next_bounded(800);
    for (std::size_t i = 0; i < count; ++i) {
      members.push_back(static_cast<VertexId>(rng.next_bounded(1u << 22)));
    }
    const HuffmanCodedSet set = huffman_set(members);
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
    EXPECT_EQ(set.decode(), members) << trial;
  }
}

TEST(HuffmanSet, VertexZeroAndLargeIds) {
  const HuffmanCodedSet set = huffman_set({0, kInvalidVertex - 1});
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(kInvalidVertex - 1));
  EXPECT_EQ(set.count, 2u);
}

TEST(HuffmanSet, EncodeBitIdenticalToCompressingVarintStream) {
  // CompressedPool codes its slots through the staged surface:
  // lengths_from_frequencies, then HuffmanEncodeTable codes packed MSB
  // first. Over one gap stream that must be bit-identical to the
  // one-shot HuffmanCodec::encode of the same stream.
  Xoshiro256 rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<VertexId> members;
    const std::size_t count = 1 + rng.next_bounded(600);
    for (std::size_t i = 0; i < count; ++i) {
      members.push_back(static_cast<VertexId>(rng.next_bounded(1u << 22)));
    }
    const std::vector<std::uint8_t> bytes = gap_stream(members);
    const HuffmanCodec::Encoded reference = HuffmanCodec::encode(bytes);

    std::array<std::uint64_t, 256> freq{};
    for (const std::uint8_t byte : bytes) ++freq[byte];
    const std::array<std::uint8_t, 256> lengths =
        HuffmanCodec::lengths_from_frequencies(freq);
    const HuffmanEncodeTable table = HuffmanEncodeTable::build(lengths);
    std::vector<std::uint8_t> bits;
    std::uint64_t payload_bits = 0;
    for (const std::uint8_t byte : bytes) {
      for (int b = table.lengths[byte] - 1; b >= 0; --b) {
        if (payload_bits % 8 == 0) bits.push_back(0);
        if ((table.codes[byte] >> b) & 1u) {
          bits.back() |=
              static_cast<std::uint8_t>(0x80u >> (payload_bits % 8));
        }
        ++payload_bits;
      }
    }

    EXPECT_EQ(lengths, reference.code_lengths) << trial;
    EXPECT_EQ(payload_bits, reference.payload_bits) << trial;
    EXPECT_EQ(bits, reference.bits) << trial;
  }
}

TEST(HuffmanCodec, CompressesDenseGapStreamBeyondVarint) {
  // Consecutive ids: gaps are all 1 -> a single-symbol byte stream that
  // Huffman packs ~8x below the varint bytes (HBMax's win case).
  std::vector<VertexId> run;
  for (VertexId v = 5000; v < 15000; ++v) run.push_back(v);
  const std::vector<std::uint8_t> varint = gap_stream(run);
  const HuffmanCodec::Encoded huffman = HuffmanCodec::encode(varint);
  EXPECT_LT(huffman.memory_bytes(), varint.size() / 4);
  EXPECT_EQ(HuffmanCodec::decode(huffman), varint);
}

TEST(HuffmanCodec, OverstatedPayloadBitsThrows) {
  auto encoded = HuffmanCodec::encode(std::vector<std::uint8_t>(64, 3));
  encoded.payload_bits = encoded.bits.size() * 8 + 1;
  EXPECT_THROW(HuffmanCodec::decode(encoded), CheckError);
}

TEST(HuffmanCodec, TruncatedBitsThrow) {
  Xoshiro256 rng(23);
  std::vector<std::uint8_t> data(2000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_bounded(16));
  auto encoded = HuffmanCodec::encode(data);
  ASSERT_GT(encoded.bits.size(), 4u);
  encoded.bits.resize(encoded.bits.size() / 2);
  EXPECT_THROW(HuffmanCodec::decode(encoded), CheckError);
}

TEST(HuffmanCodec, StreamMatchingNoCodeThrows) {
  // A codebook whose only 2-bit code is 00 cannot decode an all-ones
  // stream: decode_one must give up at 32 bits with CheckError instead
  // of walking past the table.
  HuffmanCodec::Encoded encoded;
  encoded.code_lengths[65] = 2;
  encoded.bits.assign(8, 0xFF);
  encoded.payload_bits = 64;
  EXPECT_THROW(HuffmanCodec::decode(encoded), CheckError);
}

}  // namespace
}  // namespace eimm
