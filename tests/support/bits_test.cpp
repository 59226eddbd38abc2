#include "support/bits.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace eimm {
namespace {

TEST(Bits, WordsForBits) {
  EXPECT_EQ(words_for_bits(0), 0u);
  EXPECT_EQ(words_for_bits(1), 1u);
  EXPECT_EQ(words_for_bits(64), 1u);
  EXPECT_EQ(words_for_bits(65), 2u);
  EXPECT_EQ(words_for_bits(128), 2u);
  EXPECT_EQ(words_for_bits(129), 3u);
}

TEST(Bits, Popcount) {
  EXPECT_EQ(popcount64(0), 0);
  EXPECT_EQ(popcount64(1), 1);
  EXPECT_EQ(popcount64(0xFF), 8);
  EXPECT_EQ(popcount64(~std::uint64_t{0}), 64);
}

TEST(Bits, Ctz) {
  EXPECT_EQ(ctz64(1), 0);
  EXPECT_EQ(ctz64(2), 1);
  EXPECT_EQ(ctz64(std::uint64_t{1} << 63), 63);
  EXPECT_EQ(ctz64(0b1010000), 4);
}

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(std::uint64_t{1} << 40));
  EXPECT_FALSE(is_pow2((std::uint64_t{1} << 40) + 1));
}

TEST(Bits, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(Bits, Log2Pow2) {
  EXPECT_EQ(log2_pow2(1), 0u);
  EXPECT_EQ(log2_pow2(2), 1u);
  EXPECT_EQ(log2_pow2(1024), 10u);
}

TEST(Bits, ForEachSetBitCollectsAscending) {
  std::vector<std::size_t> seen;
  for_each_set_bit(0b1011, 0, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Bits, ForEachSetBitAppliesBase) {
  std::vector<std::size_t> seen;
  for_each_set_bit(0b101, 64, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{64, 66}));
}

TEST(Bits, ForEachSetBitEmptyWord) {
  int calls = 0;
  for_each_set_bit(0, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Bits, ForEachSetBitFullWord) {
  int calls = 0;
  for_each_set_bit(~std::uint64_t{0}, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 64);
}

using BitMatrix = std::array<std::uint64_t, 64>;

/// The definition, one bit at a time: bit c of out[r] = bit r of in[c].
BitMatrix naive_transpose(const BitMatrix& in) {
  BitMatrix out{};
  for (unsigned r = 0; r < 64; ++r) {
    for (unsigned c = 0; c < 64; ++c) {
      out[r] |= ((in[c] >> r) & 1) << c;
    }
  }
  return out;
}

void expect_transposes(const BitMatrix& in, const char* what) {
  BitMatrix m = in;
  transpose64(m.data());
  EXPECT_EQ(m, naive_transpose(in)) << what;
  transpose64(m.data());
  EXPECT_EQ(m, in) << what << " (transposed twice)";
}

TEST(Bits, Transpose64MatchesNaiveOnRandomMatrices) {
  Xoshiro256 rng(0x5EED);
  for (int trial = 0; trial < 50; ++trial) {
    BitMatrix m;
    for (auto& row : m) row = rng();
    // Sparser rows too: the fused emit pass transposes groups of any
    // density above its threshold.
    if (trial % 2 == 1) {
      for (auto& row : m) row &= rng() & rng();
    }
    expect_transposes(m, "random");
  }
}

TEST(Bits, Transpose64FixedPoints) {
  BitMatrix zeros{};
  expect_transposes(zeros, "all zeros");
  BitMatrix ones;
  ones.fill(~std::uint64_t{0});
  expect_transposes(ones, "all ones");
  BitMatrix identity{};
  for (unsigned r = 0; r < 64; ++r) identity[r] = std::uint64_t{1} << r;
  expect_transposes(identity, "identity");
}

TEST(Bits, Transpose64SingleRowBecomesSingleColumn) {
  for (const unsigned r : {0u, 1u, 31u, 32u, 63u}) {
    BitMatrix row{};
    row[r] = 0x8000'0000'0000'0001ull | (std::uint64_t{1} << 40);
    expect_transposes(row, "single row");
    BitMatrix m = row;
    transpose64(m.data());
    for (unsigned c = 0; c < 64; ++c) {
      const bool set = c == 0 || c == 40 || c == 63;
      EXPECT_EQ(m[c], set ? std::uint64_t{1} << r : 0u)
          << "row " << r << " column " << c;
    }
  }
}

TEST(Bits, Transpose64SingleColumnBecomesSingleRow) {
  for (const unsigned c : {0u, 7u, 32u, 63u}) {
    BitMatrix column{};
    for (unsigned r = 0; r < 64; r += 3) column[r] = std::uint64_t{1} << c;
    expect_transposes(column, "single column");
    BitMatrix m = column;
    transpose64(m.data());
    for (unsigned r = 0; r < 64; ++r) {
      EXPECT_EQ(m[r], r == c ? 0x9249'2492'4924'9249ull : 0u)
          << "column " << c << " row " << r;
    }
  }
}

TEST(Bits, Transpose64MovesOneSetBit) {
  for (unsigned r = 0; r < 64; r += 5) {
    for (unsigned c = 0; c < 64; c += 7) {
      BitMatrix m{};
      m[r] = std::uint64_t{1} << c;
      expect_transposes(m, "one bit");
      transpose64(m.data());
      BitMatrix want{};
      want[c] = std::uint64_t{1} << r;
      EXPECT_EQ(m, want) << "bit (" << r << ", " << c << ")";
    }
  }
}

}  // namespace
}  // namespace eimm
