// Bit-manipulation helpers for the bitmap RRR-set representation and the
// cache simulator's address arithmetic.
#pragma once

#include <bit>
#include <cstdint>

namespace eimm {

/// Number of 64-bit words needed to hold `bits` bits.
constexpr std::size_t words_for_bits(std::size_t bits) noexcept {
  return (bits + 63) / 64;
}

/// Population count of a 64-bit word.
constexpr int popcount64(std::uint64_t x) noexcept { return std::popcount(x); }

/// Index of lowest set bit (undefined for x == 0).
constexpr int ctz64(std::uint64_t x) noexcept { return std::countr_zero(x); }

/// True if x is a power of two (and nonzero).
constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// Smallest power of two >= x (x must be >= 1).
constexpr std::uint64_t next_pow2(std::uint64_t x) noexcept {
  return std::bit_ceil(x);
}

/// log2 of a power of two.
constexpr unsigned log2_pow2(std::uint64_t x) noexcept {
  return static_cast<unsigned>(std::countr_zero(x));
}

/// One stage of transpose64: swaps bit J of the row index with bit J of
/// the column index, i.e. bit c + J of row r with bit c of row r + J for
/// every r and c with bit J clear (`mask` holds those c). J is a
/// constant so that each stage's inner loop runs over contiguous rows.
template <unsigned J>
constexpr void transpose64_stage(std::uint64_t* m,
                                 std::uint64_t mask) noexcept {
  for (unsigned k = 0; k < 64; k += 2 * J) {
    for (unsigned r = k; r < k + J; ++r) {
      const std::uint64_t t = ((m[r] >> J) ^ m[r + J]) & mask;
      m[r] ^= t << J;
      m[r + J] ^= t;
    }
  }
}

/// Transposes the 64×64 bit matrix `m` (row r is m[r], column c its bit
/// c, bit 0 least significant) in place: afterwards bit c of m[r] holds
/// what bit r of m[c] held. Six stages of 32 block swaps each (Hacker's
/// Delight §7-3, `transpose64`).
constexpr void transpose64(std::uint64_t* m) noexcept {
  transpose64_stage<32>(m, 0x00000000FFFFFFFFull);
  transpose64_stage<16>(m, 0x0000FFFF0000FFFFull);
  transpose64_stage<8>(m, 0x00FF00FF00FF00FFull);
  transpose64_stage<4>(m, 0x0F0F0F0F0F0F0F0Full);
  transpose64_stage<2>(m, 0x3333333333333333ull);
  transpose64_stage<1>(m, 0x5555555555555555ull);
}

/// Invokes `fn(bit_index)` for every set bit in `word`, where bit indices
/// are offset by `base`. Used to iterate bitmap RRR sets word-at-a-time.
template <typename Fn>
inline void for_each_set_bit(std::uint64_t word, std::size_t base, Fn&& fn) {
  while (word != 0) {
    const int b = ctz64(word);
    fn(base + static_cast<std::size_t>(b));
    word &= word - 1;  // clear lowest set bit
  }
}

}  // namespace eimm
