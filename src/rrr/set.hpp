// Adaptive RRR-set representation (§IV-C "Adaptive RRRset Representation").
//
// A reverse-reachable set is stored either as a sorted vertex vector
// (sparse: O(log s) membership, s·4 bytes) or as a bitmap over |V|
// (dense: O(1) membership, |V|/8 bytes). The crossover is where the
// bitmap becomes the smaller encoding: s ≥ |V|/32 with 32-bit ids —
// exposed as a tunable fraction because the paper picks the threshold
// empirically. SCC-dominated graphs (Table I: 50–88 % max coverage)
// produce many dense sets, where bitmaps win on both memory and search;
// LT runs produce millions of tiny sets, where vectors win.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "rrr/bitset.hpp"

namespace eimm {

/// How a set's members are physically stored: the paper's adaptive pair.
enum class RRRRepr { kVector, kBitmap };

/// Fraction of |V| above which a set switches to bitmap representation.
/// 1/32 equalizes the memory of the two encodings (4-byte id vs 1 bit).
inline constexpr double kDefaultBitmapThreshold = 1.0 / 32.0;

/// bitmap_min_members() value that keeps every set a sorted vector.
inline constexpr std::size_t kNoBitmaps =
    std::numeric_limits<std::size_t>::max();

/// Smallest member count the adaptive policy stores as a bitmap over
/// `num_vertices` vertices with crossover `threshold_fraction` — the one
/// rule RRRSet::make_adaptive and the segmented stagers share.
[[nodiscard]] std::size_t bitmap_min_members(
    VertexId num_vertices, double threshold_fraction) noexcept;

class RRRSet {
 public:
  RRRSet() = default;

  /// Builds with the adaptive policy: bitmap iff vertices.size() >=
  /// bitmap_min_members(num_vertices, threshold_fraction).
  /// `vertices` need not be sorted; the vector representation sorts.
  static RRRSet make_adaptive(std::vector<VertexId> vertices,
                              VertexId num_vertices,
                              double threshold_fraction = kDefaultBitmapThreshold);

  /// Forces the sorted-vector representation (the Ripples baseline).
  static RRRSet make_vector(std::vector<VertexId> vertices);

  /// Forces the bitmap representation.
  static RRRSet make_bitmap(const std::vector<VertexId>& vertices,
                            VertexId num_vertices);

  [[nodiscard]] RRRRepr repr() const noexcept { return repr_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Membership: binary search (vector) or bit test (bitmap).
  [[nodiscard]] bool contains(VertexId v) const noexcept {
    if (repr_ == RRRRepr::kVector) {
      return std::binary_search(vertices_.begin(), vertices_.end(), v);
    }
    return v < bits_.size() && bits_.test(v);
  }

  /// Invokes fn(vertex) for every member in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (repr_ == RRRRepr::kVector) {
      for (const VertexId v : vertices_) fn(v);
    } else {
      bits_.for_each_set([&](std::size_t i) { fn(static_cast<VertexId>(i)); });
    }
  }

  /// Members as a sorted vector (copies for the bitmap repr).
  [[nodiscard]] std::vector<VertexId> to_vector() const;

  /// Sorted-vector view; only valid for the vector representation (the
  /// baseline's binary-search kernel uses it directly).
  [[nodiscard]] const std::vector<VertexId>& vertices() const noexcept {
    return vertices_;
  }

  /// Bitmap words; only valid for the bitmap representation (empty for
  /// vectors). The traced kernels report the word a member test reads.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return bits_.words();
  }

  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return vertices_.capacity() * sizeof(VertexId) + bits_.memory_bytes();
  }

 private:
  RRRRepr repr_ = RRRRepr::kVector;
  std::size_t size_ = 0;
  std::vector<VertexId> vertices_;  // sorted, kVector only
  DynamicBitset bits_;              // kBitmap only
};

}  // namespace eimm
