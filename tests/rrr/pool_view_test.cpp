// The zero-copy hand-off contract: a view over the legacy RRRPool and a
// view over shard-local SegmentedPool storage holding the SAME sets must
// be indistinguishable slot-by-slot — size, membership, enumeration
// order, and the flattened CSR image — because the selection kernels'
// bit-identical seed guarantee rests on exactly this equivalence. Also
// covers the ShardArena reset() chunk-reuse semantics the compressed
// pool's per-round recycling depends on.
#include "rrr/pool_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "graph/generators.hpp"
#include "support/macros.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

/// Builds a SegmentedPool holding the same (sorted) member lists as the
/// reference pool, staged through `workers` round-robin arenas — the
/// layout the sharded sampler produces, minus the threads.
SegmentedPool segment_pool(const RRRPool& reference, std::size_t workers) {
  SegmentedPool segments(reference.num_vertices());
  segments.resize(reference.size());
  segments.ensure_workers(workers);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const std::vector<VertexId> sorted = reference[i].to_vector();
    ShardArena& arena = segments.arena(i % workers);
    segments.set_run(i, arena.view(arena.append(sorted)));
  }
  return segments;
}

/// Like segment_pool, but stages every slot in the reference's own
/// representation: bitmap sets become segmented bitmap slots.
SegmentedPool segment_pool_adaptive(const RRRPool& reference,
                                    std::size_t workers) {
  const VertexId n = reference.num_vertices();
  SegmentedPool segments(n);
  segments.resize(reference.size());
  segments.ensure_workers(workers);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ShardArena& arena = segments.arena(i % workers);
    if (reference[i].repr() != RRRRepr::kBitmap) {
      segments.set_run(i, arena.view(arena.append(reference[i].vertices())));
      continue;
    }
    std::span<std::uint64_t> words;
    arena.allocate_bitmap(words_for_bits(n), reference[i].size(), words);
    reference[i].for_each(
        [&](VertexId v) { words[v >> 6] |= std::uint64_t{1} << (v & 63); });
    segments.set_bitmap(i, words.data(), reference[i].size());
  }
  return segments;
}

RRRPool sampled_pool(bool adaptive, std::size_t count = 300) {
  const DiffusionGraph g = testing::make_weighted_graph(
      gen_erdos_renyi(400, 2500, 17), DiffusionModel::kIndependentCascade);
  return testing::sample_pool(g, DiffusionModel::kIndependentCascade, count,
                              0xFEED, adaptive);
}

void expect_views_identical(const RRRPoolView& a, const RRRPoolView& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.total_vertices(), b.total_vertices());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const RRRSetView sa = a[i];
    const RRRSetView sb = b[i];
    ASSERT_EQ(sa.size(), sb.size()) << "slot " << i;
    std::vector<VertexId> va;
    std::vector<VertexId> vb;
    sa.for_each([&](VertexId v) { va.push_back(v); });
    sb.for_each([&](VertexId v) { vb.push_back(v); });
    ASSERT_EQ(va, vb) << "slot " << i;
    EXPECT_TRUE(std::is_sorted(va.begin(), va.end())) << "slot " << i;
    for (const VertexId v : va) {
      EXPECT_TRUE(sa.contains(v));
      EXPECT_TRUE(sb.contains(v));
    }
  }
  const FlatPool fa = a.flatten();
  const FlatPool fb = b.flatten();
  EXPECT_EQ(fa.num_vertices, fb.num_vertices);
  EXPECT_EQ(fa.offsets, fb.offsets);
  EXPECT_EQ(fa.vertices, fb.vertices);
}

TEST(RRRPoolView, SegmentBackingMatchesLegacyPoolSlotBySlot) {
  const RRRPool pool = sampled_pool(/*adaptive=*/false);
  const SegmentedPool segments = segment_pool(pool, 3);
  expect_views_identical(RRRPoolView(pool), RRRPoolView(segments));
}

TEST(RRRPoolView, SegmentBackingMatchesAdaptivePoolWithBitmaps) {
  // Adaptive pools hold bitmap sets; the segment backing holds sorted
  // runs — the view must erase the representation difference entirely.
  const RRRPool pool = sampled_pool(/*adaptive=*/true);
  ASSERT_GT(pool.bitmap_count(), 0u)
      << "workload did not produce bitmap sets; raise density";
  const SegmentedPool segments = segment_pool(pool, 4);
  const RRRPoolView legacy(pool);
  const RRRPoolView zero_copy(segments);
  expect_views_identical(legacy, zero_copy);
  EXPECT_EQ(legacy.bitmap_count(), pool.bitmap_count());
  EXPECT_EQ(zero_copy.bitmap_count(), 0u);  // runs are always vectors
  EXPECT_TRUE(zero_copy.segmented());
  EXPECT_FALSE(legacy.segmented());
}

TEST(RRRPoolView, SegmentBitmapSlotsMatchAdaptivePool) {
  // Bitmap slots in the segmented backing must be indistinguishable from
  // the RRRSet bitmaps they mirror, and counted as bitmaps.
  const RRRPool pool = sampled_pool(/*adaptive=*/true);
  const SegmentedPool segments = segment_pool_adaptive(pool, 3);
  const RRRPoolView legacy(pool);
  const RRRPoolView zero_copy(segments);
  ASSERT_GT(legacy.bitmap_count(), 0u);
  expect_views_identical(legacy, zero_copy);
  EXPECT_EQ(zero_copy.bitmap_count(), legacy.bitmap_count());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(zero_copy[i].repr(), legacy[i].repr()) << "slot " << i;
    EXPECT_EQ(segments.is_bitmap(i), pool[i].repr() == RRRRepr::kBitmap);
  }
}

TEST(SegmentedPool, BitmapSlotMatchesMakeAdaptiveOffWordBoundary) {
  // |V| = 130 is not a multiple of 64: the last word is partial, and
  // contains() must reject every id past |V| (and past the last word).
  constexpr VertexId kN = 130;
  std::vector<VertexId> members;
  for (VertexId v = 0; v + 3 < kN; v += 3) members.push_back(v);
  members.push_back(kN - 1);  // the partial last word's top member
  const RRRSet set = RRRSet::make_adaptive(members, kN);
  ASSERT_EQ(set.repr(), RRRRepr::kBitmap);

  SegmentedPool segments(kN);
  segments.resize(2);
  segments.ensure_workers(1);
  ShardArena& arena = segments.arena(0);
  arena.append(std::vector<VertexId>{7});  // odd offset before the bitmap
  std::span<std::uint64_t> words;
  const ShardArena::Ref ref =
      arena.allocate_bitmap(words_for_bits(kN), members.size(), words);
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words.data()) %
                alignof(std::uint64_t),
            0u);
  for (const VertexId v : members) {
    words[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  segments.set_bitmap(0, words.data(), members.size());
  const std::vector<VertexId> run = {2, 64, 129};
  segments.set_run(1, arena.view(arena.append(run)));

  const RRRSetView slot = segments.slot(0);
  EXPECT_EQ(slot.repr(), RRRRepr::kBitmap);
  EXPECT_EQ(arena.slot(ref).size(), set.size());
  EXPECT_EQ(slot.size(), set.size());
  for (VertexId v = 0; v < kN + 100; ++v) {
    EXPECT_EQ(slot.contains(v), set.contains(v)) << "vertex " << v;
  }
  std::vector<VertexId> got;
  slot.for_each([&](VertexId v) { got.push_back(v); });
  EXPECT_EQ(got, set.to_vector());

  RRRPool reference(kN);
  reference.resize(2);
  reference[0] = set;
  reference[1] = RRRSet::make_vector(run);
  expect_views_identical(RRRPoolView(reference), RRRPoolView(segments));
  EXPECT_EQ(RRRPoolView(segments).bitmap_count(), 1u);
}

TEST(SegmentedPool, MemoryBytesCountsTheSlotTable) {
  // Like RRRPool and CompressedPool, the segmented backing reports its
  // per-slot entry table, not only the arena chunks.
  SegmentedPool empty_slots(100);
  empty_slots.resize(1000);
  EXPECT_EQ(empty_slots.mapped_bytes(), 0u);
  EXPECT_GE(empty_slots.memory_bytes(), 1000u * 16u);
  EXPECT_EQ(RRRPoolView(empty_slots).memory_bytes(),
            empty_slots.memory_bytes());

  const RRRPool pool = sampled_pool(/*adaptive=*/false, 60);
  const SegmentedPool segments = segment_pool(pool, 3);
  EXPECT_GE(segments.memory_bytes(),
            segments.mapped_bytes() + segments.size() * 16u);
}

TEST(RRRPoolView, CompressedAppendOverBitmapSlots) {
  // CompressedPool::append enumerates bitmap slots ascending, so a
  // compressed copy of a segmented pool with bitmaps holds the same sets.
  const RRRPool pool = sampled_pool(/*adaptive=*/true);
  const SegmentedPool segments = segment_pool_adaptive(pool, 2);
  ASSERT_GT(RRRPoolView(segments).bitmap_count(), 0u);
  for (const PoolCodec codec : {PoolCodec::kVarint, PoolCodec::kHuffman}) {
    CompressedPool comp(segments.num_vertices(), codec);
    comp.append(segments, 0, 100);
    comp.append(segments, 100, segments.size());
    expect_views_identical(RRRPoolView(segments), RRRPoolView(comp));
  }
}

TEST(RRRPoolView, ContainsRejectsNonMembersOnBothBackings) {
  const RRRPool pool = sampled_pool(/*adaptive=*/false, 50);
  const SegmentedPool segments = segment_pool(pool, 2);
  const RRRPoolView a(pool);
  const RRRPoolView b(segments);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (VertexId v = 0; v < a.num_vertices(); v += 7) {
      EXPECT_EQ(a[i].contains(v), b[i].contains(v))
          << "slot " << i << " vertex " << v;
    }
  }
}

TEST(RRRSetView, VerticesSpanMatchesSetVectorRepresentation) {
  const RRRSet set = RRRSet::make_vector({5, 1, 9, 3});
  const RRRSetView view(set);
  EXPECT_EQ(view.repr(), RRRRepr::kVector);
  ASSERT_EQ(view.vertices().size(), 4u);
  EXPECT_EQ(view.vertices()[0], 1u);  // make_vector sorts
  EXPECT_EQ(view.vertices()[3], 9u);

  const std::vector<VertexId> run = {1, 3, 5, 9};
  const RRRSetView run_view{std::span<const VertexId>(run)};
  EXPECT_EQ(run_view.repr(), RRRRepr::kVector);
  EXPECT_EQ(run_view.size(), 4u);
  EXPECT_TRUE(std::equal(run_view.vertices().begin(),
                         run_view.vertices().end(), view.vertices().begin()));
}

// --- ShardArena reset/reuse (the per-round recycling contract) ---

TEST(ShardArena, ResetReusesMappedChunksAcrossRounds) {
  ShardArena arena(/*chunk_vertices=*/16);
  std::vector<VertexId> run(10);
  std::iota(run.begin(), run.end(), 0);

  for (int i = 0; i < 4; ++i) arena.append(run);
  const std::uint64_t mapped_after_round1 = arena.mapped_bytes();
  const std::uint64_t staged_after_round1 = arena.staged_bytes();
  ASSERT_GT(mapped_after_round1, 0u);

  arena.reset();
  std::vector<ShardArena::Ref> refs;
  for (int i = 0; i < 4; ++i) refs.push_back(arena.append(run));

  // Same payload volume → no new chunks; staged keeps accumulating.
  EXPECT_EQ(arena.mapped_bytes(), mapped_after_round1);
  EXPECT_EQ(arena.staged_bytes(), 2 * staged_after_round1);
  EXPECT_EQ(arena.runs(), 8u);
  for (const ShardArena::Ref& ref : refs) {
    const auto view = arena.view(ref);
    EXPECT_EQ(std::vector<VertexId>(view.begin(), view.end()), run);
  }
}

TEST(ShardArena, ResetKeepsOversizedChunksUsable) {
  ShardArena arena(/*chunk_vertices=*/4);
  std::vector<VertexId> giant(100);
  std::iota(giant.begin(), giant.end(), 0);
  arena.append({giant.data(), 3});
  arena.append(giant);  // dedicated oversized chunk
  const std::uint64_t mapped = arena.mapped_bytes();

  arena.reset();
  arena.append({giant.data(), 2});
  const auto ref = arena.append(giant);  // must land in the reused chunk
  EXPECT_EQ(arena.mapped_bytes(), mapped);
  const auto view = arena.view(ref);
  EXPECT_EQ(std::vector<VertexId>(view.begin(), view.end()), giant);
}

TEST(SegmentedPool, TracksStagedAndMappedBytesAcrossWorkers) {
  const RRRPool pool = sampled_pool(/*adaptive=*/false, 60);
  const SegmentedPool segments = segment_pool(pool, 3);
  EXPECT_EQ(segments.num_workers(), 3u);
  EXPECT_EQ(segments.staged_bytes(),
            pool.total_vertices() * sizeof(VertexId));
  EXPECT_GE(segments.mapped_bytes(), segments.staged_bytes());
}

TEST(SegmentedPool, GrowthKeepsWrittenEntriesAndAddsEmptySlots) {
  // The slot table grows in place: entries written before a resize keep
  // pointing at their runs, and every new slot reads as an empty run
  // until staging writes it. Moving the pool carries the table along.
  SegmentedPool segments(100);
  segments.ensure_workers(1);
  ShardArena& arena = segments.arena(0);
  segments.resize(3);
  const std::vector<VertexId> run = {4, 9, 17};
  const ShardArena::Ref ref = arena.append(run);
  segments.set_run(1, arena.view(ref));
  for (const std::size_t count : {300u, 5000u, 70000u}) {
    segments.resize(count);
    ASSERT_EQ(segments.size(), count);
    const auto view = segments.slot(1).vertices();
    EXPECT_EQ(std::vector<VertexId>(view.begin(), view.end()), run);
    EXPECT_EQ(segments.slot(0).size(), 0u);
    EXPECT_EQ(segments.slot(count - 1).size(), 0u);
    EXPECT_FALSE(segments.is_bitmap(count - 1));
  }
  SegmentedPool moved(std::move(segments));
  EXPECT_EQ(moved.size(), 70000u);
  EXPECT_EQ(segments.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.slot(1).size(), run.size());
}

TEST(SegmentedPool, NeverShrinks) {
  SegmentedPool segments(10);
  segments.resize(5);
  EXPECT_THROW(segments.resize(3), CheckError);
}

}  // namespace
}  // namespace eimm
