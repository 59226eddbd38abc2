// v2 snapshot coverage: the mmap load path must be zero-copy and
// bit-faithful, the section table must reject every structural
// corruption with a FormatError naming the section, and N read-only
// loads of one file must not interfere (the N-serving-processes
// deployment the format exists for).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/binary.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "support/macros.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

// v2 header layout (all little-endian): magic[8], u32 version, u32
// section_count, u64 file_bytes, then section_count entries of
// {u32 id, u32 reserved, u64 offset, u64 bytes}.
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kFileBytesAt = 16;
constexpr std::size_t kTableAt = 24;
constexpr std::size_t kEntryBytes = 24;

SketchStore make_store() {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options;
  options.k = 6;
  options.max_rrr_sets = 4096;
  return SketchStore::build(g, options, "amazon-mmap");
}

std::string snapshot_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(data.data(), static_cast<std::streamsize>(data.size()));
}

template <typename T>
T load_at(const std::string& data, std::size_t at) {
  T v{};
  std::memcpy(&v, data.data() + at, sizeof v);
  return v;
}

template <typename T>
void store_at(std::string& data, std::size_t at, T v) {
  std::memcpy(data.data() + at, &v, sizeof v);
}

TEST(MmapSnapshot, MapLoadIsZeroCopyAndBitIdentical) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_identity.sks");
  store.save_file(path);
  const std::string original = read_file(path);

  SnapshotLoadOptions map_options;
  map_options.mode = SnapshotLoadMode::kMap;
  const SketchStore mapped = SketchStore::load_file(path, map_options);

  const SnapshotLoadStats& stats = mapped.load_stats();
  EXPECT_EQ(stats.version, 4u);
  EXPECT_TRUE(stats.mmap_backed);
  EXPECT_EQ(stats.file_bytes, original.size());
  EXPECT_EQ(stats.bytes_mapped, original.size());
  EXPECT_EQ(stats.bytes_copied, 0u);  // the zero-copy acceptance counter
  EXPECT_EQ(mapped.mapped_bytes(), original.size());

  EXPECT_TRUE(store == mapped);

  // save(mmap-load(save(store))) must reproduce the bytes exactly.
  std::stringstream resaved;
  mapped.save(resaved);
  EXPECT_EQ(resaved.str(), original);
}

TEST(MmapSnapshot, StreamAndMapLoadsServeIdenticalResults) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_agree.sks");
  store.save_file(path);

  SnapshotLoadOptions stream_options;
  stream_options.mode = SnapshotLoadMode::kStream;
  const SketchStore streamed = SketchStore::load_file(path, stream_options);
  SnapshotLoadOptions map_options;
  map_options.mode = SnapshotLoadMode::kMap;
  const SketchStore mapped = SketchStore::load_file(path, map_options);

  EXPECT_FALSE(streamed.load_stats().mmap_backed);
  EXPECT_GT(streamed.load_stats().bytes_copied, 0u);
  EXPECT_TRUE(streamed == mapped);

  const QueryEngine a(streamed);
  const QueryEngine b(mapped);
  EXPECT_EQ(a.top_k(6).seeds, b.top_k(6).seeds);
  QueryOptions constrained;
  constrained.k = 4;
  constrained.forbidden = {a.top_k(1).seeds[0]};
  EXPECT_EQ(a.select(constrained).seeds, b.select(constrained).seeds);
}

TEST(MmapSnapshot, BitmapSlotStoreRoundTripsThroughMapLoad) {
  // The default build stages dense sets as segmented bitmap slots; the
  // store expands them for serving, and a save -> mmap load round trip
  // must answer exactly like the in-memory store and like an eager
  // freeze of the same sets held as sorted vectors.
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options;
  options.k = 6;
  options.max_rrr_sets = 4096;
  PoolBuild build = build_rrr_pool(g, options, Engine::kEfficient);
  ASSERT_TRUE(build.segmented);
  ASSERT_GT(build.view().bitmap_count(), 0u)
      << "workload produced no bitmap slots";
  const FlatPool flat = build.view().flatten();
  RRRPool vectors(g.num_vertices());
  vectors.resize(flat.offsets.size() - 1);
  for (std::size_t s = 0; s < vectors.size(); ++s) {
    vectors[s] = RRRSet::make_vector(std::vector<VertexId>(
        flat.vertices.begin() + static_cast<std::ptrdiff_t>(flat.offsets[s]),
        flat.vertices.begin() +
            static_cast<std::ptrdiff_t>(flat.offsets[s + 1])));
  }
  const SketchStore store = SketchStore::from_build(std::move(build), 6);
  const SketchStore eager = SketchStore::from_pool(vectors, 6);
  EXPECT_TRUE(store == eager);

  const std::string path = snapshot_path("eimm_mmap_bitmap_slots.sks");
  store.save_file(path);
  SnapshotLoadOptions map_options;
  map_options.mode = SnapshotLoadMode::kMap;
  const SketchStore mapped = SketchStore::load_file(path, map_options);
  EXPECT_TRUE(mapped.load_stats().mmap_backed);
  EXPECT_TRUE(store == mapped);

  const QueryEngine live(store);
  const QueryEngine loaded(mapped);
  const QueryEngine reference(eager);
  for (const std::size_t k : {1u, 3u, 6u}) {
    EXPECT_EQ(live.top_k(k).seeds, loaded.top_k(k).seeds) << "k=" << k;
    EXPECT_EQ(reference.top_k(k).seeds, loaded.top_k(k).seeds) << "k=" << k;
  }
  QueryOptions constrained;
  constrained.k = 4;
  constrained.forbidden = {live.top_k(1).seeds[0]};
  const QueryResult a = live.select(constrained);
  const QueryResult b = loaded.select(constrained);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.marginal_coverage, b.marginal_coverage);
  EXPECT_EQ(reference.select(constrained).seeds, b.seeds);
}

TEST(MmapSnapshot, AutoModePrefersMapForV2Files) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_auto.sks");
  store.save_file(path);
  const SketchStore loaded = SketchStore::load_file(path);
  EXPECT_TRUE(loaded.load_stats().mmap_backed);
  EXPECT_EQ(loaded.load_stats().bytes_copied, 0u);
}

TEST(MmapSnapshot, LegacyV1RoundTripsButCannotBeMapped) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_legacy.sks");
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    store.save_legacy_v1(os);
  }

  // kAuto falls back to the stream loader for v1.
  const SketchStore loaded = SketchStore::load_file(path);
  EXPECT_EQ(loaded.load_stats().version, 1u);
  EXPECT_FALSE(loaded.load_stats().mmap_backed);
  EXPECT_TRUE(store == loaded);

  // An explicit kMap request must fail loudly, not silently copy.
  SnapshotLoadOptions map_options;
  map_options.mode = SnapshotLoadMode::kMap;
  try {
    SketchStore::load_file(path, map_options);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("v1"), std::string::npos);
  }
}

TEST(MmapSnapshot, SectionTableCorruptionsThrow) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_corrupt.sks");
  store.save_file(path);
  const std::string good = read_file(path);

  const auto expect_rejected = [&](const std::string& data,
                                   const char* label) {
    write_file(path, data);
    for (const SnapshotLoadMode mode :
         {SnapshotLoadMode::kMap, SnapshotLoadMode::kStream}) {
      try {
        SnapshotLoadOptions options;
        options.mode = mode;
        SketchStore::load_file(path, options);
        FAIL() << label << " accepted in mode " << static_cast<int>(mode);
      } catch (const bin::FormatError& e) {
        EXPECT_FALSE(e.section().empty()) << label;
      } catch (const CheckError&) {
        // Size-mismatch paths throw plain CheckError; still a clean
        // rejection.
      }
    }
  };

  // Misaligned section offset (alignment is what makes mmap serving
  // page-granular).
  std::string misaligned = good;
  store_at(misaligned, kTableAt + 8,
           load_at<std::uint64_t>(good, kTableAt + 8) + 1);
  expect_rejected(misaligned, "misaligned offset");

  // Section ids out of order.
  std::string swapped_ids = good;
  store_at(swapped_ids, kTableAt + 0, std::uint32_t{2});
  expect_rejected(swapped_ids, "wrong section id order");

  // Second section overlapping the first.
  std::string overlapping = good;
  store_at(overlapping, kTableAt + kEntryBytes + 8,
           load_at<std::uint64_t>(good, kTableAt + 8));
  expect_rejected(overlapping, "overlapping sections");

  // Declared file size disagreeing with the section table.
  std::string shrunk = good;
  store_at(shrunk, kFileBytesAt,
           load_at<std::uint64_t>(good, kFileBytesAt) - 1);
  expect_rejected(shrunk, "file_bytes mismatch");

  // Trailing bytes after the last section.
  expect_rejected(good + std::string(1, '\0'), "trailing bytes");

  // Truncation inside the section table itself.
  expect_rejected(good.substr(0, kTableAt + kEntryBytes / 2),
                  "truncated section table");

  // The pristine bytes must still load (guards the helpers above).
  write_file(path, good);
  EXPECT_NO_THROW(SketchStore::load_file(path));
}

TEST(MmapSnapshot, DeepValidateCatchesTamperedPayload) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_tamper.sks");
  store.save_file(path);
  std::string data = read_file(path);

  // Section 3 (sketch vertices) is table entry 2; plant an
  // out-of-range vertex id in its first slot. The structure (table,
  // offsets) stays valid.
  const auto vertices_at = static_cast<std::size_t>(
      load_at<std::uint64_t>(data, kTableAt + 2 * kEntryBytes + 8));
  store_at(data, vertices_at, std::uint32_t{0xFFFFFFFFu});
  write_file(path, data);

  // A plain mmap load only checks structure — it must succeed (that is
  // the O(index) cold-start contract)...
  SnapshotLoadOptions map_options;
  map_options.mode = SnapshotLoadMode::kMap;
  EXPECT_NO_THROW(SketchStore::load_file(path, map_options));

  // ...while deep_validate and the stream loader both scan the payload
  // and must reject it.
  SnapshotLoadOptions deep = map_options;
  deep.deep_validate = true;
  EXPECT_THROW(SketchStore::load_file(path, deep), CheckError);
  SnapshotLoadOptions stream_options;
  stream_options.mode = SnapshotLoadMode::kStream;
  EXPECT_THROW(SketchStore::load_file(path, stream_options), CheckError);
}

TEST(MmapSnapshot, DeepValidatedMapLoadReportsIt) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_deep.sks");
  store.save_file(path);
  SnapshotLoadOptions deep;
  deep.mode = SnapshotLoadMode::kMap;
  deep.deep_validate = true;
  const SketchStore loaded = SketchStore::load_file(path, deep);
  EXPECT_TRUE(loaded.load_stats().deep_validated);
  EXPECT_EQ(loaded.load_stats().bytes_copied, 0u);
  EXPECT_TRUE(store == loaded);
}

TEST(MmapSnapshot, ConcurrentReadOnlyLoadsAgree) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_mmap_concurrent.sks");
  store.save_file(path);
  const QueryEngine reference(store);
  const std::vector<VertexId> expected = reference.top_k(6).seeds;

  constexpr int kLoaders = 8;
  std::vector<int> ok(kLoaders, 0);
  std::vector<std::thread> loaders;
  loaders.reserve(kLoaders);
  for (int t = 0; t < kLoaders; ++t) {
    loaders.emplace_back([&, t] {
      SnapshotLoadOptions options;
      options.mode = t % 2 == 0 ? SnapshotLoadMode::kMap
                                : SnapshotLoadMode::kStream;
      const SketchStore mine = SketchStore::load_file(path, options);
      const QueryEngine engine(mine);
      ok[static_cast<std::size_t>(t)] =
          engine.top_k(6).seeds == expected && mine == store ? 1 : 0;
    });
  }
  for (std::thread& t : loaders) t.join();
  for (int t = 0; t < kLoaders; ++t) EXPECT_EQ(ok[static_cast<std::size_t>(t)], 1) << t;
}

TEST(MmapSnapshot, MappedStoreSurvivesMove) {
  // Spans must keep pointing into the mapping after the store moves
  // (serving code returns stores by value).
  const SketchStore built = make_store();
  const std::string path = snapshot_path("eimm_mmap_move.sks");
  built.save_file(path);
  SnapshotLoadOptions map_options;
  map_options.mode = SnapshotLoadMode::kMap;
  SketchStore first = SketchStore::load_file(path, map_options);
  const std::vector<VertexId> before(first.default_seeds().begin(),
                                     first.default_seeds().end());
  SketchStore second = std::move(first);
  EXPECT_TRUE(std::equal(second.default_seeds().begin(),
                         second.default_seeds().end(), before.begin(),
                         before.end()));
  EXPECT_TRUE(second == built);
  EXPECT_TRUE(second.load_stats().mmap_backed);
}

}  // namespace
}  // namespace eimm
