// Compressed snapshot coverage (the 8-section v4 layout): gap-coded
// sketch payloads must round-trip through both loaders, serve identical
// queries to the raw 7-section image, reject structural corruption with
// typed errors, and decode back to the raw layout on a plain save.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "io/binary.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "serve/snapshot_image.hpp"
#include "support/macros.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

using namespace snapshot_image;

SketchStore make_store() {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options;
  options.k = 6;
  options.max_rrr_sets = 4096;
  return SketchStore::build(g, options, "amazon-compressed");
}

std::string snapshot_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CompressedSnapshot, CompressedLayoutRoundTripsThroughBothLoaders) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_compressed_roundtrip.sks");
  SnapshotSaveOptions save;
  save.compress = true;
  store.save_file(path, save);

  SnapshotLoadOptions stream_options;
  stream_options.mode = SnapshotLoadMode::kStream;
  const SketchStore streamed = SketchStore::load_file(path, stream_options);
  EXPECT_EQ(streamed.load_stats().version, 4u);
  EXPECT_TRUE(streamed.load_stats().compressed);
  EXPECT_GT(streamed.load_stats().compressed_payload_bytes, 0u);
  EXPECT_TRUE(streamed.compressed());
  EXPECT_TRUE(store == streamed);

  SnapshotLoadOptions map_options;
  map_options.mode = SnapshotLoadMode::kMap;
  const SketchStore mapped = SketchStore::load_file(path, map_options);
  EXPECT_EQ(mapped.load_stats().version, 4u);
  EXPECT_TRUE(mapped.load_stats().mmap_backed);
  EXPECT_EQ(mapped.load_stats().bytes_copied, 0u);
  EXPECT_TRUE(mapped.compressed());
  EXPECT_TRUE(store == mapped);

  // Re-saving the compressed load must reproduce the saved bytes exactly.
  std::stringstream resaved;
  SnapshotSaveOptions resave;
  resave.compress = true;
  mapped.save(resaved, resave);
  EXPECT_EQ(resaved.str(), read_file(path));

  // A plain save decodes the gap-coded payload back to the raw layout
  // the built store writes.
  std::stringstream raw_from_built;
  store.save(raw_from_built);
  std::stringstream raw_from_mapped;
  mapped.save(raw_from_mapped);
  EXPECT_EQ(raw_from_mapped.str(), raw_from_built.str());
}

TEST(CompressedSnapshot,
     CompressedLayoutIsSmallerThanRawAndServesIdenticalQueries) {
  const SketchStore store = make_store();
  const std::string raw_path = snapshot_path("eimm_compressed_raw.sks");
  const std::string compressed_path = snapshot_path("eimm_compressed_gap.sks");
  store.save_file(raw_path);
  SnapshotSaveOptions save;
  save.compress = true;
  store.save_file(compressed_path, save);

  const std::string raw_bytes = read_file(raw_path);
  const std::string compressed_bytes = read_file(compressed_path);
  EXPECT_LT(compressed_bytes.size(), raw_bytes.size());

  const SketchStore flat = SketchStore::load_file(raw_path);
  const SketchStore compressed = SketchStore::load_file(compressed_path);
  EXPECT_FALSE(flat.compressed());
  EXPECT_TRUE(compressed.compressed());
  EXPECT_TRUE(flat == compressed);

  const QueryEngine a(flat);
  const QueryEngine b(compressed);
  EXPECT_EQ(a.top_k(6).seeds, b.top_k(6).seeds);
  QueryOptions constrained;
  constrained.k = 4;
  constrained.forbidden = {a.top_k(1).seeds[0]};
  EXPECT_EQ(a.select(constrained).seeds, b.select(constrained).seeds);
}

TEST(CompressedSnapshot, MemberEnumerationMatchesFlatSpans) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_compressed_members.sks");
  SnapshotSaveOptions save;
  save.compress = true;
  store.save_file(path, save);
  const SketchStore compressed = SketchStore::load_file(path);

  ASSERT_EQ(compressed.num_sketches(), store.num_sketches());
  for (std::uint64_t s = 0; s < store.num_sketches(); ++s) {
    const auto id = static_cast<SketchId>(s);
    EXPECT_EQ(compressed.member_count(id), store.sketch(id).size());
    std::vector<VertexId> members;
    compressed.for_each_member(id, [&](VertexId v) {
      members.push_back(v);
    });
    const std::span<const VertexId> expected = store.sketch(id);
    ASSERT_EQ(members.size(), expected.size()) << s;
    EXPECT_TRUE(std::equal(members.begin(), members.end(),
                           expected.begin()))
        << s;
  }
  // Raw spans are unavailable on the compressed store — loud contract,
  // not a silent empty span.
  EXPECT_THROW((void)compressed.sketch(0), CheckError);
}

TEST(CompressedSnapshot, MaterializeFlatRestoresSpans) {
  // A plain re-save of a compressed load decodes the payload, so the
  // store loaded from it serves sketch() spans again.
  const std::string path = snapshot_path("eimm_compressed_materialize.sks");
  SnapshotSaveOptions save;
  save.compress = true;
  make_store().save_file(path, save);
  const SketchStore compressed = SketchStore::load_file(path);
  ASSERT_TRUE(compressed.compressed());

  std::stringstream raw;
  compressed.save(raw);
  const SketchStore restored = SketchStore::load(raw);
  EXPECT_FALSE(restored.compressed());
  for (std::uint64_t s = 0; s < restored.num_sketches(); ++s) {
    const auto id = static_cast<SketchId>(s);
    EXPECT_EQ(restored.sketch(id).size(), compressed.member_count(id));
  }
  EXPECT_TRUE(restored == compressed);
}

TEST(CompressedSnapshot, StructuralCorruptionsThrow) {
  const std::string path = snapshot_path("eimm_compressed_corrupt.sks");
  SnapshotSaveOptions save;
  save.compress = true;
  make_store().save_file(path, save);
  const std::string good = read_file(path);

  {
    // Wrong section count for a compressed header.
    std::string bad = good;
    store_at(bad, 12, std::uint32_t{7});
    write_file(path, bad);
    EXPECT_THROW(SketchStore::load_file(path), bin::FormatError);
  }
  {
    // Truncated file: declared length disagrees.
    std::string bad = good.substr(0, good.size() - 64);
    write_file(path, bad);
    EXPECT_THROW(SketchStore::load_file(path), bin::FormatError);
    SnapshotLoadOptions stream_options;
    stream_options.mode = SnapshotLoadMode::kStream;
    EXPECT_THROW(SketchStore::load_file(path, stream_options),
                 bin::FormatError);
  }
  {
    // Unknown version.
    std::string bad = good;
    store_at(bad, kVersionAt, std::uint32_t{9});
    write_file(path, bad);
    EXPECT_THROW(SketchStore::load_file(path), bin::FormatError);
  }
  {
    // Bytes-declared-vs-real mismatch in the header.
    std::string bad = good;
    store_at(bad, kFileBytesAt,
             static_cast<std::uint64_t>(good.size() + 8));
    write_file(path, bad);
    EXPECT_THROW(SketchStore::load_file(path), bin::FormatError);
  }
}

TEST(CompressedSnapshot, TamperedGapPayloadFailsValidation) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_compressed_tampered.sks");
  SnapshotSaveOptions save;
  save.compress = true;
  store.save_file(path, save);
  std::string bytes = read_file(path);

  // Locate the gap-coded payload (section id 3) through the section
  // table: entries of {u32 id, u32 reserved, u64 offset, u64 bytes}
  // starting at byte 24.
  std::uint64_t payload_at = 0;
  std::uint64_t payload_bytes = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    std::uint32_t id = 0;
    std::memcpy(&id, bytes.data() + 24 + i * 24, sizeof id);
    if (id == 3) {
      std::memcpy(&payload_at, bytes.data() + 24 + i * 24 + 8,
                  sizeof payload_at);
      std::memcpy(&payload_bytes, bytes.data() + 24 + i * 24 + 16,
                  sizeof payload_bytes);
    }
  }
  ASSERT_GT(payload_bytes, 0u);

  // An all-0xFF run forges an endless varint continuation chain; the
  // hardened decoder must throw (shift cap / truncation), never read out
  // of bounds, and the stream loader's payload validation surfaces it.
  for (std::uint64_t i = 0; i < payload_bytes; ++i) {
    bytes[payload_at + i] = static_cast<char>(0xFF);
  }
  write_file(path, bytes);
  SnapshotLoadOptions stream_options;
  stream_options.mode = SnapshotLoadMode::kStream;
  EXPECT_THROW(SketchStore::load_file(path, stream_options), CheckError);

  // The mmap loader defers payload decode; --deep-validate must catch it.
  SnapshotLoadOptions deep;
  deep.mode = SnapshotLoadMode::kMap;
  deep.deep_validate = true;
  EXPECT_THROW(SketchStore::load_file(path, deep), CheckError);
}

}  // namespace
}  // namespace eimm
