// v4 snapshot checksums: save stamps per-section CRC32C values into the
// section table, stream loads verify during the load, mmap loads verify lazily
// (first QueryEngine) or eagerly per SnapshotLoadOptions::checksums, and
// every corruption surfaces as a typed bin::FormatError naming the
// section — never a wrong answer or UB.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "io/binary.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "serve/snapshot_image.hpp"
#include "support/crc32c.hpp"
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
  options.max_rrr_sets = 2048;
  return SketchStore::build(g, options, "amazon-checksum");
}

std::string snapshot_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SnapshotChecksum, DefaultSaveIsV4WithValidSectionCrcs) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_ck_v4.sks");
  store.save_file(path);
  const std::string data = read_file(path);

  EXPECT_EQ(load_at<std::uint32_t>(data, kVersionAt), 4u);
  const auto sections = load_at<std::uint32_t>(data, kSectionCountAt);
  EXPECT_GE(sections, 7u);
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::size_t entry = kTableAt + s * kEntryBytes;
    const auto stamped = load_at<std::uint32_t>(data, entry + 4);
    const auto offset = load_at<std::uint64_t>(data, entry + 8);
    const auto bytes = load_at<std::uint64_t>(data, entry + 16);
    EXPECT_EQ(stamped, crc32c(data.data() + offset, bytes)) << "section " << s;
  }
}

TEST(SnapshotChecksum, StreamLoadVerifiesInline) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_ck_stream.sks");
  store.save_file(path);

  SnapshotLoadOptions stream;
  stream.mode = SnapshotLoadMode::kStream;
  const SketchStore loaded = SketchStore::load_file(path, stream);
  EXPECT_TRUE(loaded.load_stats().checksums_verified);
  EXPECT_FALSE(loaded.checksums_pending());
  EXPECT_TRUE(store == loaded);
}

TEST(SnapshotChecksum, LazyMapLoadDefersToQueryEngine) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_ck_lazy.sks");
  store.save_file(path);

  const SketchStore mapped = SketchStore::load_file(path);  // kMap + kLazy
  EXPECT_TRUE(mapped.load_stats().mmap_backed);
  EXPECT_FALSE(mapped.load_stats().checksums_verified);
  EXPECT_TRUE(mapped.checksums_pending());

  // The first engine construction forces verification; afterwards the
  // store no longer reports pending work.
  const QueryEngine engine(mapped);
  EXPECT_FALSE(mapped.checksums_pending());
  EXPECT_EQ(engine.top_k(6).seeds, QueryEngine(store).top_k(6).seeds);
}

TEST(SnapshotChecksum, EagerMapLoadVerifiesUpFront) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_ck_eager.sks");
  store.save_file(path);

  SnapshotLoadOptions eager;
  eager.mode = SnapshotLoadMode::kMap;
  eager.checksums = ChecksumMode::kEager;
  const SketchStore mapped = SketchStore::load_file(path, eager);
  EXPECT_TRUE(mapped.load_stats().checksums_verified);
  EXPECT_FALSE(mapped.checksums_pending());
}

TEST(SnapshotChecksum, CorruptSectionIsCaughtOnEveryVerifyingPath) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_ck_corrupt.sks");
  store.save_file(path);
  std::string data = read_file(path);

  // Flip one byte deep inside the sketch-vertices payload (table entry
  // 2) without touching the table. Structural validation cannot notice
  // — only the section checksum can.
  const auto offset =
      load_at<std::uint64_t>(data, kTableAt + 2 * kEntryBytes + 8);
  const auto bytes =
      load_at<std::uint64_t>(data, kTableAt + 2 * kEntryBytes + 16);
  const std::size_t victim = offset + bytes / 2;
  data[victim] = static_cast<char>(data[victim] ^ 0x10);
  write_file(path, data);

  // Stream load: caught inline.
  SnapshotLoadOptions stream;
  stream.mode = SnapshotLoadMode::kStream;
  try {
    SketchStore::load_file(path, stream);
    FAIL() << "stream load accepted a corrupt section";
  } catch (const bin::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
    EXPECT_FALSE(e.section().empty());
    EXPECT_TRUE(e.offset().has_value());
  }

  // Eager mmap load: caught at load time.
  SnapshotLoadOptions eager;
  eager.mode = SnapshotLoadMode::kMap;
  eager.checksums = ChecksumMode::kEager;
  EXPECT_THROW(SketchStore::load_file(path, eager), bin::FormatError);

  // Lazy mmap load: the load itself succeeds (O(table) cold start)...
  const SketchStore mapped = SketchStore::load_file(path);
  EXPECT_TRUE(mapped.checksums_pending());
  // ...and the engine constructor — the serving choke point — throws.
  EXPECT_THROW(QueryEngine{mapped}, bin::FormatError);
  // A failed verification stays retryable, not latched-as-verified.
  EXPECT_TRUE(mapped.checksums_pending());
  EXPECT_THROW(mapped.verify_checksums(), bin::FormatError);
}

TEST(SnapshotChecksum, CompressedV4RoundTripsOnBothLoaders) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_ck_compressed.sks");
  SnapshotSaveOptions save;
  save.compress = true;
  store.save_file(path, save);

  const std::string data = read_file(path);
  EXPECT_EQ(load_at<std::uint32_t>(data, kVersionAt), 4u);
  EXPECT_EQ(load_at<std::uint32_t>(data, kSectionCountAt), 8u);

  SnapshotLoadOptions stream;
  stream.mode = SnapshotLoadMode::kStream;
  const SketchStore streamed = SketchStore::load_file(path, stream);
  EXPECT_TRUE(streamed.load_stats().compressed);
  EXPECT_TRUE(streamed.load_stats().checksums_verified);
  EXPECT_TRUE(store == streamed);

  SnapshotLoadOptions eager;
  eager.mode = SnapshotLoadMode::kMap;
  eager.checksums = ChecksumMode::kEager;
  const SketchStore mapped = SketchStore::load_file(path, eager);
  EXPECT_TRUE(mapped.load_stats().checksums_verified);
  EXPECT_TRUE(store == mapped);
}

TEST(SnapshotChecksum, DeepValidateForcesVerificationOnMapLoads) {
  const SketchStore store = make_store();
  const std::string path = snapshot_path("eimm_ck_deep.sks");
  store.save_file(path);
  std::string data = read_file(path);
  const auto offset =
      load_at<std::uint64_t>(data, kTableAt + 2 * kEntryBytes + 8);
  data[offset] = static_cast<char>(data[offset] ^ 0x01);
  write_file(path, data);

  SnapshotLoadOptions deep;
  deep.mode = SnapshotLoadMode::kMap;
  deep.deep_validate = true;  // implies checksum verification
  EXPECT_THROW(SketchStore::load_file(path, deep), bin::FormatError);
}

}  // namespace
}  // namespace eimm
