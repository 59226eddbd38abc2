// Snapshot round-trip and io/binary error-path coverage for the
// sketch-store format: a snapshot built once must be loadable by another
// process bit-for-bit, and every malformed input must fail with a clear
// CheckError instead of UB (the suite runs under the asan preset in CI).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <istream>
#include <sstream>

#include "io/binary.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "serve/snapshot_image.hpp"
#include "support/macros.hpp"
#include "test_util.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

using namespace snapshot_image;

using testing::PipeBuf;

SketchStore make_store() {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options;
  options.k = 6;
  options.max_rrr_sets = 4096;
  return SketchStore::build(g, options, "amazon-snapshot");
}

TEST(SketchSnapshot, SaveLoadSaveIsBitIdentical) {
  const SketchStore store = make_store();
  std::stringstream first;
  store.save(first);
  const SketchStore loaded = SketchStore::load(first);
  std::stringstream second;
  loaded.save(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_TRUE(store == loaded);
}

TEST(SketchSnapshot, LoadedStoreAnswersIdenticallyToInMemory) {
  const SketchStore store = make_store();
  std::stringstream ss;
  store.save(ss);
  const SketchStore loaded = SketchStore::load(ss);

  const QueryEngine in_memory(store);
  const QueryEngine from_snapshot(loaded);

  EXPECT_EQ(from_snapshot.top_k(6).seeds, in_memory.top_k(6).seeds);

  QueryOptions constrained;
  constrained.k = 4;
  constrained.forbidden = {in_memory.top_k(1).seeds[0]};
  const QueryResult a = in_memory.select(constrained);
  const QueryResult b = from_snapshot.select(constrained);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.marginal_coverage, b.marginal_coverage);
  EXPECT_EQ(a.covered_sketches, b.covered_sketches);

  const std::vector<VertexId> eval_seeds = {1, 2, 3};
  EXPECT_EQ(in_memory.evaluate(eval_seeds).covered_sketches,
            from_snapshot.evaluate(eval_seeds).covered_sketches);
}

TEST(SketchSnapshot, FileRoundTrip) {
  const SketchStore store = make_store();
  const std::string path = ::testing::TempDir() + "/eimm_store_roundtrip.sks";
  store.save_file(path);
  const SketchStore loaded = SketchStore::load_file(path);
  EXPECT_TRUE(store == loaded);
}

TEST(SketchSnapshot, MissingFileThrows) {
  EXPECT_THROW(SketchStore::load_file("/nonexistent/store.sks"), CheckError);
}

TEST(SketchSnapshot, ZeroLengthFileThrows) {
  std::stringstream empty;
  EXPECT_THROW(SketchStore::load(empty), CheckError);

  const std::string path = ::testing::TempDir() + "/eimm_store_empty.sks";
  std::ofstream(path, std::ios::binary).close();
  EXPECT_THROW(SketchStore::load_file(path), CheckError);
}

TEST(SketchSnapshot, BadMagicThrows) {
  std::stringstream ss("not a sketch store at all, sorry");
  EXPECT_THROW(SketchStore::load(ss), CheckError);

  // A valid header of the WRONG format must be rejected too.
  std::stringstream csr_like;
  csr_like << "EIMMCSR" << '\0' << "garbagegarbage";
  EXPECT_THROW(SketchStore::load(csr_like), CheckError);
}

TEST(SketchSnapshot, BadVersionThrows) {
  // Only v4 loads. Versions 1-3 are retired formats and 5 is unknown: each
  // must fail on every load path with the one typed error that names the
  // version and asks for a rebuild, whatever the bytes after the version
  // word look like.
  const std::string good = save_bytes(make_store());
  const std::string path = ::testing::TempDir() + "/eimm_store_version.sks";
  const auto expect_unsupported = [](const auto& load, std::uint32_t version,
                                     const char* where) {
    try {
      load();
      FAIL() << "version " << version << " accepted by " << where;
    } catch (const bin::FormatError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unsupported sketch-store snapshot version " +
                          std::to_string(version)),
                std::string::npos)
          << where << ": " << what;
      EXPECT_NE(what.find("rebuild"), std::string::npos) << where << ": "
                                                         << what;
    }
  };
  for (const std::uint32_t version : {1u, 2u, 3u, 5u, 99u}) {
    std::string data = good;
    store_at(data, kVersionAt, version);
    write_file(path, data);
    expect_unsupported(
        [&] {
          std::stringstream patched(data);
          SketchStore::load(patched);
        },
        version, "load()");
    for (const SnapshotLoadMode mode :
         {SnapshotLoadMode::kMap, SnapshotLoadMode::kStream}) {
      SnapshotLoadOptions options;
      options.mode = mode;
      expect_unsupported([&] { SketchStore::load_file(path, options); },
                         version,
                         mode == SnapshotLoadMode::kMap ? "load_file kMap"
                                                        : "load_file kStream");
    }
  }
}

TEST(SketchSnapshot, TruncationAtEveryRegionThrows) {
  const SketchStore store = make_store();
  std::stringstream ss;
  store.save(ss);
  const std::string data = ss.str();
  ASSERT_GT(data.size(), 64u);
  // Chop at a spread of points: header, meta, every array region.
  for (const double fraction : {0.1, 0.25, 0.5, 0.75, 0.99}) {
    std::string cut = data.substr(
        0, static_cast<std::size_t>(static_cast<double>(data.size()) *
                                    fraction));
    std::stringstream truncated(std::move(cut));
    EXPECT_THROW(SketchStore::load(truncated), CheckError)
        << "fraction " << fraction;
  }
}

TEST(SketchSnapshot, DuplicateSketchMembersThrow) {
  // A sketch that lists one vertex twice: offsets and ranges all
  // validate, but the duplicate would double-count coverage. With its
  // CRCs re-stamped only the payload scan stands in the way, and load
  // must reject the non-ascending run.
  const SketchStore store = make_store();
  SketchId victim = 0;
  while (store.member_count(victim) < 2) ++victim;
  std::string data = save_bytes(store);
  const auto vertices_at = static_cast<std::size_t>(
      load_at<std::uint64_t>(data, kTableAt + 2 * kEntryBytes + 8));
  const auto offsets_at = static_cast<std::size_t>(
      load_at<std::uint64_t>(data, kTableAt + 1 * kEntryBytes + 8));
  const auto first = static_cast<std::size_t>(
      load_at<std::uint64_t>(data, offsets_at + 8 * victim));
  const std::size_t member_at = vertices_at + first * sizeof(VertexId);
  store_at(data, member_at + sizeof(VertexId),
           load_at<VertexId>(data, member_at));
  std::stringstream ss(restamp_crcs(data));
  try {
    SketchStore::load(ss);
    FAIL() << "accepted a sketch with a duplicate member";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("strictly ascending"),
              std::string::npos)
        << e.what();
  }
}

TEST(SketchSnapshot, CorruptedStructureThrows) {
  // CRCs re-stamped after the corruption, so nothing but the structural
  // validator stands between it and a served store. num_vertices (u32)
  // opens the meta section (table entry 0); zeroing it makes the store
  // structurally inconsistent.
  std::string data = save_bytes(make_store());
  const auto meta_at =
      static_cast<std::size_t>(load_at<std::uint64_t>(data, kTableAt + 8));
  store_at(data, meta_at, VertexId{0});
  data = restamp_crcs(std::move(data));
  const std::string path =
      ::testing::TempDir() + "/eimm_store_zero_vertices.sks";
  write_file(path, data);
  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kMap, SnapshotLoadMode::kStream}) {
    SnapshotLoadOptions options;
    options.mode = mode;
    try {
      SketchStore::load_file(path, options);
      FAIL() << "accepted in mode " << static_cast<int>(mode);
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("zero-vertex"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SketchSnapshot, NonSeekableStreamRoundTrips) {
  // Without a size to check against, the stream loader grows its image
  // chunk by chunk; the result must match the seekable load exactly.
  const SketchStore store = make_store();
  SnapshotSaveOptions compress;
  compress.compress = true;
  for (const std::string& bytes :
       {save_bytes(store), save_bytes(store, compress)}) {
    PipeBuf pipe(bytes);
    std::istream is(&pipe);
    const SketchStore loaded = SketchStore::load(is);
    EXPECT_EQ(pipe.served(), bytes.size());
    EXPECT_FALSE(loaded.load_stats().mmap_backed);
    EXPECT_GT(loaded.load_stats().bytes_copied, 0u);
    EXPECT_TRUE(store == loaded);
  }
}

TEST(SketchSnapshot, LyingFileSizeOnNonSeekableStreamThrowsWithoutAllocating) {
  // A header claiming 2^62 bytes in front of a real snapshot: the loader
  // must run out of stream and report truncation. Allocating the
  // declared size would instead surface as std::bad_alloc (or an ASan
  // abort), which is not a CheckError.
  std::string data = save_bytes(make_store());
  store_at(data, kFileBytesAt, std::uint64_t{1} << 62);
  PipeBuf pipe(data);
  std::istream is(&pipe);
  try {
    SketchStore::load(is);
    FAIL() << "accepted a snapshot shorter than its declared size";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(pipe.served(), data.size());

  // A trailing-bytes lie the other way (declared size shorter than the
  // data) cannot be seen without a size, but the section table still
  // rejects a size its sections overrun.
  std::string shrunk = save_bytes(make_store());
  store_at(shrunk, kFileBytesAt,
           load_at<std::uint64_t>(shrunk, kFileBytesAt) - 8);
  PipeBuf short_pipe(shrunk);
  std::istream short_is(&short_pipe);
  EXPECT_THROW(SketchStore::load(short_is), bin::FormatError);
}

TEST(SketchSnapshot, SaveToFullDeviceThrows) {
  // /dev/full accepts the open and buffered writes, then fails every
  // flush with ENOSPC: the save must throw, not report a written file.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const SketchStore store = make_store();
  EXPECT_THROW(store.save_file("/dev/full"), CheckError);
  SnapshotSaveOptions compress;
  compress.compress = true;
  EXPECT_THROW(store.save_file("/dev/full", compress), CheckError);
}

}  // namespace
}  // namespace eimm
