// Snapshot round-trip and io/binary error-path coverage for the
// sketch-store format: a snapshot built once must be loadable by another
// process bit-for-bit, and every malformed input must fail with a clear
// CheckError instead of UB (the suite runs under the asan preset in CI).
#include <gtest/gtest.h>

#include <fstream>
#include <istream>
#include <sstream>
#include <streambuf>

#include "io/binary.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "serve/snapshot_image.hpp"
#include "support/macros.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

using namespace snapshot_image;

/// Serves fixed bytes through a streambuf that cannot seek (the base
/// class's seekoff/seekpos fail), so it cannot report its size either —
/// a pipe, as far as the loader can tell.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }
  [[nodiscard]] std::size_t served() const {
    return static_cast<std::size_t>(gptr() - eback());
  }

 private:
  std::string data_;
};

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
  const SketchStore store = make_store();
  std::stringstream ss;
  store.save(ss);
  std::string data = ss.str();
  data[8] = 99;  // version u32 lives right after the 8-byte magic
  std::stringstream patched(data);
  try {
    SketchStore::load(patched);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
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
  // A hand-crafted snapshot whose single sketch lists vertex 1 twice:
  // offsets and ranges all validate, but the duplicate would double-count
  // coverage — load must reject the non-ascending run.
  std::stringstream ss;
  bin::write_header(ss, "EIMMSKS", 1);
  bin::write_pod(ss, VertexId{2});
  bin::write_pod(ss, std::uint64_t{1});  // num_sketches
  bin::write_pod(ss, std::uint64_t{1});  // k_max
  bin::write_string(ss, "crafted");
  bin::write_string(ss, "IC");
  bin::write_pod(ss, std::uint64_t{0});  // rng_seed
  bin::write_pod(ss, double{0.5});       // epsilon
  bin::write_pod(ss, std::uint64_t{1});  // theta
  bin::write_pod(ss, std::uint8_t{0});   // theta_capped
  bin::write_vec(ss, std::vector<std::uint64_t>{0, 2});
  bin::write_vec(ss, std::vector<VertexId>{1, 1});
  EXPECT_THROW(SketchStore::load(ss), CheckError);
}

TEST(SketchSnapshot, CorruptedStructureThrows) {
  // An unchecksummed v2 image, so nothing but the structural validator
  // stands between the corruption and a served store. num_vertices (u32)
  // opens the meta section (table entry 0); zeroing it makes the store
  // structurally inconsistent.
  std::string data = legacy_image(save_bytes(make_store()), 2);
  const auto meta_at =
      static_cast<std::size_t>(load_at<std::uint64_t>(data, kTableAt + 8));
  store_at(data, meta_at, VertexId{0});
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

TEST(SketchSnapshot, V1VertexCountBeyondItsReachIsRejected) {
  // A hand-written v1 file with one sketch {0}. v1 has no per-vertex
  // array, so only the loader's cap keeps these ~110 bytes from sizing
  // the rebuilt index for 2^24 vertices (~390 MiB).
  const auto v1_file = [](VertexId num_vertices) {
    std::ostringstream os;
    bin::write_header(os, "EIMMSKS", 1);
    bin::write_pod(os, num_vertices);
    bin::write_pod(os, std::uint64_t{1});  // num_sketches
    bin::write_pod(os, std::uint64_t{1});  // k_max
    bin::write_string(os, "tiny");
    bin::write_string(os, "LT");
    bin::write_pod(os, std::uint64_t{7});  // rng_seed
    bin::write_pod(os, 0.5);               // epsilon
    bin::write_pod(os, std::uint64_t{1});  // theta
    bin::write_pod(os, std::uint8_t{0});   // theta_capped
    bin::write_vec(os, std::vector<std::uint64_t>{0, 1});
    bin::write_vec(os, std::vector<VertexId>{0});
    return os.str();
  };
  for (const VertexId n : {VertexId{1} << 24, (VertexId{1} << 20) + 1,
                           ~VertexId{0}}) {
    std::istringstream is(v1_file(n));
    try {
      SketchStore::load(is);
      FAIL() << "loaded a v1 file declaring " << n << " vertices";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("more vertices"),
                std::string::npos)
          << e.what();
    }
  }
  // The floor itself, and a small count, still load.
  for (const VertexId n : {VertexId{1} << 20, VertexId{2}}) {
    std::istringstream is(v1_file(n));
    const SketchStore loaded = SketchStore::load(is);
    EXPECT_EQ(loaded.num_vertices(), n);
    EXPECT_EQ(loaded.num_sketches(), 1u);
  }
}

TEST(SketchSnapshot, NonSeekableStreamRoundTrips) {
  // Without a size to check against, the stream loader grows its image
  // chunk by chunk; the result must match the seekable load exactly.
  const SketchStore store = make_store();
  SnapshotSaveOptions compress;
  compress.compress = true;
  for (const std::string& bytes :
       {save_bytes(store), save_bytes(store, compress),
        legacy_image(save_bytes(store), 2), v1_image(store)}) {
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

}  // namespace
}  // namespace eimm
