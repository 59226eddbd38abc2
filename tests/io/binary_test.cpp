#include "io/binary.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <filesystem>
#include <sstream>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "support/macros.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

void expect_equal_graphs(const CSRGraph& a, const CSRGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.offsets(), b.offsets());
  EXPECT_EQ(a.targets(), b.targets());
  EXPECT_EQ(a.raw_weights(), b.raw_weights());
}

TEST(BinaryCsr, RoundTripWeighted) {
  const CSRGraph g = build_csr({{0, 1, 0.5f}, {1, 2, 0.25f}, {2, 0, 1.0f}}, 3);
  std::stringstream ss;
  write_binary_csr(ss, g);
  const CSRGraph loaded = read_binary_csr(ss);
  expect_equal_graphs(g, loaded);
  EXPECT_TRUE(loaded.has_weights());
}

TEST(BinaryCsr, RoundTripUnweighted) {
  const CSRGraph g({0, 1, 2}, {1, 0});
  std::stringstream ss;
  write_binary_csr(ss, g);
  const CSRGraph loaded = read_binary_csr(ss);
  expect_equal_graphs(g, loaded);
  EXPECT_FALSE(loaded.has_weights());
}

TEST(BinaryCsr, RoundTripLargerRandomGraph) {
  const CSRGraph g = build_csr(gen_erdos_renyi(500, 4000, 9), 500);
  std::stringstream ss;
  write_binary_csr(ss, g);
  expect_equal_graphs(g, read_binary_csr(ss));
}

TEST(BinaryCsr, BadMagicThrows) {
  std::stringstream ss("definitely not a graph file");
  EXPECT_THROW(read_binary_csr(ss), CheckError);
}

TEST(BinaryCsr, TruncatedPayloadThrows) {
  const CSRGraph g = build_csr({{0, 1}}, 2);
  std::stringstream ss;
  write_binary_csr(ss, g);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(read_binary_csr(truncated), CheckError);
}

TEST(BinaryCsr, EmptyStreamThrows) {
  std::stringstream ss;
  EXPECT_THROW(read_binary_csr(ss), CheckError);
}

TEST(BinaryCsr, FileRoundTrip) {
  const CSRGraph g = build_csr({{0, 2, 0.1f}, {1, 2, 0.9f}}, 3);
  const std::string path =
      ::testing::TempDir() + "/eimm_binary_roundtrip.bin";
  write_binary_csr_file(path, g);
  expect_equal_graphs(g, read_binary_csr_file(path));
}

TEST(BinaryCsr, FileWriteToFullDeviceThrows) {
  // /dev/full accepts the open and buffered writes, then fails the flush
  // with ENOSPC. A 3-vertex graph fits in the stream buffer, so only a
  // check after close sees the failure.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const CSRGraph g = build_csr({{0, 1}, {1, 2}}, 3);
  EXPECT_THROW(write_binary_csr_file("/dev/full", g), CheckError);
}

TEST(BinaryCsr, MissingFileThrows) {
  EXPECT_THROW(read_binary_csr_file("/nonexistent/graph.bin"), CheckError);
}

TEST(BinaryCsr, WrongVersionThrows) {
  const CSRGraph g = build_csr({{0, 1}}, 2);
  std::stringstream ss;
  write_binary_csr(ss, g);
  std::string data = ss.str();
  data[8] = 42;  // version u32 lives right after the 8-byte magic
  std::stringstream patched(data);
  EXPECT_THROW(read_binary_csr(patched), CheckError);
}

// --- the shared eimm::bin primitives the snapshot formats build on ---

TEST(BinaryPrimitives, PodAndVecAndStringRoundTrip) {
  std::stringstream ss;
  bin::write_pod(ss, std::uint64_t{0xDEADBEEFCAFEBABEull});
  bin::write_vec(ss, std::vector<std::uint32_t>{1, 2, 3});
  bin::write_string(ss, "sketch-store");
  bin::write_vec(ss, std::vector<double>{});

  std::uint64_t pod = 0;
  bin::read_pod(ss, pod);
  EXPECT_EQ(pod, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(bin::read_vec<std::uint32_t>(ss),
            (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(bin::read_string(ss), "sketch-store");
  EXPECT_TRUE(bin::read_vec<double>(ss).empty());
}

TEST(BinaryPrimitives, HeaderRoundTripAndMismatch) {
  std::stringstream ss;
  bin::write_header(ss, "EIMMTST", 3);
  EXPECT_NO_THROW(bin::read_header(ss, "EIMMTST", 3, "test format"));

  std::stringstream wrong_magic;
  bin::write_header(wrong_magic, "EIMMTST", 3);
  EXPECT_THROW(bin::read_header(wrong_magic, "EIMMXXX", 3, "test format"),
               bin::FormatError);

  std::stringstream wrong_version;
  bin::write_header(wrong_version, "EIMMTST", 2);
  try {
    bin::read_header(wrong_version, "EIMMTST", 3, "test format");
    FAIL() << "expected FormatError";
  } catch (const bin::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos);
  }
}

TEST(BinaryPrimitives, TruncatedReadsThrowWithTheFormatName) {
  std::stringstream ss;
  bin::write_pod(ss, std::uint16_t{7});
  std::uint64_t too_wide = 0;
  try {
    bin::read_pod(ss, too_wide, "unit-test format");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unit-test format"),
              std::string::npos);
  }

  std::stringstream vec_stream;
  bin::write_vec(vec_stream, std::vector<std::uint64_t>{1, 2, 3, 4});
  std::string cut = vec_stream.str();
  cut.resize(cut.size() - 5);
  std::stringstream truncated(cut);
  EXPECT_THROW(bin::read_vec<std::uint64_t>(truncated), CheckError);

  std::stringstream empty;
  EXPECT_THROW(bin::read_string(empty), CheckError);
}

TEST(BinaryPrimitives, FormatErrorCarriesSectionAndOffset) {
  // Typed errors let loaders report WHERE a snapshot went bad; the
  // section name and byte offset must survive to the catch site.
  std::stringstream ss;
  bin::write_pod(ss, std::uint32_t{1});
  std::uint32_t a = 0;
  bin::read_pod(ss, a, "meta section");
  std::uint64_t b = 0;
  try {
    bin::read_pod(ss, b, "meta section");
    FAIL() << "expected FormatError";
  } catch (const bin::FormatError& e) {
    EXPECT_EQ(e.section(), "meta section");
    ASSERT_TRUE(e.offset().has_value());
    // The failing read began right after the 4 bytes already consumed.
    EXPECT_EQ(*e.offset(), 4u);
    EXPECT_NE(std::string(e.what()).find("meta section"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("4"), std::string::npos);
  }

  std::stringstream vec_stream;
  bin::write_vec(vec_stream, std::vector<std::uint64_t>{1, 2, 3});
  std::string cut = vec_stream.str();
  cut.resize(cut.size() - 1);
  std::stringstream truncated(cut);
  try {
    (void)bin::read_vec<std::uint64_t>(truncated, "offsets section");
    FAIL() << "expected FormatError";
  } catch (const bin::FormatError& e) {
    EXPECT_EQ(e.section(), "offsets section");
    ASSERT_TRUE(e.offset().has_value());
    EXPECT_EQ(*e.offset(), 8u);  // payload begins after the u64 count
  }
}

TEST(BinaryPrimitives, CorruptedLengthPrefixThrowsInsteadOfAllocating) {
  // A flipped high byte in a length field must fail the remaining-bytes
  // sanity check, not attempt a multi-exabyte vector allocation.
  std::stringstream ss;
  bin::write_pod(ss, std::uint64_t{1} << 60);  // absurd element count
  bin::write_pod(ss, std::uint32_t{7});        // a few real payload bytes
  EXPECT_THROW(bin::read_vec<std::uint64_t>(ss), CheckError);

  std::stringstream str_stream;
  bin::write_pod(str_stream, std::uint64_t{1} << 60);
  str_stream << "short";
  EXPECT_THROW(bin::read_string(str_stream), CheckError);
}

long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(BinaryPrimitives, LyingLengthOnNonSeekableStreamAllocatesBoundedMemory) {
  // A pipe cannot report its size, so the declared length cannot be
  // checked up front. 2^26 u64 (512 MiB) declared in front of 16 real
  // bytes must fail as truncated after allocating about what arrived,
  // not value-initialise the declared length first.
  std::stringstream ss;
  bin::write_pod(ss, std::uint64_t{1} << 26);
  bin::write_pod(ss, std::uint64_t{7});
  bin::write_pod(ss, std::uint64_t{9});
  testing::PipeBuf pipe(ss.str());
  std::istream is(&pipe);
  const long before = peak_rss_kib();
  try {
    (void)bin::read_vec<std::uint64_t>(is, "test payload");
    FAIL() << "accepted a payload shorter than its declared length";
  } catch (const bin::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(peak_rss_kib() - before, 64L * 1024) << "KiB of peak RSS growth";
  EXPECT_EQ(pipe.served(), 24u);
}

TEST(BinaryPrimitives, NonSeekableStreamRoundTripsAcrossGrowthSteps) {
  // Payloads larger than the first growth step come back intact.
  std::vector<std::uint32_t> values(100000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  const std::string text(70000, 'x');
  std::stringstream ss;
  bin::write_vec(ss, values);
  bin::write_string(ss, text);
  testing::PipeBuf pipe(ss.str());
  std::istream is(&pipe);
  EXPECT_EQ(bin::read_vec<std::uint32_t>(is), values);
  EXPECT_EQ(bin::read_string(is), text);
}

}  // namespace
}  // namespace eimm
