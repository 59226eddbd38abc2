#include "rrr/gap_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/macros.hpp"
#include "support/rng.hpp"

namespace eimm {
namespace {

std::vector<std::uint8_t> encode(std::span<const VertexId> sorted) {
  std::vector<std::uint8_t> out;
  const std::size_t appended = append_gap_stream(out, sorted);
  EXPECT_EQ(appended, out.size());
  EXPECT_EQ(appended, gap_stream_bytes(sorted));
  return out;
}

GapRun run_of(const std::vector<std::uint8_t>& bytes, std::uint32_t count) {
  return GapRun{bytes.data(), bytes.size(), count};
}

TEST(GapCodec, VarintRoundTripBoundaries) {
  std::vector<std::uint8_t> bytes;
  const std::vector<std::uint64_t> values{
      0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, 0xFFFFFFFFull,
      0xFFFFFFFFFFFFFFFFull};
  for (const std::uint64_t v : values) write_varint(bytes, v);
  std::size_t pos = 0;
  for (const std::uint64_t v : values) {
    EXPECT_EQ(read_varint(bytes, pos), v);
  }
  EXPECT_EQ(pos, bytes.size());
}

TEST(GapCodec, VarintBytesMatchesWriter) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{0x7F}, std::uint64_t{0x80},
        std::uint64_t{1} << 21, std::uint64_t{1} << 63}) {
    std::vector<std::uint8_t> bytes;
    write_varint(bytes, v);
    EXPECT_EQ(bytes.size(), varint_bytes(v)) << v;
  }
}

TEST(GapCodec, TruncatedVarintThrowsWithOffset) {
  std::vector<std::uint8_t> bytes;
  write_varint(bytes, 0x4000);  // three bytes
  bytes.pop_back();
  std::size_t pos = 0;
  try {
    read_varint(bytes, pos);
    FAIL() << "truncated varint must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated varint"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
  }
}

TEST(GapCodec, EmptyStreamThrowsNotReadsOutOfBounds) {
  std::size_t pos = 0;
  EXPECT_THROW(read_varint({}, pos), CheckError);
}

TEST(GapCodec, OverlongContinuationChainThrows) {
  // Eleven continuation bytes: the shift would pass 63 bits.
  std::vector<std::uint8_t> bytes(11, 0xFF);
  std::size_t pos = 0;
  try {
    read_varint(bytes, pos);
    FAIL() << "overlong varint must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("wider than 64 bits"),
              std::string::npos);
  }
  // A run whose head is that varint fails the same way.
  EXPECT_THROW((void)run_of(bytes, 1).decode(), CheckError);
}

TEST(GapCodec, EmptyRun) {
  const std::vector<std::uint8_t> bytes = encode({});
  EXPECT_TRUE(bytes.empty());
  const GapRun run = run_of(bytes, 0);
  EXPECT_TRUE(run.decode().empty());
  EXPECT_FALSE(run.contains(0));
}

TEST(GapCodec, SingleMember) {
  const std::vector<VertexId> members{42};
  const std::vector<std::uint8_t> bytes = encode(members);
  const GapRun run = run_of(bytes, 1);
  EXPECT_EQ(run.decode(), members);
  EXPECT_TRUE(run.contains(42));
  EXPECT_FALSE(run.contains(41));
}

TEST(GapCodec, VertexZeroHeadIsStrictlyPositive) {
  // Vertex 0 encodes as head varint 1, keeping zero a corruption marker.
  const std::vector<VertexId> members{0, 1, 2};
  const std::vector<std::uint8_t> bytes = encode(members);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes[0], 1u);
  EXPECT_EQ(run_of(bytes, 3).decode(), members);
}

TEST(GapCodec, MaxVertexIdRoundTrips) {
  const VertexId big = kInvalidVertex - 1;
  const std::vector<VertexId> members{0, big};
  const std::vector<std::uint8_t> bytes = encode(members);
  const GapRun run = run_of(bytes, 2);
  EXPECT_EQ(run.decode(), members);
  EXPECT_TRUE(run.contains(big));
}

TEST(GapCodec, AdjacentIdsEncodeOneByteGaps) {
  std::vector<VertexId> members;
  for (VertexId v = 500; v < 600; ++v) members.push_back(v);
  const std::vector<std::uint8_t> bytes = encode(members);
  // Head (500+1 -> two bytes) plus 99 one-byte unit gaps.
  EXPECT_EQ(bytes.size(), 2u + 99u);
  EXPECT_EQ(run_of(bytes, 100).decode(), members);
}

TEST(GapCodec, RandomRoundTripAgainstReference) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<VertexId> members;
    const std::size_t count = rng.next_bounded(400);
    for (std::size_t i = 0; i < count; ++i) {
      members.push_back(static_cast<VertexId>(rng.next_bounded(1u << 26)));
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
    const std::vector<std::uint8_t> bytes = encode(members);
    const GapRun run = run_of(bytes, static_cast<std::uint32_t>(
                                         members.size()));
    EXPECT_EQ(run.decode(), members) << "trial " << trial;
    std::vector<VertexId> seen;
    run.for_each([&](VertexId v) { seen.push_back(v); });
    EXPECT_EQ(seen, members) << "trial " << trial;
    for (const VertexId v : members) {
      EXPECT_TRUE(run.contains(v)) << "trial " << trial << " v=" << v;
    }
    for (int probe = 0; probe < 50; ++probe) {
      const auto v = static_cast<VertexId>(rng.next_bounded(1u << 26));
      EXPECT_EQ(run.contains(v),
                std::binary_search(members.begin(), members.end(), v))
          << "trial " << trial << " v=" << v;
    }
  }
}

TEST(GapCodec, ContainsEarlyExitsOnSortedStream) {
  const std::vector<VertexId> members{10, 20, 30};
  const std::vector<std::uint8_t> bytes = encode(members);
  const GapRun run = run_of(bytes, 3);
  for (const VertexId v : members) EXPECT_TRUE(run.contains(v));
  EXPECT_FALSE(run.contains(5));
  EXPECT_FALSE(run.contains(25));
  EXPECT_FALSE(run.contains(31));
}

TEST(GapCodec, TruncatedRunThrowsInsteadOfOverreading) {
  std::vector<VertexId> members;
  for (VertexId v = 0; v < 50; ++v) members.push_back(v * 1000);
  std::vector<std::uint8_t> bytes = encode(members);
  bytes.resize(bytes.size() / 2);
  const GapRun run = run_of(bytes, 50);
  EXPECT_THROW((void)run.decode(), CheckError);
  EXPECT_THROW(run.for_each([](VertexId) {}), CheckError);
  EXPECT_THROW((void)run.contains(kInvalidVertex - 1), CheckError);
}

TEST(GapCodec, UndercountedRunThrows) {
  // A run claiming more members than its payload encodes must hit the
  // truncation guard, not read past the buffer.
  const std::vector<VertexId> members{1, 2};
  const std::vector<std::uint8_t> bytes = encode(members);
  const GapRun run = run_of(bytes, 5);
  EXPECT_THROW((void)run.decode(), CheckError);
  EXPECT_THROW((void)run.contains(kInvalidVertex - 1), CheckError);
}


// The member-set view of a gap run: encode an unsorted member list, then
// answer size/contains/decode/for_each through GapRun, as a compressed
// pool slot does.
struct CodedSet {
  std::vector<std::uint8_t> bytes;
  std::uint32_t count = 0;

  [[nodiscard]] GapRun run() const { return run_of(bytes, count); }
};

CodedSet code_set(std::vector<VertexId> members) {
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  return CodedSet{encode(members), static_cast<std::uint32_t>(members.size())};
}

TEST(CompressedSet, EmptySet) {
  const CodedSet set = code_set({});
  EXPECT_EQ(set.count, 0u);
  EXPECT_TRUE(set.bytes.empty());
  EXPECT_FALSE(set.run().contains(0));
  EXPECT_TRUE(set.run().decode().empty());
}

TEST(CompressedSet, SingleElement) {
  const CodedSet set = code_set({42});
  EXPECT_EQ(set.count, 1u);
  EXPECT_TRUE(set.run().contains(42));
  EXPECT_FALSE(set.run().contains(41));
  EXPECT_FALSE(set.run().contains(43));
}

TEST(CompressedSet, ElementZero) {
  const CodedSet set = code_set({0, 5});
  EXPECT_TRUE(set.run().contains(0));
  EXPECT_TRUE(set.run().contains(5));
  EXPECT_EQ(set.run().decode(), (std::vector<VertexId>{0, 5}));
}

TEST(CompressedSet, RoundTripRandomSets) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<VertexId> members;
    const std::size_t count = 1 + rng.next_bounded(500);
    for (std::size_t i = 0; i < count; ++i) {
      members.push_back(static_cast<VertexId>(rng.next_bounded(1u << 24)));
    }
    const CodedSet set = code_set(members);
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    EXPECT_EQ(set.count, members.size()) << "trial " << trial;
    EXPECT_EQ(set.run().decode(), members) << "trial " << trial;
  }
}

TEST(CompressedSet, ContainsAgreesWithDecode) {
  Xoshiro256 rng(13);
  std::vector<VertexId> members;
  for (int i = 0; i < 200; ++i) {
    members.push_back(static_cast<VertexId>(rng.next_bounded(10'000)));
  }
  const CodedSet set = code_set(members);
  const auto decoded = set.run().decode();
  for (VertexId v = 0; v < 10'000; v += 7) {
    const bool expected =
        std::binary_search(decoded.begin(), decoded.end(), v);
    EXPECT_EQ(set.run().contains(v), expected) << v;
  }
}

TEST(CompressedSet, ForEachAscending) {
  const CodedSet set = code_set({100, 5, 2000, 64, 65});
  std::vector<VertexId> seen;
  set.run().for_each([&](VertexId v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<VertexId>{5, 64, 65, 100, 2000}));
}

TEST(CompressedSet, LargeVertexIds) {
  const VertexId big = kInvalidVertex - 1;
  const CodedSet set = code_set({big, 0});
  EXPECT_TRUE(set.run().contains(big));
  EXPECT_TRUE(set.run().contains(0));
  EXPECT_EQ(set.run().decode(), (std::vector<VertexId>{0, big}));
}

TEST(CompressedSet, DenseRunsCompressWell) {
  // Consecutive ids: every gap is 1 -> one byte each (plus the head).
  std::vector<VertexId> run;
  for (VertexId v = 1000; v < 2000; ++v) run.push_back(v);
  const CodedSet set = code_set(run);
  EXPECT_LE(set.bytes.size(), 1024u + 16u);
  // Versus 4 bytes/entry for the plain vector representation.
  EXPECT_LT(set.bytes.size(), run.size() * sizeof(VertexId) / 3);
}

TEST(CompressedSet, FromEncodedRoundTrips) {
  std::vector<std::uint8_t> bytes;
  append_gap_stream(bytes, std::vector<VertexId>{3, 8, 8000});
  EXPECT_EQ(run_of(bytes, 3).decode(), (std::vector<VertexId>{3, 8, 8000}));
}

TEST(CompressedSet, FromEncodedTruncatedPayloadThrows) {
  std::vector<std::uint8_t> bytes;
  append_gap_stream(bytes, std::vector<VertexId>{100, 50'000, 9'000'000});
  bytes.pop_back();
  const GapRun run = run_of(bytes, 3);
  EXPECT_THROW((void)run.decode(), CheckError);
  EXPECT_THROW((void)run.contains(9'000'000), CheckError);
}

TEST(CompressedSet, FromEncodedOverlongVarintThrows) {
  // 11 continuation bytes: wider than any 64-bit value can need.
  const std::vector<std::uint8_t> bytes(11, 0xFF);
  EXPECT_THROW((void)run_of(bytes, 1).decode(), CheckError);
}

}  // namespace
}  // namespace eimm
