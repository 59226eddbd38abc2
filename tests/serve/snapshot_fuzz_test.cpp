// Bit-flip fuzz sweep over snapshot sections. For every format the
// repo can load (v1, v2 raw, v3 compressed, v4 raw, v4 compressed) and
// every loader it supports, a single flipped bit inside any section must
// surface as a typed CheckError/FormatError or load as a well-formed
// store — never crash, never UB. For v4 the bar is higher: the
// per-section CRC32C must catch every single-bit payload flip, on the
// stream loader and the eager mmap loader alike.
#include <gtest/gtest.h>

#include <cstdint>
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

struct Section {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

SketchStore make_small_store() {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options;
  options.k = 4;
  options.max_rrr_sets = 512;  // keep the sweep's per-flip load cheap
  return SketchStore::build(g, options, "amazon-fuzz");
}

std::vector<Section> parse_sections(const std::string& data) {
  const auto count = load_at<std::uint32_t>(data, kSectionCountAt);
  std::vector<Section> sections(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    const std::size_t entry = kTableAt + s * kEntryBytes;
    sections[s].offset = load_at<std::uint64_t>(data, entry + 8);
    sections[s].bytes = load_at<std::uint64_t>(data, entry + 16);
  }
  return sections;
}

// v1 has no section table: walk its layout (12-byte header, meta scalars
// and two length-prefixed strings, then the length-prefixed offsets and
// members arrays) to find the same three regions.
std::vector<Section> v1_regions(const std::string& data) {
  std::uint64_t at = 12 + 4 + 8 + 8;  // num_vertices, num_sketches, k_max
  for (int i = 0; i < 2; ++i) at += 8 + load_at<std::uint64_t>(data, at);
  at += 8 + 8 + 8 + 1;  // rng_seed, epsilon, theta, theta_capped
  const std::uint64_t offsets_bytes =
      8 + 8 * load_at<std::uint64_t>(data, at);
  return {{12, at - 12},
          {at, offsets_bytes},
          {at + offsets_bytes, data.size() - at - offsets_bytes}};
}

enum class Outcome { kLoaded, kRejected };

// Attempts one load (and, when it succeeds, one query — the full
// serving path). Anything other than a clean result or a typed
// CheckError escapes and fails the test.
Outcome try_load(const std::string& path, SnapshotLoadMode mode,
                 bool deep_validate) {
  try {
    SnapshotLoadOptions options;
    options.mode = mode;
    options.deep_validate = deep_validate;
    options.checksums = ChecksumMode::kEager;
    const SketchStore store = SketchStore::load_file(path, options);
    const QueryEngine engine(store);
    (void)engine.top_k(1);
    return Outcome::kLoaded;
  } catch (const CheckError&) {
    return Outcome::kRejected;  // FormatError included — typed rejection
  }
}

struct Variant {
  const char* label;
  std::string clean;
  std::vector<Section> sections;
  bool checksummed;
  bool mappable;
};

TEST(SnapshotFuzz, SingleBitSectionFlipsNeverCrashAndV4AlwaysRejects) {
  const SketchStore store = make_small_store();
  const std::string path = ::testing::TempDir() + "/eimm_fuzz_victim.sks";

  SnapshotSaveOptions compress;
  compress.compress = true;
  const std::string v4_raw = save_bytes(store);
  const std::string v4_compressed = save_bytes(store, compress);
  const std::string v1 = v1_image(store);
  const Variant variants[] = {
      {"v1", v1, v1_regions(v1), false, false},
      {"v2-raw", legacy_image(v4_raw, 2), parse_sections(v4_raw), false,
       true},
      {"v3-compressed", legacy_image(v4_compressed, 3),
       parse_sections(v4_compressed), false, true},
      {"v4-raw", v4_raw, parse_sections(v4_raw), true, true},
      {"v4-compressed", v4_compressed, parse_sections(v4_compressed), true,
       true},
  };

  for (const Variant& variant : variants) {
    const std::string& clean = variant.clean;
    const std::vector<Section>& sections = variant.sections;
    ASSERT_GE(sections.size(), variant.mappable ? 7u : 3u) << variant.label;

    // The clean bytes must load everywhere before we start flipping.
    write_file(path, clean);
    ASSERT_EQ(try_load(path, SnapshotLoadMode::kStream, false),
              Outcome::kLoaded)
        << variant.label;
    if (variant.mappable) {
      ASSERT_EQ(try_load(path, SnapshotLoadMode::kMap, true),
                Outcome::kLoaded)
          << variant.label;
    }

    for (std::size_t s = 0; s < sections.size(); ++s) {
      const Section& section = sections[s];
      if (section.bytes == 0) continue;
      // Sample up to 8 byte positions spread across the section; rotate
      // the flipped bit with the position so low and high bits both get
      // exercised.
      const std::size_t samples =
          section.bytes < 8 ? static_cast<std::size_t>(section.bytes) : 8;
      for (std::size_t i = 0; i < samples; ++i) {
        const std::uint64_t at =
            section.offset + i * (section.bytes / samples);
        const int bit = static_cast<int>((s + i) % 8);
        std::string corrupt = clean;
        corrupt[at] = static_cast<char>(
            corrupt[at] ^ static_cast<char>(1u << bit));
        write_file(path, corrupt);

        const Outcome streamed =
            try_load(path, SnapshotLoadMode::kStream, false);
        if (!variant.mappable) continue;
        const Outcome mapped = try_load(path, SnapshotLoadMode::kMap, true);
        if (variant.checksummed) {
          // v4: the section CRC must catch every payload flip.
          EXPECT_EQ(streamed, Outcome::kRejected)
              << variant.label << " section " << s << " byte " << at
              << " bit " << bit << " (stream)";
          EXPECT_EQ(mapped, Outcome::kRejected)
              << variant.label << " section " << s << " byte " << at
              << " bit " << bit << " (mmap)";
        }
        // For v1/v2/v3 reaching this point at all is the assertion: the
        // flip either loaded as a well-formed store or was rejected
        // with a typed error — no crash, no escape.
      }
    }
  }

  // v1's num_vertices (the u32 after the 12-byte header) bounds no array
  // in the file, so the sampled flips above never reach its high bytes.
  // Every bit of its top byte declares at least 2^24 vertices, which the
  // v1 loader must refuse; flips in the lower bytes must stay typed.
  constexpr std::size_t kV1NumVerticesAt = 12;
  for (std::size_t byte = 1; byte < sizeof(VertexId); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = v1;
      const std::size_t at = kV1NumVerticesAt + byte;
      corrupt[at] = static_cast<char>(corrupt[at] ^ static_cast<char>(1u << bit));
      write_file(path, corrupt);
      const Outcome streamed = try_load(path, SnapshotLoadMode::kStream, false);
      if (byte == sizeof(VertexId) - 1) {
        EXPECT_EQ(streamed, Outcome::kRejected) << "v1 num_vertices bit "
                                                << 8 * byte + bit;
      }
    }
  }

  // v4 lazy mmap: the corruption must still be fenced at the serving
  // choke point (QueryEngine ctor), not just at eager load time.
  const std::vector<Section> sections = parse_sections(v4_raw);
  std::string corrupt = v4_raw;
  const std::uint64_t victim = sections[2].offset + sections[2].bytes / 2;
  corrupt[victim] = static_cast<char>(corrupt[victim] ^ 0x40);
  write_file(path, corrupt);
  SnapshotLoadOptions lazy;
  lazy.mode = SnapshotLoadMode::kMap;
  const SketchStore mapped = SketchStore::load_file(path, lazy);
  EXPECT_TRUE(mapped.checksums_pending());
  EXPECT_THROW(QueryEngine{mapped}, bin::FormatError);
}

}  // namespace
}  // namespace eimm
