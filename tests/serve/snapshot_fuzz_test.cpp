// Bit-flip fuzz sweep over snapshot sections, for both v4 layouts (raw
// and compressed). As saved, the per-section CRC32C must catch every
// single-bit payload flip, on the stream loader and the deep-validated
// mmap loader alike. With the CRCs re-stamped after the flip, the
// structural and payload validators are all that stand between the flip
// and a served store: each flip must then surface as a typed
// CheckError/FormatError or load as a well-formed store — never crash,
// never UB.
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
  bool restamp;  // re-stamp the section CRCs after each flip
};

TEST(SnapshotFuzz, SingleBitSectionFlipsNeverCrashAndV4AlwaysRejects) {
  const SketchStore store = make_small_store();
  const std::string path = ::testing::TempDir() + "/eimm_fuzz_victim.sks";

  SnapshotSaveOptions compress;
  compress.compress = true;
  const std::string v4_raw = save_bytes(store);
  const std::string v4_compressed = save_bytes(store, compress);
  const Variant variants[] = {
      {"v4-raw", v4_raw, false},
      {"v4-compressed", v4_compressed, false},
      {"v4-raw-restamped", v4_raw, true},
      {"v4-compressed-restamped", v4_compressed, true},
  };

  for (const Variant& variant : variants) {
    const std::string& clean = variant.clean;
    const std::vector<Section> sections = parse_sections(clean);
    ASSERT_GE(sections.size(), 7u) << variant.label;

    // The clean bytes must load everywhere before we start flipping.
    write_file(path, clean);
    ASSERT_EQ(try_load(path, SnapshotLoadMode::kStream, false),
              Outcome::kLoaded)
        << variant.label;
    ASSERT_EQ(try_load(path, SnapshotLoadMode::kMap, true), Outcome::kLoaded)
        << variant.label;

    std::size_t rejected = 0;
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
        if (variant.restamp) corrupt = restamp_crcs(std::move(corrupt));
        write_file(path, corrupt);

        const Outcome streamed =
            try_load(path, SnapshotLoadMode::kStream, false);
        const Outcome mapped = try_load(path, SnapshotLoadMode::kMap, true);
        rejected += (streamed == Outcome::kRejected ? 1 : 0) +
                    (mapped == Outcome::kRejected ? 1 : 0);
        if (!variant.restamp) {
          // As saved: the section CRC must catch every payload flip.
          EXPECT_EQ(streamed, Outcome::kRejected)
              << variant.label << " section " << s << " byte " << at
              << " bit " << bit << " (stream)";
          EXPECT_EQ(mapped, Outcome::kRejected)
              << variant.label << " section " << s << " byte " << at
              << " bit " << bit << " (mmap)";
        }
        // Re-stamped, reaching this point at all is the assertion: the
        // flip either loaded as a well-formed store or was rejected with
        // a typed error — no crash, no escape.
      }
    }
    // Some flips must fail; in a re-stamped variant that shows the
    // validators, not the CRCs, are being reached.
    EXPECT_GT(rejected, 0u) << variant.label;
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
