// Byte-level helpers shared by the snapshot tests: file I/O, little-
// endian field access, and CRC re-stamping for corruption tests.
//
// Header layout (all little-endian): magic[8], u32 version, u32
// section_count, u64 file_bytes, then section_count entries of
// {u32 id, u32 crc, u64 offset, u64 bytes}.
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "serve/sketch_store.hpp"
#include "support/crc32c.hpp"

namespace eimm::snapshot_image {

constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kSectionCountAt = 12;
constexpr std::size_t kFileBytesAt = 16;
constexpr std::size_t kTableAt = 24;
constexpr std::size_t kEntryBytes = 24;

inline std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

inline void write_file(const std::string& path, const std::string& data) {
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

inline std::string save_bytes(const SketchStore& store,
                              SnapshotSaveOptions options = {}) {
  std::ostringstream os;
  store.save(os, options);
  return os.str();
}

/// Re-stamps each section's CRC32C after a test has corrupted section
/// bytes, so the corruption gets past the checksums to the structural
/// and payload validators. A section whose table entry points outside
/// the image keeps its old CRC (the table check rejects it anyway).
inline std::string restamp_crcs(std::string image) {
  const auto sections = load_at<std::uint32_t>(image, kSectionCountAt);
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::size_t entry = kTableAt + s * kEntryBytes;
    if (entry + kEntryBytes > image.size()) break;
    const auto offset = load_at<std::uint64_t>(image, entry + 8);
    const auto bytes = load_at<std::uint64_t>(image, entry + 16);
    if (offset > image.size() || bytes > image.size() - offset) continue;
    store_at(image, entry + 4,
             crc32c(image.data() + offset, static_cast<std::size_t>(bytes)));
  }
  return image;
}

}  // namespace eimm::snapshot_image
