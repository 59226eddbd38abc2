// Byte-level helpers shared by the snapshot tests: file I/O, little-
// endian field access, and the legacy images save() no longer writes.
//
// Header layout (all little-endian): magic[8], u32 version, u32
// section_count, u64 file_bytes, then section_count entries of
// {u32 id, u32 crc, u64 offset, u64 bytes}. A v2 (raw) or v3
// (compressed) image is the v4 image of the same layout with the
// version word rewritten and every crc slot zeroed — the retired v2/v3
// writer differed from the v4 one in nothing else. A v1 image is the
// length-prefixed stream written with the bin primitives.
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/binary.hpp"
#include "serve/sketch_store.hpp"
#include "support/macros.hpp"

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

/// The v2 (7 sections) or v3 (8 sections) image equivalent to a v4 one.
inline std::string legacy_image(std::string v4, std::uint32_t version) {
  const auto sections = load_at<std::uint32_t>(v4, kSectionCountAt);
  EIMM_CHECK(load_at<std::uint32_t>(v4, kVersionAt) == 4,
             "legacy_image expects a v4 image");
  EIMM_CHECK((version == 2 && sections == 7) || (version == 3 && sections == 8),
             "v2 is the raw layout and v3 the compressed one");
  store_at(v4, kVersionAt, version);
  for (std::uint32_t s = 0; s < sections; ++s) {
    store_at(v4, kTableAt + s * kEntryBytes + 4, std::uint32_t{0});
  }
  return v4;
}

/// The v1 image of a store: meta fields, then the sketch offsets and
/// members as length-prefixed arrays (the derived state is not stored).
inline std::string v1_image(const SketchStore& store) {
  std::vector<std::uint64_t> offsets = {0};
  std::vector<VertexId> members;
  for (std::uint64_t s = 0; s < store.num_sketches(); ++s) {
    store.for_each_member(static_cast<SketchId>(s),
                          [&](VertexId v) { members.push_back(v); });
    offsets.push_back(members.size());
  }
  const SketchStoreMeta& meta = store.meta();
  std::ostringstream os;
  bin::write_header(os, "EIMMSKS", 1);
  bin::write_pod(os, store.num_vertices());
  bin::write_pod(os, store.num_sketches());
  bin::write_pod(os, static_cast<std::uint64_t>(store.k_max()));
  bin::write_string(os, meta.workload);
  bin::write_string(os, meta.model);
  bin::write_pod(os, meta.rng_seed);
  bin::write_pod(os, meta.epsilon);
  bin::write_pod(os, meta.theta);
  bin::write_pod(os, static_cast<std::uint8_t>(meta.theta_capped ? 1 : 0));
  bin::write_vec(os, offsets);
  bin::write_vec(os, members);
  return os.str();
}

}  // namespace eimm::snapshot_image
