#include "serve/sketch_store.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <utility>

#include "diffusion/model.hpp"
#include "io/binary.hpp"
#include "io/write_file.hpp"
#include "rrr/gap_codec.hpp"
#include "runtime/thread_info.hpp"
#include "seedselect/engine.hpp"
#include "serve/query_engine.hpp"
#include "support/crc32c.hpp"
#include "support/macros.hpp"

namespace eimm {
namespace {

constexpr std::string_view kSnapshotMagic = "EIMMSKS";
/// The one version written and read; check_prefix() rejects any other.
constexpr std::uint32_t kSnapshotVersion = 4;
constexpr const char* kSnapshotWhat = "sketch-store snapshot";

// --- on-disk layout -------------------------------------------------------
// magic(8) version(4) section_count(4) file_bytes(8), then section_count
// table entries of {u32 id, u32 crc, u64 offset, u64 bytes}, then
// the sections themselves, each starting at a kSectionAlign-aligned file
// offset (zero-padded gaps). Section offsets are absolute, so an mmap of
// the whole file serves every array in place: page alignment makes the
// typed reinterpretation valid, and the byte lengths make truncation a
// section-table error instead of a mid-array surprise.
//
// The section count picks the layout. The raw layout has 7 sections;
// the compressed one adds an eighth, and its sketch-vertices section
// holds the gap-coded payload BYTES (u8, always plain varints on disk)
// while section 8 carries the per-sketch byte offsets. Everything else —
// including the derived arrays — is identical. Each table entry's crc is
// the CRC32C of its section's payload, so loaders can prove every byte
// they are about to serve.
enum SectionId : std::uint32_t {
  kSecMeta = 1,              // bin-encoded scalars + strings
  kSecSketchOffsets = 2,     // u64[num_sketches + 1] (member counts CSR)
  kSecSketchVertices = 3,    // raw: u32[total members]; compressed: u8[]
  kSecNodeOffsets = 4,       // u64[num_vertices + 1]
  kSecNodeSketches = 5,      // u32[total members]
  kSecDefaultSeeds = 6,      // u32[default sequence length]
  kSecDefaultMarginals = 7,  // u64[default sequence length]
  kSecCompOffsets = 8,       // compressed only: u64[num_sketches + 1]
};
constexpr std::uint32_t kSectionCountRaw = 7;
constexpr std::uint32_t kSectionCountCompressed = 8;
constexpr std::uint64_t kSectionAlign = 4096;
constexpr std::uint64_t kSectionEntryBytes = 24;
constexpr std::uint64_t kVersionEnd = 12;  // magic(8) + version(4)
constexpr std::uint64_t header_bytes(std::uint32_t section_count) {
  return 8 + 4 + 4 + 8 + section_count * kSectionEntryBytes;
}

constexpr const char* section_name(std::uint32_t id) {
  switch (id) {
    case kSecMeta: return "snapshot meta";
    case kSecSketchOffsets: return "sketch offsets";
    case kSecSketchVertices: return "sketch vertices";
    case kSecNodeOffsets: return "node offsets";
    case kSecNodeSketches: return "node sketches";
    case kSecDefaultSeeds: return "default seeds";
    case kSecDefaultMarginals: return "default marginals";
    case kSecCompOffsets: return "compressed offsets";
    default: return "unknown section";
  }
}

struct SectionEntry {
  std::uint32_t id = 0;
  std::uint32_t crc = 0;  // CRC32C of the section payload
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

[[noreturn]] void fail_section(const char* reason, const char* section,
                               std::uint64_t offset) {
  throw bin::FormatError(std::string(reason) + " (section '" + section +
                             "') at byte offset " + std::to_string(offset) +
                             " of " + kSnapshotWhat,
                         section, offset);
}

/// Checks the magic and version word that open every snapshot. Any
/// version but v4 fails with one typed error that names it, whatever
/// bytes follow.
void check_prefix(std::span<const std::uint8_t> prefix) {
  if (prefix.size() < kVersionEnd) {
    bin::detail::fail_section("not a recognized", kSnapshotWhat, 0);
  }
  char expected[8] = {};
  std::memcpy(expected, kSnapshotMagic.data(), kSnapshotMagic.size());
  if (std::memcmp(prefix.data(), expected, sizeof expected) != 0) {
    bin::detail::fail_section("not a recognized", kSnapshotWhat, 0);
  }
  std::uint32_t version = 0;
  std::memcpy(&version, prefix.data() + 8, sizeof version);
  if (version != kSnapshotVersion) {
    throw bin::FormatError(
        std::string("unsupported ") + kSnapshotWhat + " version " +
            std::to_string(version) + " (only version " +
            std::to_string(kSnapshotVersion) +
            " loads); rebuild the snapshot with sketch_cli save",
        "header", 8);
  }
}

/// Validates one parsed section table: expected ids in order, aligned,
/// ascending, in-bounds, gap-only overlap-free.
void check_section_table(const std::vector<SectionEntry>& table,
                         std::uint64_t file_bytes) {
  std::uint64_t prev_end =
      header_bytes(static_cast<std::uint32_t>(table.size()));
  for (std::size_t i = 0; i < table.size(); ++i) {
    const SectionEntry& s = table[i];
    const char* name = section_name(s.id);
    if (s.id != i + 1) fail_section("unexpected section id in", name, s.offset);
    if (s.offset % kSectionAlign != 0) {
      fail_section("misaligned section in", name, s.offset);
    }
    if (s.offset < prev_end || s.offset > file_bytes ||
        s.bytes > file_bytes - s.offset) {
      fail_section("section exceeds file in", name, s.offset);
    }
    prev_end = s.offset + s.bytes;
  }
  if (prev_end != file_bytes) {
    fail_section("trailing bytes after last section in", "section table",
                 prev_end);
  }
}

/// Serializes the meta fields with the bin primitives (the meta section;
/// read_meta_fields parses it).
void write_meta_fields(std::ostream& os, VertexId num_vertices,
                       std::uint64_t num_sketches, std::uint64_t k_max,
                       const SketchStoreMeta& meta) {
  bin::write_pod(os, num_vertices);
  bin::write_pod(os, num_sketches);
  bin::write_pod(os, k_max);
  bin::write_string(os, meta.workload);
  bin::write_string(os, meta.model);
  bin::write_pod(os, meta.rng_seed);
  bin::write_pod(os, meta.epsilon);
  bin::write_pod(os, meta.theta);
  bin::write_pod(os, static_cast<std::uint8_t>(meta.theta_capped ? 1 : 0));
}

void read_meta_fields(std::istream& is, VertexId& num_vertices,
                      std::uint64_t& num_sketches, std::uint64_t& k_max,
                      SketchStoreMeta& meta) {
  const char* what = "snapshot meta";
  bin::read_pod(is, num_vertices, what);
  bin::read_pod(is, num_sketches, what);
  bin::read_pod(is, k_max, what);
  meta.workload = bin::read_string(is, what);
  meta.model = bin::read_string(is, what);
  bin::read_pod(is, meta.rng_seed, what);
  bin::read_pod(is, meta.epsilon, what);
  bin::read_pod(is, meta.theta, what);
  std::uint8_t capped = 0;
  bin::read_pod(is, capped, what);
  meta.theta_capped = capped != 0;
}

/// Types one section of a snapshot image. Alignment is guaranteed by the
/// table check (kSectionAlign-aligned offsets) plus the image base, which
/// decode_sections() requires to be 8-byte aligned (a mapping is page-
/// aligned, an owned copy comes from operator new).
template <typename T>
std::span<const T> typed_section(std::span<const std::uint8_t> image,
                                 const SectionEntry& s) {
  if (s.bytes % sizeof(T) != 0) {
    fail_section("section length not a multiple of the element size in",
                 section_name(s.id), s.offset);
  }
  return {reinterpret_cast<const T*>(image.data() + s.offset),
          static_cast<std::size_t>(s.bytes / sizeof(T))};
}

/// Reads a snapshot into an owned image of the whole file, so a stream
/// load decodes the same bytes an mmap would. The magic and version are
/// checked before anything else is read. The declared size is never
/// trusted for allocation: on a stream that cannot be measured, the
/// image grows geometrically from kImageChunk as bytes actually arrive,
/// so a header that lies about its size fails as truncated after at
/// most twice the delivered bytes, not as a huge allocation.
std::vector<std::uint8_t> read_image(std::istream& is) {
  constexpr std::uint64_t kPrefixBytes = 24;  // + section count, size
  constexpr std::uint64_t kImageChunk = std::uint64_t{1} << 16;
  std::vector<std::uint8_t> image(kPrefixBytes, 0);
  is.read(reinterpret_cast<char*>(image.data()), kVersionEnd);
  check_prefix({image.data(), static_cast<std::size_t>(is.gcount())});
  is.read(reinterpret_cast<char*>(image.data() + kVersionEnd),
          kPrefixBytes - kVersionEnd);
  if (!is.good()) {
    fail_section("truncated header in", "section table",
                 kVersionEnd + static_cast<std::uint64_t>(is.gcount()));
  }
  std::uint64_t file_bytes = 0;
  std::memcpy(&file_bytes, image.data() + 16, sizeof file_bytes);
  if (file_bytes < kPrefixBytes) {
    fail_section("implausible file size in", "section table", 16);
  }
  std::uint64_t growth_floor = kImageChunk;
  if (const auto remaining = bin::detail::remaining_bytes(is)) {
    // Seekable stream: the declared length must match reality, so a
    // truncation anywhere (even inside inter-section padding) and any
    // trailing bytes fail here, and the proven size is allocated once.
    if (*remaining + kPrefixBytes != file_bytes) {
      fail_section("truncated file in", "section table",
                   *remaining + kPrefixBytes);
    }
    growth_floor = file_bytes;
  }
  while (image.size() < file_bytes) {
    const std::uint64_t have = image.size();
    const std::uint64_t want =
        std::min(file_bytes, std::max(2 * have, growth_floor));
    image.reserve(want);  // exact: capacity tracks the bytes read
    image.resize(want);
    is.read(reinterpret_cast<char*>(image.data() + have),
            static_cast<std::streamsize>(want - have));
    if (!is.good()) {
      fail_section("truncated file in", "section table",
                   have + static_cast<std::uint64_t>(is.gcount()));
    }
  }
  return image;
}

}  // namespace

/// Checksum work of a load. The data pointers reference the snapshot
/// image, which never relocates when the store moves.
struct SketchStore::PendingChecksums {
  struct Section {
    const char* name;
    std::uint64_t offset;
    std::uint64_t bytes;
    std::uint32_t expect;
    const std::uint8_t* data;
  };
  std::once_flag once;
  std::atomic<bool> verified{false};
  std::vector<Section> sections;
};

SketchStore SketchStore::build(const DiffusionGraph& graph,
                               const ImmOptions& options,
                               std::string workload_label) {
  SketchStoreMeta meta;
  meta.workload = std::move(workload_label);
  meta.model = std::string(to_string(options.model));
  meta.rng_seed = options.rng_seed;
  meta.epsilon = options.epsilon;
  // Flattening and freezing (index build + default sequence) honour the
  // same thread cap as the sampling phase.
  ThreadCountScope thread_scope(options.threads);
  FlatPool flat;
  {
    const PoolBuild pool_build =
        build_rrr_pool(graph, options, Engine::kEfficient);
    meta.theta = pool_build.theta;
    meta.theta_capped = pool_build.theta_capped;
    flat = pool_build.view().flatten();
  }  // the build's storage is released before the index is derived
  return freeze(std::move(flat), options.k, std::move(meta));
}

SketchStore SketchStore::from_pool(RRRPoolView pool, std::size_t k_max,
                                   SketchStoreMeta meta) {
  return freeze(pool.flatten(), k_max, std::move(meta));
}

SketchStore SketchStore::freeze(FlatPool&& flat, std::size_t k_max,
                                SketchStoreMeta meta) {
  EIMM_CHECK(flat.num_vertices > 0, "cannot freeze a zero-vertex pool");
  EIMM_CHECK(k_max > 0, "build-time query cap must be positive");
  EIMM_CHECK(flat.offsets.size() - 1 < std::numeric_limits<SketchId>::max(),
             "pool too large for 32-bit sketch ids");

  SketchStore store;
  store.num_vertices_ = flat.num_vertices;
  store.num_sketches_ = flat.offsets.size() - 1;
  // Greedy selection can never return more than |V| seeds, so a cap
  // above that is meaningless — clamping keeps k_max ≤ |V| a snapshot
  // invariant load() can enforce against corrupt files.
  store.k_max_ = std::min<std::uint64_t>(k_max, flat.num_vertices);
  store.meta_ = std::move(meta);
  store.sketch_offsets_own_ = std::move(flat.offsets);
  store.sketch_vertices_own_ = std::move(flat.vertices);
  store.sketch_offsets_ = store.sketch_offsets_own_;
  store.sketch_vertices_ = store.sketch_vertices_own_;
  store.finalize();
  return store;
}

void SketchStore::finalize() {
  // Inverted index by counting sort: degree histogram → prefix sum →
  // fill in sketch order, which leaves each vertex's covering list
  // sorted by sketch id. Derived deterministically from the sketch
  // members at build time (and carried verbatim in snapshots, so a load
  // skips this entirely — the O(index) cold start).
  const VertexId n = num_vertices_;
  node_offsets_own_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (std::uint64_t s = 0; s < num_sketches_; ++s) {
    for_each_member(static_cast<SketchId>(s), [&](VertexId v) {
      ++node_offsets_own_[static_cast<std::size_t>(v) + 1];
    });
  }
  for (std::size_t v = 0; v < n; ++v) {
    node_offsets_own_[v + 1] += node_offsets_own_[v];
  }
  node_sketches_own_.resize(sketch_offsets_.back());
  std::vector<std::uint64_t> cursor(node_offsets_own_.begin(),
                                    node_offsets_own_.end() - 1);
  for (std::uint64_t s = 0; s < num_sketches_; ++s) {
    for_each_member(static_cast<SketchId>(s), [&](VertexId v) {
      node_sketches_own_[cursor[v]++] = static_cast<SketchId>(s);
    });
  }
  node_offsets_ = node_offsets_own_;
  node_sketches_ = node_sketches_own_;

  // Precompute the unconstrained greedy sequence once; top-k queries for
  // any k ≤ k_max become prefix reads. Uses the same kernel select()
  // runs, so the cached and live paths cannot drift apart.
  QueryOptions defaults;
  defaults.k = k_max_;
  QueryResult seq = select_from_store(*this, defaults);
  default_seeds_own_ = std::move(seq.seeds);
  default_marginals_own_ = std::move(seq.marginal_coverage);
  default_seeds_ = default_seeds_own_;
  default_marginals_ = default_marginals_own_;
}

std::vector<VertexId> SketchStore::assemble_payload() const {
  std::vector<VertexId> payload(sketch_offsets_.back());
#pragma omp parallel for schedule(dynamic, 64)
  for (std::uint64_t s = 0; s < num_sketches_; ++s) {
    auto out =
        payload.begin() + static_cast<std::ptrdiff_t>(sketch_offsets_[s]);
    for_each_member(static_cast<SketchId>(s), [&](VertexId v) { *out++ = v; });
  }
  return payload;
}

std::uint64_t SketchStore::memory_bytes() const noexcept {
  return sketch_offsets_own_.capacity() * sizeof(std::uint64_t) +
         sketch_vertices_own_.capacity() * sizeof(VertexId) +
         image_own_.capacity() +
         node_offsets_own_.capacity() * sizeof(std::uint64_t) +
         node_sketches_own_.capacity() * sizeof(SketchId) +
         default_seeds_own_.capacity() * sizeof(VertexId) +
         default_marginals_own_.capacity() * sizeof(std::uint64_t);
}

void SketchStore::save(std::ostream& os, SnapshotSaveOptions options) const {
  const std::uint32_t section_count =
      options.compress ? kSectionCountCompressed : kSectionCountRaw;

  // Meta section first (the loader needs the counts before the arrays).
  std::ostringstream meta_os(std::ios::binary);
  write_meta_fields(meta_os, num_vertices_, num_sketches_, k_max_, meta_);
  const std::string meta_blob = meta_os.str();

  // The payload section. Raw: the flat vertex image — a loaded
  // compressed store decodes into a transient one here. Compressed: the
  // varint gap streams — a loaded compressed store's payload is written
  // as-is; a flat one is encoded into a transient varint image here.
  std::vector<VertexId> transient_flat;
  std::vector<std::uint64_t> transient_comp_offsets;
  std::vector<std::uint8_t> transient_comp_payload;
  const void* payload_data = nullptr;
  std::uint64_t payload_bytes = 0;
  std::span<const std::uint64_t> comp_offsets;
  if (!options.compress) {
    std::span<const VertexId> payload = sketch_vertices_;
    if (compressed_) {
      transient_flat = assemble_payload();
      payload = transient_flat;
    }
    payload_data = payload.data();
    payload_bytes = payload.size_bytes();
  } else if (compressed_) {
    payload_data = comp_payload_.data();
    payload_bytes = comp_payload_.size_bytes();
    comp_offsets = comp_offsets_;
  } else {
    transient_comp_offsets.resize(num_sketches_ + 1);
    transient_comp_offsets[0] = 0;
    std::vector<std::vector<std::uint8_t>> streams(num_sketches_);
#pragma omp parallel for schedule(dynamic, 64)
    for (std::uint64_t s = 0; s < num_sketches_; ++s) {
      std::vector<VertexId> members;
      members.reserve(member_count(static_cast<SketchId>(s)));
      for_each_member(static_cast<SketchId>(s),
                      [&](VertexId v) { members.push_back(v); });
      append_gap_stream(streams[s], members);
    }
    for (std::uint64_t s = 0; s < num_sketches_; ++s) {
      transient_comp_offsets[s + 1] =
          transient_comp_offsets[s] + streams[s].size();
    }
    transient_comp_payload.resize(transient_comp_offsets.back());
    for (std::uint64_t s = 0; s < num_sketches_; ++s) {
      std::copy(streams[s].begin(), streams[s].end(),
                transient_comp_payload.begin() +
                    static_cast<std::ptrdiff_t>(transient_comp_offsets[s]));
    }
    payload_data = transient_comp_payload.data();
    payload_bytes = transient_comp_payload.size();
    comp_offsets = transient_comp_offsets;
  }

  struct Blob {
    std::uint32_t id;
    const void* data;
    std::uint64_t bytes;
  };
  std::vector<Blob> blobs = {
      {kSecMeta, meta_blob.data(), meta_blob.size()},
      {kSecSketchOffsets, sketch_offsets_.data(),
       sketch_offsets_.size_bytes()},
      {kSecSketchVertices, payload_data, payload_bytes},
      {kSecNodeOffsets, node_offsets_.data(), node_offsets_.size_bytes()},
      {kSecNodeSketches, node_sketches_.data(),
       node_sketches_.size_bytes()},
      {kSecDefaultSeeds, default_seeds_.data(),
       default_seeds_.size_bytes()},
      {kSecDefaultMarginals, default_marginals_.data(),
       default_marginals_.size_bytes()},
  };
  if (options.compress) {
    blobs.push_back(
        {kSecCompOffsets, comp_offsets.data(), comp_offsets.size_bytes()});
  }

  std::vector<std::uint64_t> offsets(section_count);
  std::uint64_t cursor = header_bytes(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    cursor = align_up(cursor, kSectionAlign);
    offsets[i] = cursor;
    cursor += blobs[i].bytes;
  }
  const std::uint64_t file_bytes = cursor;

  bin::write_header(os, kSnapshotMagic, kSnapshotVersion);
  bin::write_pod(os, section_count);
  bin::write_pod(os, file_bytes);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    bin::write_pod(os, blobs[i].id);
    bin::write_pod(os, crc32c(blobs[i].data, blobs[i].bytes));
    bin::write_pod(os, offsets[i]);
    bin::write_pod(os, blobs[i].bytes);
  }

  static const char zeros[kSectionAlign] = {};
  std::uint64_t written = header_bytes(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    for (std::uint64_t pad = offsets[i] - written; pad > 0;) {
      const std::uint64_t chunk = std::min<std::uint64_t>(pad, sizeof zeros);
      os.write(zeros, static_cast<std::streamsize>(chunk));
      pad -= chunk;
    }
    if (blobs[i].bytes > 0) {
      os.write(static_cast<const char*>(blobs[i].data),
               static_cast<std::streamsize>(blobs[i].bytes));
    }
    written = offsets[i] + blobs[i].bytes;
  }
}

bool operator==(const SketchStore& a, const SketchStore& b) {
  if (a.num_vertices_ != b.num_vertices_ ||
      a.num_sketches_ != b.num_sketches_ || a.k_max_ != b.k_max_ ||
      !(a.meta_ == b.meta_) ||
      !std::equal(a.sketch_offsets_.begin(), a.sketch_offsets_.end(),
                  b.sketch_offsets_.begin(), b.sketch_offsets_.end())) {
    return false;
  }
  // Logical member compare, independent of backing: span-vs-span when
  // both sides are raw, else enumerate (decoding compressed payloads)
  // into per-sketch scratch.
  std::vector<VertexId> va;
  std::vector<VertexId> vb;
  for (std::uint64_t s = 0; s < a.num_sketches_; ++s) {
    if (!a.compressed_ && !b.compressed_) {
      const std::span<const VertexId> sa = a.sketch(static_cast<SketchId>(s));
      const std::span<const VertexId> sb = b.sketch(static_cast<SketchId>(s));
      if (!std::equal(sa.begin(), sa.end(), sb.begin(), sb.end())) {
        return false;
      }
      continue;
    }
    va.clear();
    vb.clear();
    a.for_each_member(static_cast<SketchId>(s),
                      [&](VertexId v) { va.push_back(v); });
    b.for_each_member(static_cast<SketchId>(s),
                      [&](VertexId v) { vb.push_back(v); });
    if (va != vb) return false;
  }
  return true;
}

void SketchStore::save_file(const std::string& path,
                            SnapshotSaveOptions options) const {
  write_file(path, "snapshot file",
             [&](std::ostream& os) { save(os, options); });
}

void SketchStore::validate_structure() const {
  // Shape checks only — O(sections + θ + |V| + k), no pool-sized scan. A
  // malformed snapshot must fail loudly here, not as UB inside a query.
  EIMM_CHECK(num_vertices_ > 0, "snapshot holds a zero-vertex store");
  EIMM_CHECK(k_max_ > 0, "snapshot holds a zero query cap");
  EIMM_CHECK(k_max_ <= num_vertices_,
             "snapshot query cap exceeds the vertex count");
  EIMM_CHECK(num_sketches_ < std::numeric_limits<SketchId>::max(),
             "snapshot sketch count overflows 32-bit sketch ids");
  EIMM_CHECK(sketch_offsets_.size() == num_sketches_ + 1,
             "snapshot sketch offsets inconsistent with sketch count");
  if (compressed_) {
    EIMM_CHECK(sketch_offsets_.front() == 0,
               "snapshot sketch offsets do not start at zero");
    EIMM_CHECK(comp_offsets_.size() == num_sketches_ + 1,
               "snapshot compressed offsets inconsistent with sketch count");
    EIMM_CHECK(comp_offsets_.front() == 0 &&
                   comp_offsets_.back() == comp_payload_.size(),
               "snapshot compressed offsets do not span the payload");
    for (std::size_t i = 1; i < comp_offsets_.size(); ++i) {
      EIMM_CHECK(comp_offsets_[i] >= comp_offsets_[i - 1],
                 "snapshot compressed offsets decrease");
    }
  } else {
    EIMM_CHECK(sketch_offsets_.front() == 0 &&
                   sketch_offsets_.back() == sketch_vertices_.size(),
               "snapshot sketch offsets do not span the vertex payload");
  }
  for (std::size_t i = 1; i < sketch_offsets_.size(); ++i) {
    EIMM_CHECK(sketch_offsets_[i] >= sketch_offsets_[i - 1],
               "snapshot sketch offsets decrease");
  }
  // The derived arrays a load carries instead of recomputing.
  EIMM_CHECK(node_offsets_.size() ==
                 static_cast<std::size_t>(num_vertices_) + 1,
             "snapshot node offsets inconsistent with vertex count");
  EIMM_CHECK(node_offsets_.front() == 0 &&
                 node_offsets_.back() == node_sketches_.size(),
             "snapshot node offsets do not span the inverted index");
  for (std::size_t i = 1; i < node_offsets_.size(); ++i) {
    EIMM_CHECK(node_offsets_[i] >= node_offsets_[i - 1],
               "snapshot node offsets decrease");
  }
  EIMM_CHECK(node_sketches_.size() == sketch_offsets_.back(),
             "snapshot inverted index size disagrees with the payload");
  EIMM_CHECK(default_seeds_.size() == default_marginals_.size(),
             "snapshot default sequence arrays disagree in length");
  EIMM_CHECK(default_seeds_.size() <= k_max_,
             "snapshot default sequence exceeds the query cap");
  for (const VertexId v : default_seeds_) {
    EIMM_CHECK(v < num_vertices_, "snapshot default seed out of range");
  }
}

void SketchStore::validate_payload() const {
  // Enumerates through for_each_member, so a compressed payload is fully
  // decoded here: gap-codec corruption (truncated/overlong varints, zero
  // gaps — i.e. non-ascending members) surfaces as CheckError now, not
  // inside a query.
  for (std::uint64_t s = 0; s < num_sketches_; ++s) {
    VertexId prev = 0;
    bool first = true;
    for_each_member(static_cast<SketchId>(s), [&](VertexId v) {
      EIMM_CHECK(v < num_vertices_, "snapshot sketch member out of range");
      // Strictly ascending runs are the sketch() contract — and rule out
      // duplicate members, which would double-count coverage.
      EIMM_CHECK(first || prev < v,
                 "snapshot sketch members not strictly ascending");
      prev = v;
      first = false;
    });
  }
  for (const SketchId s : node_sketches_) {
    EIMM_CHECK(s < num_sketches_,
               "snapshot inverted-index entry out of range");
  }
}

void SketchStore::validate_derived() const {
  // Recompute the inverted index exactly as finalize() would and compare
  // against the carried arrays: a snapshot whose derived state was
  // tampered with (or bit-rotted) must not serve wrong covering lists.
  const VertexId n = num_vertices_;
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (std::uint64_t s = 0; s < num_sketches_; ++s) {
    for_each_member(static_cast<SketchId>(s), [&](VertexId v) {
      ++offsets[static_cast<std::size_t>(v) + 1];
    });
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  EIMM_CHECK(std::equal(offsets.begin(), offsets.end(),
                        node_offsets_.begin(), node_offsets_.end()),
             "snapshot inverted index disagrees with the sketch payload");
  std::vector<SketchId> sketches(node_sketches_.size());
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::uint64_t s = 0; s < num_sketches_; ++s) {
    for_each_member(static_cast<SketchId>(s), [&](VertexId v) {
      sketches[cursor[v]++] = static_cast<SketchId>(s);
    });
  }
  EIMM_CHECK(std::equal(sketches.begin(), sketches.end(),
                        node_sketches_.begin(), node_sketches_.end()),
             "snapshot inverted index disagrees with the sketch payload");

  // And the default greedy sequence: rerun the kernel over the loaded
  // store and require the carried prefix to match.
  QueryOptions defaults;
  defaults.k = k_max_;
  const QueryResult seq = select_from_store(*this, defaults);
  EIMM_CHECK(std::equal(seq.seeds.begin(), seq.seeds.end(),
                        default_seeds_.begin(), default_seeds_.end()),
             "snapshot default seed sequence disagrees with the kernel");
  EIMM_CHECK(std::equal(seq.marginal_coverage.begin(),
                        seq.marginal_coverage.end(),
                        default_marginals_.begin(),
                        default_marginals_.end()),
             "snapshot default marginals disagree with the kernel");
}

void SketchStore::decode_sections(std::span<const std::uint8_t> image,
                                  ChecksumMode checksums) {
  EIMM_CHECK(reinterpret_cast<std::uintptr_t>(image.data()) % 8 == 0,
             "snapshot image is not 8-byte aligned");
  const std::uint64_t size = image.size();
  check_prefix(image);
  if (size < header_bytes(kSectionCountRaw)) {
    fail_section("truncated header in", "section table", size);
  }
  std::uint32_t section_count = 0;
  std::uint64_t file_bytes = 0;
  std::memcpy(&section_count, image.data() + 12, sizeof section_count);
  std::memcpy(&file_bytes, image.data() + 16, sizeof file_bytes);
  if (section_count != kSectionCountRaw &&
      section_count != kSectionCountCompressed) {
    fail_section("wrong section count in", "section table", 12);
  }
  const bool compressed = section_count == kSectionCountCompressed;
  if (size < header_bytes(section_count)) {
    fail_section("truncated header in", "section table", size);
  }
  if (file_bytes != size) {
    // The declared length is the truncation guard: a file cut anywhere
    // (payload, padding, table) disagrees with its own header.
    fail_section("truncated file in", "section table", size);
  }
  std::vector<SectionEntry> table(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint8_t* entry = image.data() + 24 + i * kSectionEntryBytes;
    std::memcpy(&table[i].id, entry, sizeof table[i].id);
    std::memcpy(&table[i].crc, entry + 4, sizeof table[i].crc);
    std::memcpy(&table[i].offset, entry + 8, sizeof table[i].offset);
    std::memcpy(&table[i].bytes, entry + 16, sizeof table[i].bytes);
  }
  check_section_table(table, file_bytes);

  load_stats_.version = kSnapshotVersion;
  load_stats_.file_bytes = file_bytes;
  load_stats_.compressed = compressed;
  // Verify before anything is parsed, so an eager load reports a flipped
  // bit as the checksum mismatch it is.
  auto pending = std::make_shared<PendingChecksums>();
  pending->sections.reserve(table.size());
  for (const SectionEntry& s : table) {
    pending->sections.push_back({section_name(s.id), s.offset, s.bytes,
                                 s.crc, image.data() + s.offset});
  }
  pending_checksums_ = std::move(pending);
  if (checksums == ChecksumMode::kEager) {
    verify_checksums();
    load_stats_.checksums_verified = true;
  }
  {
    const SectionEntry& s = table[kSecMeta - 1];
    std::istringstream meta_is(
        std::string(reinterpret_cast<const char*>(image.data() + s.offset),
                    static_cast<std::size_t>(s.bytes)));
    try {
      read_meta_fields(meta_is, num_vertices_, num_sketches_, k_max_, meta_);
    } catch (const bin::FormatError&) {
      fail_section("malformed", section_name(kSecMeta), s.offset);
    }
  }
  sketch_offsets_ =
      typed_section<std::uint64_t>(image, table[kSecSketchOffsets - 1]);
  if (compressed) {
    comp_payload_ =
        typed_section<std::uint8_t>(image, table[kSecSketchVertices - 1]);
    comp_offsets_ =
        typed_section<std::uint64_t>(image, table[kSecCompOffsets - 1]);
    load_stats_.compressed_payload_bytes = comp_payload_.size();
  } else {
    sketch_vertices_ =
        typed_section<VertexId>(image, table[kSecSketchVertices - 1]);
  }
  node_offsets_ =
      typed_section<std::uint64_t>(image, table[kSecNodeOffsets - 1]);
  node_sketches_ =
      typed_section<SketchId>(image, table[kSecNodeSketches - 1]);
  default_seeds_ =
      typed_section<VertexId>(image, table[kSecDefaultSeeds - 1]);
  default_marginals_ =
      typed_section<std::uint64_t>(image, table[kSecDefaultMarginals - 1]);
  compressed_ = compressed;
  validate_structure();
}

void SketchStore::verify_checksums() const {
  const std::shared_ptr<PendingChecksums>& pending = pending_checksums_;
  if (!pending) return;
  // call_once leaves the flag unset when the body throws, so a failed
  // verification is reported again to every later caller instead of
  // letting one swallowed exception unlock serving.
  std::call_once(pending->once, [&] {
    for (const PendingChecksums::Section& s : pending->sections) {
      if (crc32c(s.data, s.bytes) != s.expect) {
        fail_section("checksum mismatch in", s.name, s.offset);
      }
    }
    pending->verified.store(true, std::memory_order_release);
  });
}

bool SketchStore::checksums_pending() const noexcept {
  return pending_checksums_ != nullptr &&
         !pending_checksums_->verified.load(std::memory_order_acquire);
}

SketchStore SketchStore::load(std::istream& is) {
  SketchStore store;
  store.image_own_ = read_image(is);
  store.decode_sections(store.image_own_, ChecksumMode::kEager);
  store.load_stats_.bytes_copied = store.image_own_.size();
  store.validate_payload();
  return store;
}

SketchStore SketchStore::load_file(const std::string& path,
                                   SnapshotLoadOptions options) {
  SketchStore store;
  if (options.mode == SnapshotLoadMode::kStream) {
    std::ifstream is(path, std::ios::binary);
    EIMM_CHECK(is.good(), "cannot open snapshot file");
    store = load(is);
  } else {
    store.mapping_ = MappedFile::open_readonly(path);
    store.decode_sections({store.mapping_.data(), store.mapping_.size()},
                          options.checksums);
    store.load_stats_.mmap_backed = true;
    store.load_stats_.bytes_mapped = store.mapping_.size();
  }
  if (options.deep_validate) {
    // Checksums first: a deep scan over provably intact bytes separates
    // "bit rot" from "writer bug" in the diagnostic.
    store.verify_checksums();
    store.load_stats_.checksums_verified = true;
    if (store.load_stats_.mmap_backed) {
      store.validate_payload();  // stream loads have already run it
    }
    store.validate_derived();
    store.load_stats_.deep_validated = true;
  }
  return store;
}

}  // namespace eimm
