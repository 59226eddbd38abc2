#include "rrr/pool_view.hpp"

#include <algorithm>

#include "support/macros.hpp"

namespace eimm {

ShardArena::Ref ShardArena::place(std::size_t units, std::size_t align,
                                  VertexId*& out) {
  // A slot never spans chunks: map a new one when the current chunk
  // cannot hold it. Chunks are page-aligned, so an offset that is a
  // multiple of `align` units is aligned in memory too.
  auto aligned = [align](std::size_t pos) {
    return (pos + align - 1) / align * align;
  };
  if (chunks_.empty() || chunks_.back().bytes() / sizeof(VertexId) <
                             aligned(head_used_) + units) {
    const std::size_t capacity = std::max(chunk_vertices_, units);
    chunks_.emplace_back(capacity * sizeof(VertexId), MemPolicy::kLocal);
    head_used_ = 0;
  }
  head_used_ = aligned(head_used_);
  Ref ref;
  ref.chunk = static_cast<std::uint32_t>(chunks_.size() - 1);
  ref.pos = static_cast<std::uint32_t>(head_used_);
  out = static_cast<VertexId*>(chunks_.back().data()) + head_used_;
  head_used_ += units;
  ++runs_;
  staged_vertices_ += units;
  return ref;
}

ShardArena::Ref ShardArena::allocate(std::size_t len,
                                     std::span<VertexId>& out) {
  VertexId* dest = nullptr;
  Ref ref = place(len, 1, dest);
  ref.len = static_cast<std::uint32_t>(len);
  out = {dest, len};
  return ref;
}

ShardArena::Ref ShardArena::allocate_bitmap(std::size_t words,
                                            std::size_t members,
                                            std::span<std::uint64_t>& out) {
  constexpr std::size_t kUnits = sizeof(std::uint64_t) / sizeof(VertexId);
  VertexId* dest = nullptr;
  Ref ref = place(words * kUnits, kUnits, dest);
  ref.len = static_cast<std::uint32_t>(members);
  ref.words = static_cast<std::uint32_t>(words);
  out = {reinterpret_cast<std::uint64_t*>(dest), words};
  std::fill(out.begin(), out.end(), std::uint64_t{0});
  return ref;
}

ShardArena::Ref ShardArena::append(std::span<const VertexId> vertices) {
  std::span<VertexId> dest;
  const Ref ref = allocate(vertices.size(), dest);
  std::copy(vertices.begin(), vertices.end(), dest.begin());
  return ref;
}

std::span<const VertexId> ShardArena::view(const Ref& ref) const noexcept {
  return {data(ref), ref.len};
}

RRRSetView ShardArena::slot(const Ref& ref) const noexcept {
  if (ref.words == 0) return RRRSetView(view(ref));
  return RRRSetView::bitmap(
      {reinterpret_cast<const std::uint64_t*>(data(ref)), ref.words},
      ref.len);
}

std::uint64_t ShardArena::mapped_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const NumaBuffer& c : chunks_) bytes += c.bytes();
  return bytes;
}

void SegmentedPool::resize(std::size_t count) {
  EIMM_CHECK(count >= size_, "SegmentedPool never shrinks");
  table_.grow(count * sizeof(Entry));
  size_ = count;
}

void SegmentedPool::ensure_workers(std::size_t workers) {
  if (arenas_.size() < workers) arenas_.resize(workers);
}

std::uint64_t SegmentedPool::staged_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const ShardArena& a : arenas_) bytes += a.staged_bytes();
  return bytes;
}

std::uint64_t SegmentedPool::mapped_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const ShardArena& a : arenas_) bytes += a.mapped_bytes();
  return bytes;
}

std::uint64_t SegmentedPool::memory_bytes() const noexcept {
  return mapped_bytes() + table_.bytes();
}

std::uint64_t RRRPoolView::total_vertices() const noexcept {
  if (pool_ != nullptr) return pool_->total_vertices();
  if (segments_ == nullptr) return 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < segments_->size(); ++i) {
    total += segments_->slot(i).size();
  }
  return total;
}

std::size_t RRRPoolView::bitmap_count() const noexcept {
  if (pool_ != nullptr) return pool_->bitmap_count();
  if (segments_ == nullptr) return 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < segments_->size(); ++i) {
    count += segments_->is_bitmap(i) ? 1 : 0;
  }
  return count;
}

std::uint64_t RRRPoolView::memory_bytes() const noexcept {
  if (pool_ != nullptr) return pool_->memory_bytes();
  return segments_ != nullptr ? segments_->memory_bytes() : 0;
}

FlatPool RRRPoolView::flatten() const {
  if (pool_ != nullptr) return pool_->flatten();
  FlatPool flat;
  flat.num_vertices = num_vertices();
  const std::size_t count = size();
  flat.offsets.resize(count + 1);
  flat.offsets[0] = 0;
  for (std::size_t i = 0; i < count; ++i) {
    flat.offsets[i + 1] = flat.offsets[i] + (*this)[i].size();
  }
  flat.vertices.resize(flat.offsets.back());
#pragma omp parallel for schedule(dynamic, 64)
  for (std::size_t i = 0; i < count; ++i) {
    auto out = flat.vertices.begin() +
               static_cast<std::ptrdiff_t>(flat.offsets[i]);
    (*this)[i].for_each([&](VertexId v) { *out++ = v; });
  }
  return flat;
}

}  // namespace eimm
