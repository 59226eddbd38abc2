// NUMA-aware array allocation.
//
// NumaArray<T> is the container the engines use for every large shared
// structure (graph CSR copies, the global vertex counter): an
// mmap-backed, page-aligned region with an explicit placement policy and
// a parallel first-touch pass. With one NUMA node it behaves like a
// plain huge array — identical code path, no placement effect.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <span>
#include <utility>

#include "numa/policy.hpp"
#include "support/macros.hpp"

namespace eimm {

/// RAII mmap'd buffer with a memory policy applied before first touch.
class NumaBuffer {
 public:
  NumaBuffer() = default;

  /// Maps `bytes` of anonymous memory and applies `policy`.
  NumaBuffer(std::size_t bytes, MemPolicy policy);

  NumaBuffer(const NumaBuffer&) = delete;
  NumaBuffer& operator=(const NumaBuffer&) = delete;
  NumaBuffer(NumaBuffer&& other) noexcept { *this = std::move(other); }
  NumaBuffer& operator=(NumaBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      bytes_ = std::exchange(other.bytes_, 0);
      policy_applied_ = std::exchange(other.policy_applied_, false);
    }
    return *this;
  }
  ~NumaBuffer() { release(); }

  /// Extends the mapping to at least `bytes` via mremap, which moves page
  /// tables, not data: contents stay, the zero-filled tail is not
  /// resident until touched, and data() may change. Never shrinks.
  void grow(std::size_t bytes);

  [[nodiscard]] void* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  /// True when the kernel accepted the placement request (always false on
  /// single-node machines; allocation still succeeds).
  [[nodiscard]] bool policy_applied() const noexcept { return policy_applied_; }

 private:
  void release() noexcept;
  void* data_ = nullptr;
  std::size_t bytes_ = 0;
  bool policy_applied_ = false;
};

/// Typed array over a NumaBuffer. T must be trivially destructible (the
/// buffer is released without running destructors); elements are
/// zero-initialized by the kernel and optionally re-touched in parallel.
template <typename T>
class NumaArray {
  static_assert(std::is_trivially_destructible_v<T>,
                "NumaArray elements must be trivially destructible");

 public:
  NumaArray() = default;
  NumaArray(std::size_t count, MemPolicy policy)
      : buffer_(count * sizeof(T), policy), count_(count) {}

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] T* data() noexcept { return static_cast<T*>(buffer_.data()); }
  [[nodiscard]] const T* data() const noexcept {
    return static_cast<const T*>(buffer_.data());
  }
  T& operator[](std::size_t i) noexcept { return data()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data()[i]; }
  [[nodiscard]] std::span<T> span() noexcept { return {data(), count_}; }
  [[nodiscard]] std::span<const T> span() const noexcept {
    return {data(), count_};
  }
  [[nodiscard]] bool policy_applied() const noexcept {
    return buffer_.policy_applied();
  }

 private:
  NumaBuffer buffer_;
  std::size_t count_ = 0;
};

/// Touches every page of [data, data+count) from OpenMP threads with a
/// static schedule, so first-touch placement matches the threads' later
/// access pattern when the policy is kDefault/kLocal.
void parallel_first_touch(void* data, std::size_t bytes);

}  // namespace eimm
