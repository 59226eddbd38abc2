#include "numa/alloc.hpp"

#include <omp.h>

#include <cstring>

namespace eimm {

namespace {
constexpr std::size_t kPageSize = 4096;
}

NumaBuffer::NumaBuffer(std::size_t bytes, MemPolicy policy) {
  if (bytes == 0) bytes = kPageSize;
  const std::size_t rounded = (bytes + kPageSize - 1) / kPageSize * kPageSize;
  void* p = ::mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  EIMM_CHECK(p != MAP_FAILED, "mmap failed for NumaBuffer");
  data_ = p;
  bytes_ = rounded;
  policy_applied_ = apply_mempolicy(data_, bytes_, policy);
}

void NumaBuffer::grow(std::size_t bytes) {
  if (data_ == nullptr) {
    *this = NumaBuffer(bytes, MemPolicy::kDefault);
    return;
  }
  const std::size_t rounded = (bytes + kPageSize - 1) / kPageSize * kPageSize;
  if (rounded <= bytes_) return;
  void* p = ::mremap(data_, bytes_, rounded, MREMAP_MAYMOVE);
  EIMM_CHECK(p != MAP_FAILED, "mremap failed for NumaBuffer");
  data_ = p;
  bytes_ = rounded;
}

void NumaBuffer::release() noexcept {
  if (data_ != nullptr) {
    ::munmap(data_, bytes_);
    data_ = nullptr;
    bytes_ = 0;
  }
}

void parallel_first_touch(void* data, std::size_t bytes) {
  auto* base = static_cast<unsigned char*>(data);
  const std::size_t pages = (bytes + kPageSize - 1) / kPageSize;
#pragma omp parallel for schedule(static)
  for (std::size_t p = 0; p < pages; ++p) {
    // Writing one byte per page faults it in on the executing thread's
    // node under first-touch policy.
    base[p * kPageSize] = 0;
  }
}

}  // namespace eimm
