#include "numa/alloc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "numa/policy.hpp"
#include "numa/topology.hpp"

namespace eimm {
namespace {

TEST(NumaBuffer, AllocatesAndZeroFills) {
  NumaBuffer buf(1 << 16, MemPolicy::kDefault);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_GE(buf.bytes(), std::size_t{1} << 16);
  const auto* p = static_cast<const unsigned char*>(buf.data());
  for (std::size_t i = 0; i < (1 << 16); i += 4096) EXPECT_EQ(p[i], 0);
}

TEST(NumaBuffer, RoundsUpToPageSize) {
  NumaBuffer buf(100, MemPolicy::kDefault);
  EXPECT_EQ(buf.bytes() % 4096, 0u);
  EXPECT_GE(buf.bytes(), 4096u);
}

TEST(NumaBuffer, ZeroBytesStillMapsAPage) {
  NumaBuffer buf(0, MemPolicy::kDefault);
  EXPECT_NE(buf.data(), nullptr);
}

TEST(NumaBuffer, MoveTransfersOwnership) {
  NumaBuffer a(4096, MemPolicy::kDefault);
  void* original = a.data();
  NumaBuffer b(std::move(a));
  EXPECT_EQ(b.data(), original);
  EXPECT_EQ(a.data(), nullptr);
  NumaBuffer c;
  c = std::move(b);
  EXPECT_EQ(c.data(), original);
}

TEST(NumaBuffer, GrowKeepsContentsAndZeroFillsTheTail) {
  NumaBuffer buf(4096, MemPolicy::kDefault);
  auto* words = static_cast<std::uint64_t*>(buf.data());
  for (std::size_t i = 0; i < 512; ++i) words[i] = i * 7 + 1;
  buf.grow(10 * 4096 + 1);
  EXPECT_EQ(buf.bytes(), 11u * 4096u);
  words = static_cast<std::uint64_t*>(buf.data());
  for (std::size_t i = 0; i < 512; ++i) EXPECT_EQ(words[i], i * 7 + 1);
  for (std::size_t i = 512; i < buf.bytes() / 8; ++i) {
    ASSERT_EQ(words[i], 0u) << i;
  }
  buf.grow(100);  // never shrinks
  EXPECT_EQ(buf.bytes(), 11u * 4096u);

  NumaBuffer empty;
  empty.grow(5000);
  ASSERT_NE(empty.data(), nullptr);
  EXPECT_EQ(empty.bytes(), 2u * 4096u);
}

TEST(NumaBuffer, PolicyOnlyAppliesOnNumaMachines) {
  NumaBuffer buf(1 << 20, MemPolicy::kInterleave);
  if (!numa_topology().is_numa()) {
    // Single node: placement must silently degrade, never fail the alloc.
    EXPECT_FALSE(buf.policy_applied());
  }
  EXPECT_NE(buf.data(), nullptr);  // allocation always succeeds
}

TEST(NumaArray, TypedAccess) {
  NumaArray<std::uint64_t> arr(1000, MemPolicy::kDefault);
  EXPECT_EQ(arr.size(), 1000u);
  for (std::size_t i = 0; i < arr.size(); ++i) EXPECT_EQ(arr[i], 0u);
  arr[7] = 42;
  EXPECT_EQ(arr[7], 42u);
  EXPECT_EQ(arr.span().size(), 1000u);
}

TEST(NumaArray, DefaultConstructedIsEmpty) {
  NumaArray<int> arr;
  EXPECT_EQ(arr.size(), 0u);
}

TEST(FirstTouch, TouchesWithoutCrashing) {
  NumaBuffer buf(1 << 20, MemPolicy::kDefault);
  parallel_first_touch(buf.data(), buf.bytes());
  auto* p = static_cast<unsigned char*>(buf.data());
  p[0] = 1;  // memory stays usable
  EXPECT_EQ(p[0], 1);
}

TEST(Policy, ApplyOnNullIsRejected) {
  EXPECT_FALSE(apply_mempolicy(nullptr, 4096, MemPolicy::kInterleave));
  int x = 0;
  EXPECT_FALSE(apply_mempolicy(&x, 0, MemPolicy::kInterleave));
}

TEST(Policy, NumaAvailableIsStable) {
  EXPECT_EQ(numa_available(), numa_available());
}

}  // namespace
}  // namespace eimm
