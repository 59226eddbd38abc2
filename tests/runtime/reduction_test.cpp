#include "runtime/reduction.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace eimm {
namespace {

TEST(ArgMax, EmptyCounters) {
  CounterArray c;
  const auto r = serial_argmax(c);
  EXPECT_EQ(r.index, 0u);
  EXPECT_EQ(r.value, 0u);
}

TEST(ArgMax, SingleElement) {
  CounterArray c(1);
  c.set(0, 7);
  const auto r = serial_argmax(c);
  EXPECT_EQ(r.index, 0u);
  EXPECT_EQ(r.value, 7u);
}

TEST(ArgMax, FindsUniqueMaximum) {
  CounterArray c(1000);
  for (std::size_t i = 0; i < c.size(); ++i) c.set(i, i % 97);
  c.set(513, 1000);
  const auto r = serial_argmax(c);
  EXPECT_EQ(r.index, 513u);
  EXPECT_EQ(r.value, 1000u);
}

TEST(ArgMax, TieBreaksToLowestIndex) {
  CounterArray c(100);
  c.set(20, 50);
  c.set(80, 50);
  const auto r = serial_argmax(c);
  EXPECT_EQ(r.index, 20u);
}

TEST(ArgMax, AllZerosPicksIndexZero) {
  CounterArray c(64);
  const auto r = serial_argmax(c);
  EXPECT_EQ(r.index, 0u);
  EXPECT_EQ(r.value, 0u);
}

TEST(ArgMax, MaximumAtBoundaries) {
  CounterArray c(1024);
  c.set(0, 9);
  EXPECT_EQ(serial_argmax(c).index, 0u);
  c.set(0, 0);
  c.set(1023, 9);
  EXPECT_EQ(serial_argmax(c).index, 1023u);
}

TEST(ArgMaxBetter, IsATotalOrderOnValueThenIndex) {
  EXPECT_TRUE(argmax_better({3, 10}, {5, 9}));
  EXPECT_FALSE(argmax_better({5, 9}, {3, 10}));
  EXPECT_TRUE(argmax_better({3, 10}, {5, 10}));   // tie: lower index wins
  EXPECT_FALSE(argmax_better({5, 10}, {3, 10}));
  EXPECT_FALSE(argmax_better({4, 8}, {4, 8}));    // irreflexive
}

TEST(ShardedArgMax, EmptyCounters) {
  ShardedCounterArray c;
  const auto r = serial_argmax(c);
  EXPECT_EQ(r.index, 0u);
  EXPECT_EQ(r.value, 0u);
}

TEST(ShardedArgMax, SumsReplicasBeforeComparing) {
  // Replica-local values 3 and 4 at different indices, but index 2's sum
  // (3+3=6) beats index 7's single 4 — the arg-max must see sums.
  ShardedCounterArray c(10, 2);
  c.local(0).store(2, 3);
  c.local(1).store(2, 3);
  c.local(0).store(7, 4);
  const auto r = serial_argmax(c);
  EXPECT_EQ(r.index, 2u);
  EXPECT_EQ(r.value, 6u);
}

TEST(ShardedArgMax, MatchesFlatOnEqualLogicalValues) {
  Xoshiro256 rng(123);
  for (const int shards : {1, 2, 3, 8}) {
    const std::size_t n = 1 + rng.next_bounded(3000);
    CounterArray flat(n);
    ShardedCounterArray sharded(n, shards);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t v = rng.next_bounded(500);
      flat.set(i, v);
      // Split the logical value across two replicas (when they exist;
      // a second store to the SAME replica would overwrite, not add).
      const int a = static_cast<int>(i) % shards;
      const int b = static_cast<int>(i + 1) % shards;
      if (a == b) {
        sharded.local(a).store(i, v);
      } else {
        const std::uint64_t low = v / 2;
        sharded.local(a).store(i, low);
        sharded.local(b).store(i, v - low);
      }
    }
    const auto f = serial_argmax(flat);
    const auto s = serial_argmax(sharded);
    EXPECT_EQ(s.index, f.index) << shards << " shards";
    EXPECT_EQ(s.value, f.value) << shards << " shards";
  }
}

TEST(ShardedArgMax, HonorsEligibilityMask) {
  ShardedCounterArray c(50, 3);
  c.local(0).store(10, 100);
  c.local(1).store(20, 90);
  c.local(2).store(30, 80);
  std::vector<std::uint8_t> eligible(50, 1);
  eligible[10] = 0;  // mask out the true maximum
  const auto r = serial_argmax(c, eligible.data());
  EXPECT_EQ(r.index, 20u);
  EXPECT_EQ(r.value, 90u);
}

}  // namespace
}  // namespace eimm
