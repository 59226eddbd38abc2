// Microbenchmarks for the adaptive RRR-set representation (§IV-C):
// membership and iteration cost of sorted-vector vs bitmap sets at
// varying densities — the data behind the representation threshold.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "rrr/gap_codec.hpp"
#include "rrr/set.hpp"
#include "support/rng.hpp"

namespace {

using namespace eimm;

constexpr VertexId kVertices = 1 << 18;

std::vector<VertexId> members_with_density(double density,
                                           std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<VertexId> members;
  for (VertexId v = 0; v < kVertices; ++v) {
    if (rng.next_double() < density) members.push_back(v);
  }
  if (members.empty()) members.push_back(0);
  return members;
}

void BM_VectorContains(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  const RRRSet set = RRRSet::make_vector(members_with_density(density, 1));
  Xoshiro256 rng(2);
  for (auto _ : state) {
    const auto v = static_cast<VertexId>(rng.next_bounded(kVertices));
    benchmark::DoNotOptimize(set.contains(v));
  }
}
BENCHMARK(BM_VectorContains)->Arg(1)->Arg(10)->Arg(100)->Arg(500);

void BM_BitmapContains(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  const RRRSet set =
      RRRSet::make_bitmap(members_with_density(density, 1), kVertices);
  Xoshiro256 rng(2);
  for (auto _ : state) {
    const auto v = static_cast<VertexId>(rng.next_bounded(kVertices));
    benchmark::DoNotOptimize(set.contains(v));
  }
}
BENCHMARK(BM_BitmapContains)->Arg(1)->Arg(10)->Arg(100)->Arg(500);

void BM_VectorIterate(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  const RRRSet set = RRRSet::make_vector(members_with_density(density, 1));
  for (auto _ : state) {
    std::uint64_t sum = 0;
    set.for_each([&](VertexId v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(set.size()));
}
BENCHMARK(BM_VectorIterate)->Arg(10)->Arg(100)->Arg(500);

void BM_BitmapIterate(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  const RRRSet set =
      RRRSet::make_bitmap(members_with_density(density, 1), kVertices);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    set.for_each([&](VertexId v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(set.size()));
}
BENCHMARK(BM_BitmapIterate)->Arg(10)->Arg(100)->Arg(500);

void BM_AdaptiveConstruction(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  const auto members = members_with_density(density, 1);
  for (auto _ : state) {
    auto copy = members;
    const RRRSet set = RRRSet::make_adaptive(std::move(copy), kVertices);
    benchmark::DoNotOptimize(set.size());
  }
}
BENCHMARK(BM_AdaptiveConstruction)->Arg(1)->Arg(100)->Arg(500);

// HBMax-style compression (the rrr/gap_codec stream the compressed
// snapshot layout stores): smaller storage, but membership pays a linear decode — the
// codec overhead §IV-C cites as the reason EfficientIMM prefers the
// adaptive scheme. members_with_density() is already sorted and unique.
std::vector<std::uint8_t> gap_encode(const std::vector<VertexId>& members) {
  std::vector<std::uint8_t> bytes;
  append_gap_stream(bytes, members);
  return bytes;
}

GapRun run_of(const std::vector<std::uint8_t>& bytes,
              const std::vector<VertexId>& members) {
  return GapRun{bytes.data(), bytes.size(),
                static_cast<std::uint32_t>(members.size())};
}

void BM_CompressedContains(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  const auto members = members_with_density(density, 1);
  const std::vector<std::uint8_t> bytes = gap_encode(members);
  const GapRun run = run_of(bytes, members);
  Xoshiro256 rng(2);
  for (auto _ : state) {
    const auto v = static_cast<VertexId>(rng.next_bounded(kVertices));
    benchmark::DoNotOptimize(run.contains(v));
  }
}
BENCHMARK(BM_CompressedContains)->Arg(1)->Arg(10)->Arg(100);

void BM_CompressedIterate(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  const auto members = members_with_density(density, 1);
  const std::vector<std::uint8_t> bytes = gap_encode(members);
  const GapRun run = run_of(bytes, members);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    run.for_each([&](VertexId v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(members.size()));
}
BENCHMARK(BM_CompressedIterate)->Arg(10)->Arg(100)->Arg(500);

void BM_CompressedEncode(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  const auto members = members_with_density(density, 1);
  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    bytes.clear();
    append_gap_stream(bytes, members);
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CompressedEncode)->Arg(1)->Arg(100)->Arg(500);

}  // namespace
