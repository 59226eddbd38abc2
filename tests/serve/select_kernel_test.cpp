// The serve-side select kernel against a reference: select_from_store is
// a lazy greedy over a degree order, and every answer it gives must be
// bit-identical (seeds, marginals, covered count) to the plain serial
// arg-max greedy below, which scans every eligible vertex each round.
// The battery covers blacklists, whitelists with duplicate, zero-degree
// and forbidden candidates, a store where identical vertices tie every
// round, k = k_max, early stops, and raw and compressed v4 snapshots
// loaded by mmap and by stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "seedselect/engine.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "test_util.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

/// The serial-scan store kernel: each round scans every eligible vertex
/// (the sorted whitelist, or all of |V|) for the highest live counter,
/// lowest id on ties, then retires the pick's covered sketches.
QueryResult reference_select(const SketchStore& store,
                             const QueryOptions& options) {
  const VertexId n = store.num_vertices();
  QueryResult result;
  result.total_sketches = store.num_sketches();

  std::vector<std::uint8_t> mask;
  if (options.constrained()) {
    mask.assign(n, options.candidates.empty() ? 1 : 0);
    for (const VertexId v : options.candidates) mask[v] = 1;
    for (const VertexId v : options.forbidden) mask[v] = 0;
  }
  std::vector<std::uint64_t> counters(n);
  for (VertexId v = 0; v < n; ++v) counters[v] = store.degree(v);
  std::vector<std::uint8_t> alive(store.num_sketches(), 1);
  std::vector<VertexId> scan_list = options.candidates;
  std::sort(scan_list.begin(), scan_list.end());

  const std::size_t rounds =
      std::min<std::size_t>(options.k, static_cast<std::size_t>(n));
  for (std::size_t round = 0; round < rounds; ++round) {
    VertexId best_v = 0;
    std::uint64_t best_c = 0;
    auto consider = [&](VertexId v) {
      if (!mask.empty() && mask[v] == 0) return;
      if (counters[v] > best_c) {
        best_c = counters[v];
        best_v = v;
      }
    };
    if (!scan_list.empty()) {
      for (const VertexId v : scan_list) consider(v);
    } else {
      for (VertexId v = 0; v < n; ++v) consider(v);
    }
    if (best_c == 0) break;
    result.seeds.push_back(best_v);
    result.marginal_coverage.push_back(best_c);
    result.covered_sketches += best_c;
    for (const SketchId s : store.covering(best_v)) {
      if (alive[s] == 0) continue;
      alive[s] = 0;
      store.for_each_member(s, [&](VertexId u) { --counters[u]; });
    }
  }
  result.estimated_spread =
      static_cast<double>(n) * result.coverage_fraction();
  return result;
}

std::string describe(const QueryOptions& q) {
  std::string out = "k=" + std::to_string(q.k) + " candidates=[";
  for (const VertexId v : q.candidates) out += std::to_string(v) + ",";
  out += "] forbidden=[";
  for (const VertexId v : q.forbidden) out += std::to_string(v) + ",";
  return out + "]";
}

void expect_same(const QueryResult& got, const QueryResult& want,
                 const std::string& label) {
  EXPECT_EQ(got.seeds, want.seeds) << label;
  EXPECT_EQ(got.marginal_coverage, want.marginal_coverage) << label;
  EXPECT_EQ(got.covered_sketches, want.covered_sketches) << label;
  EXPECT_EQ(got.total_sketches, want.total_sketches) << label;
  EXPECT_DOUBLE_EQ(got.estimated_spread, want.estimated_spread) << label;
}

/// Answers every query through the epoch engine and the one-shot entry
/// point, and requires both to match the reference. Returns how many
/// queries ran.
std::size_t expect_battery_matches(const SketchStore& store,
                                   const std::vector<QueryOptions>& queries,
                                   const std::string& label) {
  const QueryEngine engine(store);
  for (const QueryOptions& q : queries) {
    const QueryResult want = reference_select(store, q);
    const std::string what = label + " " + describe(q);
    expect_same(engine.select(q), want, what + " (engine)");
    expect_same(select_from_store(store, q), want, what + " (one-shot)");
  }
  return queries.size();
}

/// A fixed, seeded battery: unconstrained k = 1 and k = k_max,
/// blacklists of the top default seeds and of random vertices, and
/// whitelists that are random, duplicated, zero-degree or forbidden.
std::vector<QueryOptions> make_battery(const SketchStore& store,
                                       std::uint64_t seed) {
  const VertexId n = store.num_vertices();
  const std::size_t k_max = store.k_max();
  const auto top = store.default_seeds();
  std::vector<VertexId> zero_degree;
  for (VertexId v = 0; v < n; ++v) {
    if (store.degree(v) == 0) zero_degree.push_back(v);
  }
  std::mt19937_64 rng(seed);
  auto vertex = [&] { return static_cast<VertexId>(rng() % n); };
  auto k = [&] { return 1 + static_cast<std::size_t>(rng() % k_max); };

  std::vector<QueryOptions> queries;
  for (const std::size_t kk : {std::size_t{1}, k_max}) {
    QueryOptions q;
    q.k = kk;
    queries.push_back(q);
  }
  for (std::size_t banned = 1; banned <= std::min<std::size_t>(top.size(), 4);
       ++banned) {
    QueryOptions q;
    q.k = k_max;
    q.forbidden.assign(top.begin(), top.begin() + banned);
    queries.push_back(q);
  }
  for (int i = 0; i < 12; ++i) {
    QueryOptions q;
    q.k = k();
    for (int j = 0; j < 1 + i % 5; ++j) q.forbidden.push_back(vertex());
    queries.push_back(q);
  }
  for (int i = 0; i < 12; ++i) {
    QueryOptions q;
    q.k = k();
    const int size = 1 + static_cast<int>(rng() % (n < 40 ? n : 40));
    for (int j = 0; j < size; ++j) q.candidates.push_back(vertex());
    // Duplicates, in the order given and again out of order.
    if (i % 3 == 0) q.candidates.push_back(q.candidates.front());
    if (i % 3 == 1) {
      q.candidates.insert(q.candidates.begin(), q.candidates.back());
    }
    // Forbidden candidates, and forbidden non-candidates.
    if (i % 2 == 0) {
      q.forbidden.push_back(q.candidates[q.candidates.size() / 2]);
    }
    if (i % 4 == 1) q.forbidden.push_back(vertex());
    if (!zero_degree.empty() && i % 3 != 2) {
      q.candidates.push_back(zero_degree[rng() % zero_degree.size()]);
    }
    queries.push_back(q);
  }
  // A whitelist of the top seeds, one of them forbidden; a whitelist whose
  // every candidate is forbidden; a whitelist of zero-degree vertices only.
  if (top.size() >= 3) {
    QueryOptions q;
    q.k = k_max;
    q.candidates.assign(top.begin(), top.begin() + 3);
    q.candidates.push_back(top[1]);
    q.forbidden = {top[0]};
    queries.push_back(q);
    QueryOptions all_forbidden = q;
    all_forbidden.forbidden = q.candidates;
    queries.push_back(all_forbidden);
  }
  if (!zero_degree.empty()) {
    QueryOptions q;
    q.k = k_max;
    q.candidates = zero_degree;
    queries.push_back(q);
  }
  return queries;
}

SketchStore make_sampled_store(DiffusionModel model) {
  const DiffusionGraph g =
      make_workload_with_weights("com-Amazon", model, 0.01);
  return SketchStore::from_pool(testing::sample_pool(g, model, 400, 17),
                                /*k_max=*/12);
}

/// 40 vertices; vertex v + 20 belongs to exactly the sketches of vertex
/// v for every even v < 20, so each such pair ties in every round of
/// every query and only the lowest-id rule separates them. Sketches hold
/// 1–3 members, so many other degrees tie too, and vertices 40–47 are in
/// no sketch at all. k_max = |V| = 48, more seeds than can cover
/// anything, so every unconstrained query stops early.
SketchStore make_tie_store() {
  constexpr VertexId kN = 48;
  std::mt19937_64 rng(2024);
  std::vector<std::vector<VertexId>> sets;
  for (int s = 0; s < 160; ++s) {
    std::vector<VertexId> members;
    const int size = 1 + static_cast<int>(rng() % 3);
    for (int j = 0; j < size; ++j) {
      const auto v = static_cast<VertexId>(rng() % 20);
      members.push_back(v);
      if (v % 2 == 0) members.push_back(v + 20);
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    sets.push_back(std::move(members));
  }
  return SketchStore::from_pool(testing::make_pool(kN, sets), kN);
}

std::string snapshot_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SelectKernel, DegreeOrderIsDegreeDescendingThenIdAscending) {
  const SketchStore store = make_tie_store();
  const auto order = store_degree_order(store);
  std::size_t nonzero = 0;
  for (VertexId v = 0; v < store.num_vertices(); ++v) {
    nonzero += store.degree(v) != 0 ? 1 : 0;
  }
  ASSERT_EQ(order.size(), nonzero);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i].count, store.degree(order[i].id)) << i;
    if (i > 0) {
      EXPECT_TRUE(LazyArgMaxHeap::above(order[i - 1], order[i])) << i;
    }
  }
}

TEST(SelectKernel, TieHeavyStoreMatchesReference) {
  const SketchStore store = make_tie_store();
  std::vector<QueryOptions> queries = make_battery(store, 5);
  // Whitelists made only of tied pairs, given high id first.
  for (VertexId v = 0; v < 20; v += 2) {
    QueryOptions q;
    q.k = 3;
    q.candidates = {static_cast<VertexId>(v + 20), v,
                    static_cast<VertexId>((v + 22) % 40),
                    static_cast<VertexId>((v + 2) % 20)};
    queries.push_back(q);
  }
  expect_battery_matches(store, queries, "ties");

  // Every unconstrained answer stops once no sketch is left to cover.
  QueryOptions all;
  all.k = store.k_max();
  const QueryResult full = select_from_store(store, all);
  EXPECT_LT(full.seeds.size(), store.k_max());
  EXPECT_EQ(full.covered_sketches, store.num_sketches());
}

TEST(SelectKernel, EarlyStopWhenEveryEligibleCountIsZero) {
  const SketchStore store = make_tie_store();
  // Forbid all but two vertices of one tied pair: the second pick of the
  // pair has a zero live count once the first retired their sketches.
  ASSERT_GT(store.degree(4), 0u);
  QueryOptions q;
  q.k = store.k_max();
  for (VertexId v = 0; v < store.num_vertices(); ++v) {
    if (v != 4 && v != 24) q.forbidden.push_back(v);
  }
  const QueryResult got = QueryEngine(store).select(q);
  expect_same(got, reference_select(store, q), describe(q));
  EXPECT_EQ(got.seeds, std::vector<VertexId>{4});
}

TEST(SelectKernel, SampledStoresMatchReferenceOnEveryBacking) {
  std::size_t queries_run = 0;
  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    const SketchStore built = make_sampled_store(model);
    const std::vector<QueryOptions> queries =
        make_battery(built, 100 + static_cast<int>(model));
    const std::string name(to_string(model));
    queries_run += expect_battery_matches(built, queries, name + " built");

    for (const bool compress : {false, true}) {
      const std::string path = snapshot_path(
          "select_kernel_" + name + (compress ? "_compressed" : "_raw") +
          ".sks");
      built.save_file(path, SnapshotSaveOptions{compress});
      for (const SnapshotLoadMode mode :
           {SnapshotLoadMode::kMap, SnapshotLoadMode::kStream}) {
        SnapshotLoadOptions load;
        load.mode = mode;
        const SketchStore loaded = SketchStore::load_file(path, load);
        ASSERT_EQ(loaded.compressed(), compress);
        const std::string label =
            name + (compress ? " compressed" : " raw") +
            (mode == SnapshotLoadMode::kMap ? " mmap" : " stream");
        queries_run += expect_battery_matches(loaded, queries, label);
      }
    }
  }
  EXPECT_GT(queries_run, 300u);
}

TEST(SelectKernel, DefaultSeedsAreTheReferenceSequence) {
  const SketchStore ties = make_tie_store();
  const SketchStore sampled =
      make_sampled_store(DiffusionModel::kLinearThreshold);
  for (const SketchStore* store : {&ties, &sampled}) {
    QueryOptions q;
    q.k = store->k_max();
    const QueryResult want = reference_select(*store, q);
    const auto seeds = store->default_seeds();
    const auto marginals = store->default_marginals();
    EXPECT_EQ(std::vector<VertexId>(seeds.begin(), seeds.end()), want.seeds);
    EXPECT_EQ(std::vector<std::uint64_t>(marginals.begin(), marginals.end()),
              want.marginal_coverage);
  }
}

std::uint64_t counter_value(const char* name) {
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const obs::MetricValue* metric = snap.find(name);
  return metric != nullptr ? metric->value : 0;
}

TEST(SelectKernel, TelemetryCountsRetiredSketchesAndRefreshes) {
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const SketchStore store =
      make_sampled_store(DiffusionModel::kIndependentCascade);
  const QueryEngine engine(store);
  const std::uint64_t retired_before =
      counter_value("query.select.sketches_retired_total");
  const std::uint64_t refreshes_before =
      counter_value("query.select.refreshes_total");
  QueryOptions q;
  q.k = store.k_max();
  q.forbidden = {store.default_seeds()[0]};
  const QueryResult got = engine.select(q);
  EXPECT_EQ(counter_value("query.select.sketches_retired_total") -
                retired_before,
            got.covered_sketches);
  // Twelve picks over 400 overlapping sketches leave stale degrees behind.
  EXPECT_GT(counter_value("query.select.refreshes_total"), refreshes_before);
  obs::set_metrics_enabled(metrics_were_enabled);
}

}  // namespace
}  // namespace eimm
