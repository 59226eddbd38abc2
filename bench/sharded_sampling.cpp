// sharded_sampling — per-shard-count throughput of the NUMA-sharded RRR
// sampling pipeline (rrr/sharded.hpp).
//
// Builds the same pool once per shard count and reports the sampling
// phase's wall time and sets/second, plus a bit-match check of the
// flattened CSR image against the unsharded (shards=1) build — the
// pipeline's contract is that shard count moves only placement and
// scheduling, never content. Emits a human table plus machine-readable
// BENCH_sharded.json (workload, shards, threads, sampling seconds,
// sets/sec, match flag) labelled with the host's detected NUMA domain
// count via io/json_log.
//
// Extra knobs on top of the common EIMM_* set:
//   EIMM_SHARD_WORKLOAD  workload to sample (default com-DBLP)
//   EIMM_SHARDS_MAX      largest shard count in the sweep (default
//                        max(8, detected NUMA domains))
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "io/json_log.hpp"
#include "numa/topology.hpp"
#include "rrr/sharded.hpp"
#include "support/env.hpp"
#include "support/table.hpp"

using namespace eimm;
using namespace eimm::bench;

int main() {
  const BenchConfig config = load_config();
  print_banner("sharded_sampling — NUMA-sharded RRR generation", config);

  const std::string workload =
      env_string("EIMM_SHARD_WORKLOAD").value_or("com-DBLP");
  const int domains = numa_topology().num_nodes();
  const int max_shards = static_cast<int>(
      env_int("EIMM_SHARDS_MAX", std::max(8, domains)));

  const DiffusionGraph graph =
      load_workload(config, workload, DiffusionModel::kIndependentCascade);
  ImmOptions options = imm_options(
      config, DiffusionModel::kIndependentCascade, config.max_threads);

  options.shards = 1;
  const PoolBuild reference = build_rrr_pool(graph, options,
                                             Engine::kEfficient);
  const FlatPool reference_flat = reference.view().flatten();
  std::printf("reference (shards=1): %llu sets, %.3fs sampling\n\n",
              static_cast<unsigned long long>(reference.size()),
              reference.sampling_seconds);

  std::vector<ShardedBenchResult> rows;
  AsciiTable table({"Shards", "Threads", "Sampling s", "Sets/s", "Steals",
                    "Bit-match"});
  for (const int shards : thread_sweep(max_shards)) {
    options.shards = shards;
    bool matches = true;
    // best_seconds returns the minimum sampling time over the reps; the
    // bit-match flag must hold for every rep, not just the fastest.
    const double sampling_seconds = best_seconds(config.reps, [&] {
      const PoolBuild build =
          build_rrr_pool(graph, options, Engine::kEfficient);
      const FlatPool flat = build.view().flatten();
      matches = matches && flat.offsets == reference_flat.offsets &&
                flat.vertices == reference_flat.vertices;
      return build.sampling_seconds;
    });
    const double sets_per_second =
        sampling_seconds > 0.0
            ? static_cast<double>(reference.size()) / sampling_seconds
            : 0.0;

    // Per-shard diagnostics for the final pool size (one extra round).
    ShardedConfig shard_config;
    shard_config.shards = shards;
    shard_config.model = options.model;
    shard_config.rng_seed = options.rng_seed;
    shard_config.batch_size = options.batch_size;
    ShardedSampler sampler(graph.reverse, shard_config);
    SegmentedPool probe(graph.num_vertices());
    probe.resize(reference.size());
    sampler.generate(probe, 0, reference.size(), nullptr);
    std::uint64_t steals = 0;
    for (const std::uint64_t s : sampler.stats().steals_per_shard) {
      steals += s;
    }

    table.new_row()
        .add(static_cast<std::uint64_t>(shards))
        .add(static_cast<std::uint64_t>(config.max_threads))
        .add(sampling_seconds, 3)
        .add(sets_per_second, 0)
        .add(steals)
        .add(matches ? "yes" : "NO");

    ShardedBenchResult row;
    row.workload = workload;
    row.shards = shards;
    row.threads = config.max_threads;
    row.sampling_seconds = sampling_seconds;
    row.sets_per_second = sets_per_second;
    row.num_rrr_sets = reference.size();
    row.pool_matches_unsharded = matches;
    rows.push_back(row);
    if (!matches) {
      std::fprintf(stderr,
                   "ERROR: shards=%d produced a different CSR image\n",
                   shards);
    }
  }

  std::printf("\n");
  table.set_title("Sharded sampling sweep: " + workload + " (" +
                  std::to_string(domains) + " NUMA domain(s) detected)");
  table.print(std::cout);

  const std::string path = write_sharded_bench_json_file(
      bench_json_path("BENCH_sharded.json"), domains, rows);
  std::printf("\nresults: %s\n", path.c_str());

  for (const ShardedBenchResult& row : rows) {
    if (!row.pool_matches_unsharded) return 1;
  }
  return 0;
}
