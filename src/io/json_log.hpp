// Experiment logs mirroring the SC'24 artifact output: each run emits one
// JSON document with the configuration, per-phase timings, and the seed
// set (the artifact's strong-scaling-logs-* directories hold the same
// fields). extract-style CSV summaries are produced by the benches.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "obs/metrics.hpp"

namespace eimm {

struct ExperimentRecord {
  std::string dataset;
  std::string algorithm;      // "EfficientIMM" | "Ripples"
  std::string diffusion;      // "IC" | "LT"
  int threads = 1;
  int k = 0;
  double epsilon = 0.0;
  std::uint64_t rng_seed = 0;
  double total_seconds = 0.0;
  double sampling_seconds = 0.0;
  double selection_seconds = 0.0;
  std::uint64_t num_rrr_sets = 0;
  std::uint64_t rrr_memory_bytes = 0;
  std::vector<VertexId> seeds;
};

/// Serializes one record as a JSON object (artifact-compatible field
/// names: "Total", "GenerateRRRSets", "FindMostInfluentialSet", ...).
void write_experiment_json(std::ostream& os, const ExperimentRecord& record);

/// Writes to `<dir>/<dataset>_<algorithm>_<threads>.json`, creating the
/// directory if needed. Returns the file path.
std::string write_experiment_json_file(const std::string& dir,
                                       const ExperimentRecord& record);

/// One row of the serve-throughput bench (BENCH_serve.json schema:
/// workload, threads, queries/sec, build-seconds).
struct ServeBenchResult {
  std::string workload;
  int threads = 1;
  double queries_per_second = 0.0;
  double build_seconds = 0.0;
};

/// Serializes the bench sweep as one JSON document:
/// {"Bench": "serve_throughput", "Results": [{"Workload": ..., ...}]}.
void write_serve_bench_json(std::ostream& os,
                            const std::vector<ServeBenchResult>& results);

/// Writes to `path` (parent directories created). Returns `path`.
std::string write_serve_bench_json_file(
    const std::string& path, const std::vector<ServeBenchResult>& results);

/// One row of the sharded-sampling bench (BENCH_sharded.json schema):
/// per-shard-count sampling throughput plus the bit-match check against
/// the unsharded build.
struct ShardedBenchResult {
  std::string workload;
  int shards = 1;
  int threads = 1;
  double sampling_seconds = 0.0;
  double sets_per_second = 0.0;
  std::uint64_t num_rrr_sets = 0;
  bool pool_matches_unsharded = true;
};

/// Serializes the sweep as one document:
/// {"Bench": "sharded_sampling", "NumaDomains": N, "Results": [...]}.
/// `numa_domains` is the detected domain count of the host that ran it.
void write_sharded_bench_json(std::ostream& os, int numa_domains,
                              const std::vector<ShardedBenchResult>& results);

/// Writes to `path` (parent directories created). Returns `path`.
std::string write_sharded_bench_json_file(
    const std::string& path, int numa_domains,
    const std::vector<ShardedBenchResult>& results);

/// One row of the counter-layout bench (BENCH_counters.json schema):
/// update/arg-max throughput of one counter layout at one shard count.
struct CounterBenchResult {
  std::string layout;  // "flat" | "sharded" | "perthread" | "contended"
  int shards = 1;
  int threads = 1;
  double update_seconds = 0.0;
  double updates_per_second = 0.0;
  double argmax_seconds = 0.0;
  /// Snapshot of the layout equals the flat reference after the same
  /// update stream (layouts must agree on VALUES, not just speed).
  bool matches_flat = true;
};

/// Serializes the sweep as one document:
/// {"Bench": "micro_counters", "NumaDomains": N, "Results": [...]}.
void write_counter_bench_json(std::ostream& os, int numa_domains,
                              const std::vector<CounterBenchResult>& results);

/// Writes to `path` (parent directories created). Returns `path`.
std::string write_counter_bench_json_file(
    const std::string& path, int numa_domains,
    const std::vector<CounterBenchResult>& results);

/// One row of the serve-latency bench (BENCH_serve_latency.json schema):
/// request-latency percentiles at one offered load against a store
/// loaded one way (mmap vs stream), plus the cold-start cost and the
/// load-stats byte accounting that proves the mmap path copies nothing.
struct LatencyBenchResult {
  std::string workload;
  std::string load_mode;  // "mmap" | "stream"
  double cold_start_seconds = 0.0;
  std::uint64_t bytes_mapped = 0;
  std::uint64_t bytes_copied = 0;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t cache_hits = 0;
};

/// Serializes the sweep as one document:
/// {"Bench": "serve_latency", "Results": [...]}.
void write_latency_bench_json(std::ostream& os,
                              const std::vector<LatencyBenchResult>& results);

/// Writes to `path` (parent directories created). Returns `path`.
std::string write_latency_bench_json_file(
    const std::string& path, const std::vector<LatencyBenchResult>& results);

/// Serializes an obs registry snapshot as one document:
/// {"Schema": "eimm-metrics-v1", "Metrics": [{"Name": ..., "Kind":
/// "counter"|"gauge"|"histogram", ...}]}. Histogram entries carry
/// Count/Sum/Mean/P50/P99 plus the full fixed bucket array.
void write_metrics_json(std::ostream& os, const obs::MetricsSnapshot& snapshot);

/// Writes to `path` (parent directories created). Returns `path`.
std::string write_metrics_json_file(const std::string& path,
                                    const obs::MetricsSnapshot& snapshot);

/// The serving-side stats surface of one live server, mirrored from the
/// kStats wire body (obs types only — this header stays independent of
/// src/serve).
struct ServingStatsRecord {
  std::uint64_t requests = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t submitted = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;
  std::uint64_t largest_batch = 0;
  std::uint64_t qcache_hits = 0;
  std::uint64_t qcache_misses = 0;
  std::uint64_t qcache_evictions = 0;
  std::uint64_t qcache_entries = 0;
  /// Hot-reload accounting: the serving-epoch generation (1 = the store
  /// the server started with) and how many reloads succeeded/failed.
  std::uint64_t generation = 0;
  std::uint64_t reloads = 0;
  std::uint64_t failed_reloads = 0;
  obs::HistogramSnapshot queue_wait_us;
  obs::HistogramSnapshot batch_size;
  obs::HistogramSnapshot exec_us;
};

/// Serializes a metrics snapshot plus the serving stats surface as one
/// document: the write_metrics_json fields with an extra "Serving"
/// object. This is the periodic --metrics dump of tools/sketch_server.
void write_server_metrics_json(std::ostream& os,
                               const obs::MetricsSnapshot& snapshot,
                               const ServingStatsRecord& serving);

/// Writes to `path` (parent directories created). Returns `path`.
std::string write_server_metrics_json_file(
    const std::string& path, const obs::MetricsSnapshot& snapshot,
    const ServingStatsRecord& serving);

/// One row of the telemetry-overhead bench (BENCH_obs_overhead.json):
/// the same workload run with telemetry off and on, and the relative
/// cost that must stay under the budget.
struct ObsOverheadBenchResult {
  std::string workload;
  int threads = 1;
  int reps = 1;
  double uninstrumented_seconds = 0.0;
  double instrumented_seconds = 0.0;
  double overhead_fraction = 0.0;
  double budget_fraction = 0.02;
  std::uint64_t trace_events = 0;
  std::uint64_t metric_sets_total = 0;
  bool within_budget = true;
};

/// Serializes the rows as one document:
/// {"Bench": "obs_overhead", "Results": [...]}.
void write_obs_overhead_json(std::ostream& os,
                             const std::vector<ObsOverheadBenchResult>& results);

/// Writes to `path` (parent directories created). Returns `path`.
std::string write_obs_overhead_json_file(
    const std::string& path,
    const std::vector<ObsOverheadBenchResult>& results);

/// One row of the fused-sampling bench (BENCH_fused_sampling.json
/// schema): scalar-vs-fused sampling throughput of the sharded pipeline
/// at one (model, shard count), plus the Monte-Carlo spread-ratio check
/// that replaces bit-identity for the fused IC path (fused output is
/// statistically, not bitwise, equivalent to scalar).
struct FusedBenchResult {
  std::string workload;
  std::string model;  // "IC" | "LT"
  int shards = 1;
  int threads = 1;
  std::uint64_t num_rrr_sets = 0;
  double scalar_seconds = 0.0;
  double fused_seconds = 0.0;
  double scalar_sets_per_second = 0.0;
  double fused_sets_per_second = 0.0;
  /// scalar_seconds / fused_seconds (> 1 means fused is faster).
  double speedup = 0.0;
  /// Fused-seed spread / scalar-seed spread (statcheck harness).
  double spread_ratio = 0.0;
  /// spread_ratio >= 1 - tolerance held for this row.
  bool spread_within_tolerance = true;
};

/// Serializes the sweep as one document:
/// {"Bench": "fused_sampling", "NumaDomains": N, "Results": [...]}.
void write_fused_bench_json(std::ostream& os, int numa_domains,
                            const std::vector<FusedBenchResult>& results);

/// Writes to `path` (parent directories created). Returns `path`.
std::string write_fused_bench_json_file(
    const std::string& path, int numa_domains,
    const std::vector<FusedBenchResult>& results);

/// One row of the compressed-pool bench (BENCH_compressed.json schema):
/// pool footprint and selection throughput of one pool backing, plus the
/// compression ratio and seed-identity check against the raw reference.
struct CompressedBenchResult {
  std::string workload;
  std::string backing;  // "flat" | "varint" | "huffman"
  int threads = 1;
  std::uint64_t num_rrr_sets = 0;
  std::uint64_t pool_bytes = 0;
  /// Gap-coded payload bytes only (0 for the flat backing).
  std::uint64_t payload_bytes = 0;
  /// flat pool_bytes / this pool_bytes (1.0 for the flat row).
  double bytes_ratio = 1.0;
  double encode_seconds = 0.0;
  double selection_seconds = 0.0;
  double sets_per_second = 0.0;
  /// this selection_seconds / flat selection_seconds (1.0 for flat).
  double slowdown = 1.0;
  /// Seed sequence bit-matches the flat reference run.
  bool seeds_match_flat = true;
};

/// Serializes the sweep as one document:
/// {"Bench": "compressed_pool", "Results": [...]}.
void write_compressed_bench_json(
    std::ostream& os, const std::vector<CompressedBenchResult>& results);

/// Writes to `path` (parent directories created). Returns `path`.
std::string write_compressed_bench_json_file(
    const std::string& path,
    const std::vector<CompressedBenchResult>& results);

}  // namespace eimm
