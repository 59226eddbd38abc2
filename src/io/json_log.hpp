// Experiment logs mirroring the SC'24 artifact output: each run emits one
// JSON document with the configuration, per-phase timings, and the seed
// set (the artifact's strong-scaling-logs-* directories hold the same
// fields). extract-style CSV summaries are produced by the benches.
// Every *_file writer throws CheckError when the file cannot be opened
// or written in full (the file is closed before the stream is checked).
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
  std::uint64_t prefix_reads = 0;
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

}  // namespace eimm
