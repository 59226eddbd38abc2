#include "io/json_log.hpp"

#include <filesystem>
#include <fstream>
#include <functional>

#include "support/json.hpp"
#include "support/macros.hpp"

namespace eimm {

void write_experiment_json(std::ostream& os, const ExperimentRecord& r) {
  JsonWriter w(os);
  w.begin_object()
      .kv("Input", r.dataset)
      .kv("Algorithm", r.algorithm)
      .kv("DiffusionModel", r.diffusion)
      .kv("NumThreads", static_cast<std::int64_t>(r.threads))
      .kv("K", static_cast<std::int64_t>(r.k))
      .kv("Epsilon", r.epsilon)
      .kv("RngSeed", r.rng_seed)
      .kv("Total", r.total_seconds)
      .kv("GenerateRRRSets", r.sampling_seconds)
      .kv("FindMostInfluentialSet", r.selection_seconds)
      .kv("NumRRRSets", r.num_rrr_sets)
      .kv("RRRSetMemoryBytes", r.rrr_memory_bytes);
  w.key("Seeds").begin_array();
  for (const VertexId s : r.seeds) w.value(static_cast<std::uint64_t>(s));
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_serve_bench_json(std::ostream& os,
                            const std::vector<ServeBenchResult>& results) {
  JsonWriter w(os);
  w.begin_object().kv("Bench", "serve_throughput");
  w.key("Results").begin_array();
  for (const ServeBenchResult& r : results) {
    w.begin_object()
        .kv("Workload", r.workload)
        .kv("Threads", r.threads)
        .kv("QueriesPerSecond", r.queries_per_second)
        .kv("BuildSeconds", r.build_seconds)
        .end_object();
  }
  w.end_array().end_object();
  os << '\n';
}

std::string write_serve_bench_json_file(
    const std::string& path, const std::vector<ServeBenchResult>& results) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream os(path);
  EIMM_CHECK(os.good(), "cannot open bench result file for writing");
  write_serve_bench_json(os, results);
  EIMM_CHECK(os.good(), "bench result write failed");
  return path;
}

void write_sharded_bench_json(std::ostream& os, int numa_domains,
                              const std::vector<ShardedBenchResult>& results) {
  JsonWriter w(os);
  w.begin_object()
      .kv("Bench", "sharded_sampling")
      .kv("NumaDomains", static_cast<std::int64_t>(numa_domains));
  w.key("Results").begin_array();
  for (const ShardedBenchResult& r : results) {
    w.begin_object()
        .kv("Workload", r.workload)
        .kv("Shards", r.shards)
        .kv("Threads", r.threads)
        .kv("SamplingSeconds", r.sampling_seconds)
        .kv("SetsPerSecond", r.sets_per_second)
        .kv("NumRRRSets", r.num_rrr_sets)
        .kv("PoolMatchesUnsharded", r.pool_matches_unsharded)
        .end_object();
  }
  w.end_array().end_object();
  os << '\n';
}

void write_fused_bench_json(std::ostream& os, int numa_domains,
                            const std::vector<FusedBenchResult>& results) {
  JsonWriter w(os);
  w.begin_object()
      .kv("Bench", "fused_sampling")
      .kv("NumaDomains", static_cast<std::int64_t>(numa_domains));
  w.key("Results").begin_array();
  for (const FusedBenchResult& r : results) {
    w.begin_object()
        .kv("Workload", r.workload)
        .kv("Model", r.model)
        .kv("Shards", r.shards)
        .kv("Threads", r.threads)
        .kv("NumRRRSets", r.num_rrr_sets)
        .kv("ScalarSeconds", r.scalar_seconds)
        .kv("FusedSeconds", r.fused_seconds)
        .kv("ScalarSetsPerSecond", r.scalar_sets_per_second)
        .kv("FusedSetsPerSecond", r.fused_sets_per_second)
        .kv("Speedup", r.speedup)
        .kv("SpreadRatio", r.spread_ratio)
        .kv("SpreadWithinTolerance", r.spread_within_tolerance)
        .end_object();
  }
  w.end_array().end_object();
  os << '\n';
}

std::string write_fused_bench_json_file(
    const std::string& path, int numa_domains,
    const std::vector<FusedBenchResult>& results) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream os(path);
  EIMM_CHECK(os.good(), "cannot open bench result file for writing");
  write_fused_bench_json(os, numa_domains, results);
  EIMM_CHECK(os.good(), "bench result write failed");
  return path;
}

std::string write_sharded_bench_json_file(
    const std::string& path, int numa_domains,
    const std::vector<ShardedBenchResult>& results) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream os(path);
  EIMM_CHECK(os.good(), "cannot open bench result file for writing");
  write_sharded_bench_json(os, numa_domains, results);
  EIMM_CHECK(os.good(), "bench result write failed");
  return path;
}

void write_counter_bench_json(std::ostream& os, int numa_domains,
                              const std::vector<CounterBenchResult>& results) {
  JsonWriter w(os);
  w.begin_object()
      .kv("Bench", "micro_counters")
      .kv("NumaDomains", static_cast<std::int64_t>(numa_domains));
  w.key("Results").begin_array();
  for (const CounterBenchResult& r : results) {
    w.begin_object()
        .kv("Layout", r.layout)
        .kv("Shards", r.shards)
        .kv("Threads", r.threads)
        .kv("UpdateSeconds", r.update_seconds)
        .kv("UpdatesPerSecond", r.updates_per_second)
        .kv("ArgmaxSeconds", r.argmax_seconds)
        .kv("MatchesFlat", r.matches_flat)
        .end_object();
  }
  w.end_array().end_object();
  os << '\n';
}

std::string write_counter_bench_json_file(
    const std::string& path, int numa_domains,
    const std::vector<CounterBenchResult>& results) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream os(path);
  EIMM_CHECK(os.good(), "cannot open bench result file for writing");
  write_counter_bench_json(os, numa_domains, results);
  EIMM_CHECK(os.good(), "bench result write failed");
  return path;
}

void write_latency_bench_json(std::ostream& os,
                              const std::vector<LatencyBenchResult>& results) {
  JsonWriter w(os);
  w.begin_object().kv("Bench", "serve_latency");
  w.key("Results").begin_array();
  for (const LatencyBenchResult& r : results) {
    w.begin_object()
        .kv("Workload", r.workload)
        .kv("LoadMode", r.load_mode)
        .kv("ColdStartSeconds", r.cold_start_seconds)
        .kv("BytesMapped", r.bytes_mapped)
        .kv("BytesCopied", r.bytes_copied)
        .kv("OfferedQps", r.offered_qps)
        .kv("AchievedQps", r.achieved_qps)
        .kv("P50Ms", r.p50_ms)
        .kv("P99Ms", r.p99_ms)
        .kv("Requests", r.requests)
        .kv("Timeouts", r.timeouts)
        .kv("CacheHits", r.cache_hits)
        .end_object();
  }
  w.end_array().end_object();
  os << '\n';
}

std::string write_latency_bench_json_file(
    const std::string& path, const std::vector<LatencyBenchResult>& results) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream os(path);
  EIMM_CHECK(os.good(), "cannot open bench result file for writing");
  write_latency_bench_json(os, results);
  EIMM_CHECK(os.good(), "bench result write failed");
  return path;
}

namespace {

/// The shared histogram serialization of the metrics/serving writers.
void write_histogram_fields(JsonWriter& w,
                            const obs::HistogramSnapshot& histogram) {
  w.kv("Count", histogram.count)
      .kv("Sum", histogram.sum)
      .kv("Mean", histogram.mean())
      .kv("P50", histogram.quantile(0.5))
      .kv("P99", histogram.quantile(0.99));
  w.key("Buckets").begin_array();
  for (const std::uint64_t bucket : histogram.buckets) w.value(bucket);
  w.end_array();
}

void write_metric_entries(JsonWriter& w,
                          const obs::MetricsSnapshot& snapshot) {
  w.key("Metrics").begin_array();
  for (const obs::MetricValue& metric : snapshot.entries) {
    w.begin_object()
        .kv("Name", metric.name)
        .kv("Kind", obs::to_string(metric.kind));
    switch (metric.kind) {
      case obs::MetricKind::kCounter:
        w.kv("Value", metric.value);
        break;
      case obs::MetricKind::kGauge:
        w.kv("Value", static_cast<std::int64_t>(metric.gauge));
        break;
      case obs::MetricKind::kHistogram:
        write_histogram_fields(w, metric.histogram);
        break;
    }
    w.end_object();
  }
  w.end_array();
}

std::string write_json_file(const std::string& path,
                            const std::function<void(std::ostream&)>& body) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream os(path);
  EIMM_CHECK(os.good(), "cannot open metrics file for writing");
  body(os);
  EIMM_CHECK(os.good(), "metrics write failed");
  return path;
}

}  // namespace

void write_metrics_json(std::ostream& os,
                        const obs::MetricsSnapshot& snapshot) {
  JsonWriter w(os);
  w.begin_object().kv("Schema", "eimm-metrics-v1");
  write_metric_entries(w, snapshot);
  w.end_object();
  os << '\n';
}

std::string write_metrics_json_file(const std::string& path,
                                    const obs::MetricsSnapshot& snapshot) {
  return write_json_file(
      path, [&](std::ostream& os) { write_metrics_json(os, snapshot); });
}

void write_server_metrics_json(std::ostream& os,
                               const obs::MetricsSnapshot& snapshot,
                               const ServingStatsRecord& serving) {
  JsonWriter w(os);
  w.begin_object().kv("Schema", "eimm-metrics-v1");
  write_metric_entries(w, snapshot);
  w.key("Serving").begin_object();
  w.kv("Requests", serving.requests)
      .kv("Timeouts", serving.timeouts)
      .kv("Submitted", serving.submitted)
      .kv("CacheHits", serving.cache_hits)
      .kv("Rejected", serving.rejected)
      .kv("Batches", serving.batches)
      .kv("LargestBatch", serving.largest_batch)
      .kv("QueryCacheHits", serving.qcache_hits)
      .kv("QueryCacheMisses", serving.qcache_misses)
      .kv("QueryCacheEvictions", serving.qcache_evictions)
      .kv("QueryCacheEntries", serving.qcache_entries)
      .kv("Generation", serving.generation)
      .kv("Reloads", serving.reloads)
      .kv("FailedReloads", serving.failed_reloads);
  w.key("QueueWaitMicros").begin_object();
  write_histogram_fields(w, serving.queue_wait_us);
  w.end_object();
  w.key("BatchSize").begin_object();
  write_histogram_fields(w, serving.batch_size);
  w.end_object();
  w.key("ExecMicros").begin_object();
  write_histogram_fields(w, serving.exec_us);
  w.end_object();
  w.end_object();  // Serving
  w.end_object();
  os << '\n';
}

std::string write_server_metrics_json_file(
    const std::string& path, const obs::MetricsSnapshot& snapshot,
    const ServingStatsRecord& serving) {
  return write_json_file(path, [&](std::ostream& os) {
    write_server_metrics_json(os, snapshot, serving);
  });
}

void write_obs_overhead_json(
    std::ostream& os, const std::vector<ObsOverheadBenchResult>& results) {
  JsonWriter w(os);
  w.begin_object().kv("Bench", "obs_overhead");
  w.key("Results").begin_array();
  for (const ObsOverheadBenchResult& r : results) {
    w.begin_object()
        .kv("Workload", r.workload)
        .kv("Threads", r.threads)
        .kv("Reps", r.reps)
        .kv("UninstrumentedSeconds", r.uninstrumented_seconds)
        .kv("InstrumentedSeconds", r.instrumented_seconds)
        .kv("OverheadFraction", r.overhead_fraction)
        .kv("BudgetFraction", r.budget_fraction)
        .kv("TraceEvents", r.trace_events)
        .kv("MetricSetsTotal", r.metric_sets_total)
        .kv("WithinBudget", r.within_budget)
        .end_object();
  }
  w.end_array().end_object();
  os << '\n';
}

std::string write_obs_overhead_json_file(
    const std::string& path,
    const std::vector<ObsOverheadBenchResult>& results) {
  return write_json_file(path, [&](std::ostream& os) {
    write_obs_overhead_json(os, results);
  });
}

void write_compressed_bench_json(
    std::ostream& os, const std::vector<CompressedBenchResult>& results) {
  JsonWriter w(os);
  w.begin_object().kv("Bench", "compressed_pool");
  w.key("Results").begin_array();
  for (const CompressedBenchResult& r : results) {
    w.begin_object()
        .kv("Workload", r.workload)
        .kv("Backing", r.backing)
        .kv("Threads", r.threads)
        .kv("NumRRRSets", r.num_rrr_sets)
        .kv("PoolBytes", r.pool_bytes)
        .kv("PayloadBytes", r.payload_bytes)
        .kv("BytesRatio", r.bytes_ratio)
        .kv("EncodeSeconds", r.encode_seconds)
        .kv("SelectionSeconds", r.selection_seconds)
        .kv("SetsPerSecond", r.sets_per_second)
        .kv("Slowdown", r.slowdown)
        .kv("SeedsMatchFlat", r.seeds_match_flat)
        .end_object();
  }
  w.end_array().end_object();
  os << '\n';
}

std::string write_compressed_bench_json_file(
    const std::string& path,
    const std::vector<CompressedBenchResult>& results) {
  return write_json_file(path, [&](std::ostream& os) {
    write_compressed_bench_json(os, results);
  });
}

std::string write_experiment_json_file(const std::string& dir,
                                       const ExperimentRecord& record) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + record.dataset + "_" +
                           record.algorithm + "_" +
                           std::to_string(record.threads) + ".json";
  std::ofstream os(path);
  EIMM_CHECK(os.good(), "cannot open experiment log for writing");
  write_experiment_json(os, record);
  return path;
}

}  // namespace eimm
