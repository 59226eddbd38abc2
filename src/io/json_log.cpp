#include "io/json_log.hpp"

#include <filesystem>
#include <functional>

#include "io/write_file.hpp"
#include "support/json.hpp"
#include "support/macros.hpp"

namespace eimm {

namespace {

/// The one file sink of every *_file writer: creates the parent
/// directories, then writes through the checked io/write_file sink.
std::string write_json_file(const std::string& path,
                            const std::function<void(std::ostream&)>& body) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  write_file(path, "JSON file", body);
  return path;
}

}  // namespace

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
  return write_json_file(path, [&](std::ostream& os) {
    write_fused_bench_json(os, numa_domains, results);
  });
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

std::string write_experiment_json_file(const std::string& dir,
                                       const ExperimentRecord& record) {
  return write_json_file(
      dir + "/" + record.dataset + "_" + record.algorithm + "_" +
          std::to_string(record.threads) + ".json",
      [&](std::ostream& os) { write_experiment_json(os, record); });
}

}  // namespace eimm
