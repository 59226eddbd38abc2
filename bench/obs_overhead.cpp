// obs_overhead — proves the telemetry layer (metrics registry updates +
// trace spans) stays within its cost budget on the end-to-end IMM
// pipeline:
//
//   uninstrumented — EIMM metrics disabled, tracing off.
//   instrumented   — metrics on AND tracing on (spans buffered to a
//                    throwaway file), i.e. the most expensive
//                    observability configuration a user can enable.
//
// Both modes run the identical workload; the bench asserts the seed
// sequences bit-match (telemetry must never perturb results), that the
// instrumented run actually recorded telemetry (non-zero sampling
// counter and trace events — an accidentally-disabled probe would make
// the overhead claim vacuous), and that the relative overhead stays
// under the budget. The overhead is the median, over reps, of each
// instrumented rep's time divided by the baseline rep run just before
// it: pairing neighbours cancels drift that moves both, and the median
// ignores the odd rep a noisy neighbour hit, where a per-mode minimum
// swings with whichever mode drew the luckiest rep. Exits non-zero on
// any violation. Emits a human table plus machine-readable
// BENCH_obs_overhead.json.
//
// Extra knobs on top of the common EIMM_* set:
//   EIMM_OBS_WORKLOAD  workload to run (default com-Amazon)
//   EIMM_OBS_BUDGET    allowed overhead fraction (default 0.02)
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/imm.hpp"
#include "io/json_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/env.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

using namespace eimm;
using namespace eimm::bench;

int main() {
  const BenchConfig config = load_config();
  print_banner("obs_overhead — telemetry cost on the end-to-end pipeline",
               config);

  const std::string workload =
      env_string("EIMM_OBS_WORKLOAD").value_or("com-Amazon");
  const double budget = env_double("EIMM_OBS_BUDGET", 0.02);
  // The paired median needs several pairs even when the suite runs
  // reps=1.
  const int reps = std::max(3, config.reps);

  const DiffusionGraph graph =
      load_workload(config, workload, DiffusionModel::kIndependentCascade);
  const ImmOptions options = imm_options(
      config, DiffusionModel::kIndependentCascade, config.max_threads);

  // Interleave the two modes rep by rep (baseline, instrumented,
  // baseline, ...) so each instrumented rep has a baseline neighbour
  // that saw the same slow drift — page-cache warm-up, frequency
  // scaling, a noisy neighbour. One untimed warm-up first.
  const std::string trace_path =
      bench_json_path("BENCH_obs_overhead_trace.json");
  obs::set_trace_path("");
  obs::set_metrics_enabled(false);
  (void)run_efficient_imm(graph, options);

  ImmResult baseline_run;
  ImmResult instrumented_run;
  std::vector<double> off_seconds;
  std::vector<double> on_seconds;
  std::vector<double> pair_ratios;
  for (int rep = 0; rep < reps; ++rep) {
    obs::set_trace_path("");
    obs::set_metrics_enabled(false);
    baseline_run = run_efficient_imm(graph, options);
    const double off = baseline_run.breakdown.total_seconds;

    obs::set_metrics_enabled(true);
    obs::set_trace_path(trace_path);
    instrumented_run = run_efficient_imm(graph, options);
    const double on = instrumented_run.breakdown.total_seconds;

    off_seconds.push_back(off);
    on_seconds.push_back(on);
    if (off > 0.0) pair_ratios.push_back(on / off);
  }
  const double uninstrumented_seconds = median(off_seconds);
  const double instrumented_seconds = median(on_seconds);
  const std::size_t trace_events = obs::trace_event_count();
  const obs::MetricsSnapshot metrics = obs::snapshot_metrics();
  obs::flush_trace();
  obs::set_trace_path("");  // don't re-flush at exit

  const obs::MetricValue* sets = metrics.find("sampling.sets_total");
  const std::uint64_t metric_sets = sets != nullptr ? sets->value : 0;

  ObsOverheadBenchResult row;
  row.workload = workload;
  row.threads = config.max_threads;
  row.reps = reps;
  row.uninstrumented_seconds = uninstrumented_seconds;
  row.instrumented_seconds = instrumented_seconds;
  row.overhead_fraction =
      pair_ratios.empty() ? 0.0 : median(pair_ratios) - 1.0;
  row.budget_fraction = budget;
  row.trace_events = trace_events;
  row.metric_sets_total = metric_sets;

  const bool seeds_match = baseline_run.seeds == instrumented_run.seeds;
  const bool recorded = metric_sets > 0 && trace_events > 0;
  row.within_budget = row.overhead_fraction <= budget;

  AsciiTable table({"Mode", "Total s", "Overhead", "Trace events",
                    "Metric sets"});
  table.new_row()
      .add("uninstrumented")
      .add(uninstrumented_seconds, 4)
      .add("-")
      .add(std::uint64_t{0})
      .add(std::uint64_t{0});
  table.new_row()
      .add("instrumented")
      .add(instrumented_seconds, 4)
      .add(row.overhead_fraction * 100.0, 2)
      .add(static_cast<std::uint64_t>(trace_events))
      .add(metric_sets);
  table.set_title("Telemetry overhead: " + workload + " (budget " +
                  std::to_string(budget * 100.0) +
                  "%, median seconds and median paired ratio of " +
                  std::to_string(reps) + " reps)");
  table.print(std::cout);

  const std::string path = write_obs_overhead_json_file(
      bench_json_path("BENCH_obs_overhead.json"), {row});
  std::printf("\nresults: %s\ntrace: %s\n", path.c_str(), trace_path.c_str());

  if (!seeds_match) {
    std::fprintf(stderr, "FAIL: instrumented seeds deviate from baseline\n");
    return 1;
  }
  if (!recorded) {
    std::fprintf(stderr,
                 "FAIL: instrumented run recorded no telemetry "
                 "(sets=%llu, trace events=%zu)\n",
                 static_cast<unsigned long long>(metric_sets), trace_events);
    return 1;
  }
  if (!row.within_budget) {
    std::fprintf(stderr, "FAIL: overhead %.2f%% exceeds budget %.2f%%\n",
                 row.overhead_fraction * 100.0, budget * 100.0);
    return 1;
  }
  std::printf("overhead %.2f%% within budget %.2f%%\n",
              row.overhead_fraction * 100.0, budget * 100.0);
  return 0;
}
