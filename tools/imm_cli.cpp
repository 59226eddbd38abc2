// imm_cli — the command-line driver, analogous to Ripples' `imm` tool.
//
// Runs either engine on a SNAP edge list, a binary graph, or one of the
// built-in workload analogues, and writes an artifact-style JSON log.
//
//   imm_cli --workload com-Amazon --model IC --k 50 --epsilon 0.5
//   imm_cli --graph soc-pokec.txt --model LT --engine ripples --threads 8
//   imm_cli --workload twitter7 --scale 0.5 --log-dir strong-scaling-logs
//
// Options:
//   --graph PATH        SNAP edge-list input (mutually exclusive with
//                       --workload / --binary)
//   --binary PATH       binary CSR input (see make_dataset)
//   --workload NAME     built-in analogue (com-Amazon ... twitter7)
//   --scale F           workload scale factor (default 1.0)
//   --undirected        symmetrize the input edge list
//   --model IC|LT       diffusion model (default IC)
//   --engine efficient|ripples   (default efficient)
//   --k N               seed budget (default 50)
//   --epsilon F         accuracy (default 0.5)
//   --threads N         OpenMP threads (default: all)
//   --seed N            RNG seed (default 0x5EEDBA5E)
//   --max-rrr N         RRR-set cap (default 4194304)
//   --no-fusion --no-adaptive-repr --no-adaptive-update --no-balance
//   --no-numa           disable individual EfficientIMM features
//   --pin MODE          thread pinning: auto|none|compact|spread
//                       (default: EIMM_PIN, then auto)
//   --counter-shards N  NUMA counter replicas for selection (default:
//                       EIMM_COUNTER_SHARDS, then the domain count;
//                       1 = legacy flat counter)
//   --fused             fused 64-wide IC RRR generation (default:
//                       EIMM_FUSED, then on); IC output is
//                       statistically, not bitwise, equivalent to the
//                       scalar pipeline. LT always samples scalar, so
//                       the flag leaves LT runs unchanged
//   --simulate N        verify seeds with N Monte-Carlo cascades
//   --log-dir DIR       write the artifact-style JSON log into DIR
//   --metrics PATH      write the obs metrics-registry snapshot as JSON
//                       (set EIMM_TRACE=out.json for a Chrome trace)
//   --verbose           print martingale iteration telemetry (also set
//                       EIMM_VERBOSE=1 for the effective pinning map)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "cli_flags.hpp"
#include "core/imm.hpp"
#include "diffusion/weights.hpp"
#include "graph/builder.hpp"
#include "graph/stats.hpp"
#include "io/binary.hpp"
#include "io/edgelist.hpp"
#include "io/json_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/affinity.hpp"
#include "simulate/spread.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace eimm;

struct CliOptions {
  std::optional<std::string> graph_path;
  std::optional<std::string> binary_path;
  std::optional<std::string> workload;
  double scale = 1.0;
  bool undirected = false;
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  Engine engine = Engine::kEfficient;
  ImmOptions imm;
  int simulate_samples = 0;
  std::optional<std::string> log_dir;
  std::optional<std::string> metrics_path;
  bool verbose = false;
};

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: %s (--graph PATH | --binary PATH | --workload NAME)\n"
               "          [--scale F] [--undirected] [--model IC|LT]\n"
               "          [--engine efficient|ripples] [--k N] [--epsilon F]\n"
               "          [--threads N] [--seed N] [--max-rrr N]\n"
               "          [--no-fusion] [--no-adaptive-repr]\n"
               "          [--no-adaptive-update] [--no-balance] [--no-numa]\n"
               "          [--pin auto|none|compact|spread]\n"
               "          [--counter-shards N] [--fused]\n"
               "          [--simulate N] [--log-dir DIR] [--verbose]\n"
               "          [--metrics OUT.json]\n",
               argv0);
  std::exit(error != nullptr ? 2 : 0);
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  options.imm.max_rrr_sets = 1u << 22;
  const cli::FlagParser flags(usage, argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], ("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--graph") options.graph_path = next();
    else if (arg == "--binary") options.binary_path = next();
    else if (arg == "--workload") options.workload = next();
    else if (arg == "--scale") options.scale = flags.number(arg, next());
    else if (arg == "--undirected") options.undirected = true;
    else if (arg == "--model") options.model = parse_model(next());
    else if (arg == "--engine") {
      const std::string engine = next();
      if (engine == "efficient") options.engine = Engine::kEfficient;
      else if (engine == "ripples") options.engine = Engine::kRipples;
      else usage(argv[0], "engine must be 'efficient' or 'ripples'");
    } else if (arg == "--k") {
      options.imm.k = flags.integer<std::size_t>(arg, next(), 1);
    } else if (arg == "--epsilon") {
      options.imm.epsilon = flags.number(arg, next());
    } else if (arg == "--threads") {
      options.imm.threads = flags.integer<int>(arg, next(), 0);
    } else if (arg == "--seed") {
      options.imm.rng_seed = flags.integer<std::uint64_t>(arg, next());
    } else if (arg == "--max-rrr") {
      options.imm.max_rrr_sets = flags.integer<std::uint64_t>(arg, next(), 1);
    } else if (arg == "--pin") {
      bool ok = false;
      const PinMode mode = parse_pin_mode(next(), PinMode::kAuto, &ok);
      if (!ok) usage(argv[0], "--pin must be auto|none|compact|spread");
      set_pin_mode(mode);
    } else if (arg == "--counter-shards") {
      options.imm.counter_shards = flags.integer<int>(arg, next(), 1);
    } else if (arg == "--fused") {
      options.imm.fused_sampling = FusedSampling::kOn;
    } else if (arg == "--no-fusion") options.imm.kernel_fusion = false;
    else if (arg == "--no-adaptive-repr") options.imm.adaptive_representation = false;
    else if (arg == "--no-adaptive-update") options.imm.adaptive_update = false;
    else if (arg == "--no-balance") options.imm.dynamic_balance = false;
    else if (arg == "--no-numa") options.imm.numa_aware = false;
    else if (arg == "--simulate") {
      options.simulate_samples = flags.integer<int>(arg, next(), 0);
    } else if (arg == "--log-dir") options.log_dir = next();
    else if (arg == "--metrics") options.metrics_path = next();
    else if (arg == "--verbose") options.verbose = true;
    else if (arg == "--help" || arg == "-h") usage(argv[0]);
    else usage(argv[0], ("unknown option " + arg).c_str());
  }
  const int sources = (options.graph_path ? 1 : 0) +
                      (options.binary_path ? 1 : 0) +
                      (options.workload ? 1 : 0);
  if (sources != 1) {
    usage(argv[0], "exactly one of --graph / --binary / --workload required");
  }
  options.imm.model = options.model;
  return options;
}

int run_cli(int argc, char** argv) {
  CliOptions options = parse_cli(argc, argv);

  // --- Load the graph ---
  DiffusionGraph graph;
  std::string dataset_name;
  if (options.workload) {
    dataset_name = *options.workload;
    if (!find_workload(dataset_name)) {
      std::fprintf(stderr, "unknown workload '%s'; available:\n",
                   dataset_name.c_str());
      for (const auto& spec : workload_specs()) {
        std::fprintf(stderr, "  %s\n", spec.name.c_str());
      }
      return 2;
    }
    graph = make_workload(dataset_name, options.scale, options.imm.rng_seed);
  } else if (options.graph_path) {
    dataset_name = *options.graph_path;
    BuildOptions build;
    build.symmetrize = options.undirected;
    graph = build_diffusion_graph(read_edge_list_file(*options.graph_path),
                                  0, build);
  } else {
    dataset_name = *options.binary_path;
    graph = DiffusionGraph::from_forward(
        read_binary_csr_file(*options.binary_path));
  }
  assign_paper_weights(graph.reverse, options.model,
                       hash_combine64(options.imm.rng_seed, 0x77));

  const GraphStats stats = compute_graph_stats(graph.forward, false);
  std::printf("dataset: %s (%s)\n", dataset_name.c_str(),
              describe(stats).c_str());
  std::printf("engine: %s, model: %s, k=%zu, eps=%.3f\n",
              std::string(to_string(options.engine)).c_str(),
              std::string(to_string(options.model)).c_str(), options.imm.k,
              options.imm.epsilon);

  // --- Run ---
  const ImmResult result = run_imm(graph, options.imm, options.engine);

  std::printf("\nseeds:");
  for (const VertexId s : result.seeds) std::printf(" %u", s);
  std::printf("\nestimated spread: %.1f (%.2f%% of |V|)\n",
              result.estimated_spread,
              100.0 * result.coverage_fraction);
  std::printf("theta: %llu, sets generated: %llu%s, bitmap sets: %llu\n",
              static_cast<unsigned long long>(result.theta),
              static_cast<unsigned long long>(result.num_rrr_sets),
              result.theta_capped ? " (CAPPED)" : "",
              static_cast<unsigned long long>(result.bitmap_sets));
  std::printf("time: %.3fs = %.3fs sampling + %.3fs selection (%d threads)\n",
              result.breakdown.total_seconds,
              result.breakdown.sampling_seconds,
              result.breakdown.selection_seconds, result.threads_used);
  std::printf("numa: %d sampling shard(s), %d counter shard(s), pin=%s%s\n",
              result.shards_used, result.counter_shards_used,
              std::string(to_string(effective_pin_mode(resolve_pin_mode(),
                                                       numa_topology())))
                  .c_str(),
              result.fused_sampling_used ? ", fused sampling" : "");

  if (options.verbose) {
    std::printf("\nmartingale iterations:\n");
    for (const MartingaleIteration& it : result.iterations) {
      const auto theta = static_cast<unsigned long long>(it.theta);
      if (it.skipped) {
        std::printf("  i=%u theta=%llu bound<=%.4f skipped\n", it.iteration,
                    theta, it.coverage_bound);
        continue;
      }
      std::printf("  i=%u theta=%llu coverage=%.4f LB=%.1f %s\n",
                  it.iteration, theta, it.coverage, it.lower_bound,
                  it.accepted ? "ACCEPTED" : "rejected");
    }
  }

  if (options.simulate_samples > 0) {
    mirror_weights_to_forward(graph.reverse, graph.forward);
    SpreadOptions spread_options;
    spread_options.num_samples = options.simulate_samples;
    const double simulated = estimate_spread(graph.forward, options.model,
                                             result.seeds, spread_options);
    std::printf("\nMonte-Carlo verification (%d cascades): spread %.1f "
                "(estimator said %.1f)\n",
                options.simulate_samples, simulated,
                result.estimated_spread);
  }

  if (options.log_dir) {
    ExperimentRecord record;
    record.dataset = dataset_name;
    record.algorithm = std::string(to_string(options.engine));
    record.diffusion = std::string(to_string(options.model));
    record.threads = result.threads_used;
    record.k = static_cast<int>(options.imm.k);
    record.epsilon = options.imm.epsilon;
    record.rng_seed = options.imm.rng_seed;
    record.total_seconds = result.breakdown.total_seconds;
    record.sampling_seconds = result.breakdown.sampling_seconds;
    record.selection_seconds = result.breakdown.selection_seconds;
    record.num_rrr_sets = result.num_rrr_sets;
    record.rrr_memory_bytes = result.rrr_memory_bytes;
    record.seeds = result.seeds;
    const std::string path = write_experiment_json_file(*options.log_dir,
                                                        record);
    std::printf("log: %s\n", path.c_str());
  }

  if (options.metrics_path) {
    const std::string path =
        write_metrics_json_file(*options.metrics_path, obs::snapshot_metrics());
    std::printf("metrics: %s\n", path.c_str());
  }
  if (obs::trace_enabled()) {
    // Flush eagerly (the atexit hook would also do it) so the path is
    // printed and write errors surface as a CLI diagnostic.
    std::printf("trace: %s\n", obs::flush_trace().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    // Unreadable graph files and impossible parameters must exit with a
    // one-line diagnostic, never an unhandled-exception trace.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
