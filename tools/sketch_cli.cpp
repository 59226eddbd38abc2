// sketch_cli — build-once / query-many driver for the serve subsystem.
//
//   sketch_cli build --workload com-Amazon --scale 0.1 --k 25 [--out s.sks]
//   sketch_cli save  --workload com-DBLP --out store.sks
//   sketch_cli load  --store store.sks
//   sketch_cli query --store store.sks --k 10 --forbid 3,17
//   sketch_cli query --store store.sks --k 5 --candidates 1,2,3,4,5
//   sketch_cli query --store store.sks --eval 9,4,12
//   sketch_cli verify store.sks
//
// Verbs:
//   build   construct a store from a workload/graph; --out saves it
//   save    build with a mandatory --out (explicit snapshot step)
//   load    load a snapshot and print its header/summary
//   query   load a snapshot and answer one query (top-k, constrained,
//           or --eval marginal-gain evaluation of given seeds)
//   verify  one-shot integrity check (structure + v4 section checksums
//           + deep payload scan); exits non-zero on corruption with a
//           one-line section/offset diagnostic
//
// Build options mirror imm_cli: --workload NAME | --graph PATH |
// --binary PATH, --scale F, --undirected, --model IC|LT, --k N (the
// build-time query cap), --epsilon F, --threads N, --seed N, --max-rrr N.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "diffusion/weights.hpp"
#include "graph/builder.hpp"
#include "io/binary.hpp"
#include "io/edgelist.hpp"
#include "io/json_log.hpp"
#include "obs/metrics.hpp"
#include "runtime/affinity.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "support/rng.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace eimm;

struct CliOptions {
  std::string verb;
  std::optional<std::string> graph_path;
  std::optional<std::string> binary_path;
  std::optional<std::string> workload;
  std::optional<std::string> store_path;
  std::optional<std::string> out_path;
  double scale = 1.0;
  bool undirected = false;
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  ImmOptions imm;
  std::size_t query_k = 0;
  std::vector<VertexId> candidates;
  std::vector<VertexId> forbidden;
  std::vector<VertexId> eval_seeds;
  SnapshotLoadOptions load;
  SnapshotSaveOptions save;
  std::optional<std::string> metrics_path;
};

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: %s build|save (--workload NAME | --graph PATH | --binary PATH)\n"
      "          [--scale F] [--undirected] [--model IC|LT] [--k N]\n"
      "          [--epsilon F] [--threads N] [--seed N] [--max-rrr N]\n"
      "          [--shards N]   (NUMA sampling shards; default EIMM_SHARDS\n"
      "                          or the detected domain count)\n"
      "          [--counter-shards N]  (NUMA selection-counter replicas;\n"
      "                          default EIMM_COUNTER_SHARDS or the domain\n"
      "                          count; 1 = legacy flat counter)\n"
      "          [--pin auto|none|compact|spread]  (thread pinning;\n"
      "                          default EIMM_PIN, then auto)\n"
      "          [--out PATH]   (--out required for 'save')\n"
      "          [--compress]   (save the snapshot with gap-coded sketch\n"
      "                          payload: smaller when sketches have many\n"
      "                          members, but its 8-byte-per-sketch offset\n"
      "                          section can make snapshots of ~2-member\n"
      "                          sketches larger; saves are always v4\n"
      "                          with per-section CRC32C checksums)\n"
      "       %s load --store PATH [--stream] [--deep-validate]\n"
      "       %s query --store PATH (--k N [--candidates LIST]\n"
      "          [--forbid LIST] | --eval LIST) [--stream] [--deep-validate]\n"
      "          LIST = comma-separated ids\n"
      "       %s verify SNAPSHOT   (one-shot integrity check: structure,\n"
      "          section checksums, payload and derived-state scans;\n"
      "          exits non-zero with a one-line diagnostic on corruption)\n"
      "       snapshots are v4 and mmap by default (other versions fail:\n"
      "       rebuild them with save); --stream copies the whole file\n"
      "       instead and verifies checksums and payload during the load;\n"
      "       --deep-validate adds the O(pool) derived-state scan\n"
      "       any verb accepts --metrics OUT.json (obs registry snapshot)\n",
      argv0, argv0, argv0, argv0);
  std::exit(error != nullptr ? 2 : 0);
}

CliOptions parse_cli(int argc, char** argv) {
  if (argc < 2) usage(argv[0], "missing verb");
  CliOptions options;
  options.verb = argv[1];
  if (options.verb != "build" && options.verb != "save" &&
      options.verb != "load" && options.verb != "query" &&
      options.verb != "verify") {
    if (options.verb == "--help" || options.verb == "-h") usage(argv[0]);
    usage(argv[0], "verb must be build, save, load, query, or verify");
  }
  options.imm.max_rrr_sets = 1u << 20;
  const cli::FlagParser flags(usage, argv[0]);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], ("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--graph") options.graph_path = next();
    else if (arg == "--binary") options.binary_path = next();
    else if (arg == "--workload") options.workload = next();
    else if (arg == "--store") options.store_path = next();
    else if (arg == "--out") options.out_path = next();
    else if (arg == "--scale") {
      options.scale = flags.number(arg, next());
    } else if (arg == "--undirected") options.undirected = true;
    else if (arg == "--model") options.model = parse_model(next());
    else if (arg == "--k") {
      options.imm.k = flags.integer<std::size_t>(arg, next(), 1);
      options.query_k = options.imm.k;
    } else if (arg == "--epsilon") {
      options.imm.epsilon = flags.number(arg, next());
    } else if (arg == "--threads") {
      options.imm.threads = flags.integer<int>(arg, next(), 0);
    } else if (arg == "--shards") {
      options.imm.shards = flags.integer<int>(arg, next(), 1);
    } else if (arg == "--counter-shards") {
      options.imm.counter_shards = flags.integer<int>(arg, next(), 1);
    } else if (arg == "--pin") {
      bool ok = false;
      const PinMode mode = parse_pin_mode(next(), PinMode::kAuto, &ok);
      if (!ok) usage(argv[0], "--pin must be auto|none|compact|spread");
      set_pin_mode(mode);
    } else if (arg == "--seed") {
      options.imm.rng_seed = flags.integer<std::uint64_t>(arg, next());
    } else if (arg == "--max-rrr") {
      options.imm.max_rrr_sets = flags.integer<std::uint64_t>(arg, next(), 1);
    } else if (arg == "--candidates") {
      options.candidates = flags.vertex_list(arg, next());
    } else if (arg == "--forbid") {
      options.forbidden = flags.vertex_list(arg, next());
    } else if (arg == "--eval") {
      options.eval_seeds = flags.vertex_list(arg, next());
    } else if (arg == "--stream") {
      options.load.mode = SnapshotLoadMode::kStream;
    } else if (arg == "--compress") {
      options.save.compress = true;
    } else if (arg == "--metrics") {
      options.metrics_path = next();
    } else if (arg == "--deep-validate") {
      options.load.deep_validate = true;
    } else if (arg == "--help" || arg == "-h") usage(argv[0]);
    else if (options.verb == "verify" && !options.store_path &&
             arg.rfind("--", 0) != 0) {
      options.store_path = arg;  // `sketch_cli verify SNAPSHOT`
    } else usage(argv[0], ("unknown option " + arg).c_str());
  }
  return options;
}

void print_store_summary(const SketchStore& store) {
  const SketchStoreMeta& meta = store.meta();
  std::printf("store: workload=%s model=%s seed=%llu epsilon=%.3f\n",
              meta.workload.empty() ? "(unnamed)" : meta.workload.c_str(),
              meta.model.c_str(),
              static_cast<unsigned long long>(meta.rng_seed), meta.epsilon);
  std::printf("       |V|=%u sketches=%llu (theta=%llu%s) k_max=%zu\n",
              store.num_vertices(),
              static_cast<unsigned long long>(store.num_sketches()),
              static_cast<unsigned long long>(meta.theta),
              meta.theta_capped ? ", CAPPED" : "", store.k_max());
  std::printf("       footprint=%.1f MiB, default sequence %zu seeds\n",
              static_cast<double>(store.memory_bytes()) / (1024.0 * 1024.0),
              store.default_seeds().size());
}

void print_query_result(const QueryResult& result) {
  std::printf("seeds:");
  for (const VertexId s : result.seeds) std::printf(" %u", s);
  std::printf("\ncovered %llu / %llu sketches — estimated spread %.1f "
              "(%.2f%% of |V|)\n",
              static_cast<unsigned long long>(result.covered_sketches),
              static_cast<unsigned long long>(result.total_sketches),
              result.estimated_spread, 100.0 * result.coverage_fraction());
}

int run_build(const CliOptions& options) {
  const int sources = (options.graph_path ? 1 : 0) +
                      (options.binary_path ? 1 : 0) +
                      (options.workload ? 1 : 0);
  if (sources != 1) {
    usage("sketch_cli",
          "exactly one of --graph / --binary / --workload required");
  }
  if (options.verb == "save" && !options.out_path) {
    usage("sketch_cli", "'save' requires --out PATH");
  }

  DiffusionGraph graph;
  std::string label;
  if (options.workload) {
    label = *options.workload;
    if (!find_workload(label)) {
      std::fprintf(stderr, "unknown workload '%s'; available:\n",
                   label.c_str());
      for (const auto& spec : workload_specs()) {
        std::fprintf(stderr, "  %s\n", spec.name.c_str());
      }
      return 2;
    }
    // Shared helper, so CLI-built stores match the stores the tests and
    // benches build for the same (workload, model, scale, seed).
    graph = make_workload_with_weights(label, options.model, options.scale,
                                       options.imm.rng_seed);
  } else {
    if (options.graph_path) {
      label = *options.graph_path;
      BuildOptions build;
      build.symmetrize = options.undirected;
      graph = build_diffusion_graph(read_edge_list_file(*options.graph_path),
                                    0, build);
    } else {
      label = *options.binary_path;
      graph = DiffusionGraph::from_forward(
          read_binary_csr_file(*options.binary_path));
    }
    // Same weight salt imm_cli applies to file-based inputs.
    assign_paper_weights(graph.reverse, options.model,
                         hash_combine64(options.imm.rng_seed, 0x77));
  }

  ImmOptions imm = options.imm;
  imm.model = options.model;
  const SketchStore store = SketchStore::build(graph, imm, label);
  print_store_summary(store);

  if (options.out_path) {
    store.save_file(*options.out_path, options.save);
    std::printf("saved: %s (v4%s, checksummed)\n", options.out_path->c_str(),
                options.save.compress ? ", compressed" : "");
  }
  return 0;
}

int run_verify(const CliOptions& options) {
  if (!options.store_path) {
    usage("sketch_cli", "'verify' requires a snapshot path");
  }
  // Strongest available check in one pass: the stream loader re-reads
  // every byte, eager checksums verify each v4 section CRC, and the
  // deep scan validates payload plausibility plus derived state.
  SnapshotLoadOptions load = options.load;
  load.mode = SnapshotLoadMode::kStream;
  load.deep_validate = true;
  load.checksums = ChecksumMode::kEager;
  try {
    const SketchStore store =
        SketchStore::load_file(*options.store_path, load);
    const SnapshotLoadStats& stats = store.load_stats();
    std::printf("verify: OK %s (v%u%s, checksums verified, %llu sketches "
                "over %u nodes, %.1f MiB)\n",
                options.store_path->c_str(), stats.version,
                stats.compressed ? ", compressed" : "",
                static_cast<unsigned long long>(store.num_sketches()),
                store.num_vertices(),
                static_cast<double>(stats.file_bytes) / (1024.0 * 1024.0));
    return 0;
  } catch (const bin::FormatError& e) {
    // One line: FormatError::what() already names the section and the
    // byte offset of the failing read.
    std::fprintf(stderr, "verify: FAIL %s — %s\n",
                 options.store_path->c_str(), e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verify: FAIL %s — %s\n",
                 options.store_path->c_str(), e.what());
    return 1;
  }
}

int run_load(const CliOptions& options) {
  if (!options.store_path) usage("sketch_cli", "'load' requires --store PATH");
  const SketchStore store =
      SketchStore::load_file(*options.store_path, options.load);
  print_store_summary(store);
  const SnapshotLoadStats& stats = store.load_stats();
  std::printf("load:  v%u %s, %.1f MiB mapped, %.1f MiB copied%s\n",
              stats.version, stats.mmap_backed ? "mmap" : "stream",
              static_cast<double>(stats.bytes_mapped) / (1024.0 * 1024.0),
              static_cast<double>(stats.bytes_copied) / (1024.0 * 1024.0),
              stats.deep_validated ? ", deep-validated" : "");
  if (stats.compressed) {
    std::printf("       compressed payload %.1f MiB (gap-coded)\n",
                static_cast<double>(stats.compressed_payload_bytes) /
                    (1024.0 * 1024.0));
  }
  return 0;
}

int run_query(const CliOptions& options) {
  if (!options.store_path) {
    usage("sketch_cli", "'query' requires --store PATH");
  }
  const SketchStore store =
      SketchStore::load_file(*options.store_path, options.load);
  const QueryEngine engine(store);

  if (!options.eval_seeds.empty()) {
    const MarginalGainResult eval = engine.evaluate(options.eval_seeds);
    std::printf("evaluated %zu seeds: covered %llu / %llu sketches — "
                "estimated spread %.1f\n",
                options.eval_seeds.size(),
                static_cast<unsigned long long>(eval.covered_sketches),
                static_cast<unsigned long long>(eval.total_sketches),
                eval.estimated_spread);
    std::printf("incremental coverage:");
    for (std::size_t i = 0; i < options.eval_seeds.size(); ++i) {
      std::printf(" %u:+%llu", options.eval_seeds[i],
                  static_cast<unsigned long long>(
                      eval.incremental_coverage[i]));
    }
    std::printf("\n");
    return 0;
  }

  if (options.query_k == 0) {
    usage("sketch_cli", "'query' requires --k N or --eval LIST");
  }
  QueryOptions query;
  query.k = options.query_k;
  query.candidates = options.candidates;
  query.forbidden = options.forbidden;
  print_query_result(engine.answer(query));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = parse_cli(argc, argv);
  try {
    int rc = 0;
    if (options.verb == "build" || options.verb == "save") {
      rc = run_build(options);
    } else if (options.verb == "load") {
      rc = run_load(options);
    } else if (options.verb == "verify") {
      rc = run_verify(options);
    } else {
      rc = run_query(options);
    }
    if (options.metrics_path) {
      const std::string path = write_metrics_json_file(
          *options.metrics_path, obs::snapshot_metrics());
      std::printf("metrics: %s\n", path.c_str());
    }
    return rc;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Bad snapshots and I/O failures must exit with a one-line
    // diagnostic, never an unhandled-exception trace.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
