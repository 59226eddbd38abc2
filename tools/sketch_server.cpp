// sketch_server — long-lived serving daemon over one frozen SketchStore.
//
//   sketch_server --store s.sks --socket /tmp/eimm.sock
//   sketch_server --workload com-Amazon --k 25 --socket /tmp/eimm.sock
//
// Loads (mmap by default — N servers share one page-cache copy of the
// snapshot) or builds a store, binds an AF_UNIX socket and answers the
// wire-protocol verbs (see src/serve/server.hpp) until a client sends
// Shutdown or the process receives SIGINT/SIGTERM. SIGHUP hot-reloads
// the snapshot (checksum-verified before the swap; in-flight queries
// finish on the old store). Talk to it with sketch_client.
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "cli_flags.hpp"
#include "diffusion/weights.hpp"
#include "io/json_log.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/sketch_store.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace eimm;

struct ServerCli {
  std::optional<std::string> store_path;
  std::optional<std::string> workload;
  std::string socket_path;
  SnapshotLoadOptions load;
  ServerOptions server;
  // Build-mode knobs (used only with --workload).
  ImmOptions imm;
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  double scale = 1.0;
  // Telemetry dump: --metrics writes a final JSON snapshot at shutdown;
  // --metrics-interval additionally rewrites it every N seconds.
  std::optional<std::string> metrics_path;
  int metrics_interval_seconds = 0;
};

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: %s --socket PATH (--store SNAPSHOT | --workload NAME)\n"
      "          [--stream]          (copying loader instead of mmap)\n"
      "          [--deep-validate]   (O(pool) integrity scan at load)\n"
      "          [--k N] [--model IC|LT] [--scale F] [--seed N]\n"
      "          [--max-rrr N] [--threads N]   (build mode only)\n"
      "          [--batch N]         (largest kernel batch; batches form\n"
      "                               only from queries that queue while\n"
      "                               the previous batch runs)\n"
      "          [--timeout-ms N] [--max-queue N] [--cache N]\n"
      "          [--metrics OUT.json] [--metrics-interval SECONDS]\n",
      argv0);
  std::exit(error != nullptr ? 2 : 0);
}

ServerCli parse_cli(int argc, char** argv) {
  ServerCli cli;
  cli.imm.max_rrr_sets = 1u << 20;
  const cli::FlagParser flags(usage, argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], ("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--store") cli.store_path = next();
    else if (arg == "--workload") cli.workload = next();
    else if (arg == "--socket") cli.socket_path = next();
    else if (arg == "--stream") cli.load.mode = SnapshotLoadMode::kStream;
    else if (arg == "--deep-validate") cli.load.deep_validate = true;
    else if (arg == "--k") {
      cli.imm.k = flags.integer<std::size_t>(arg, next(), 1);
    } else if (arg == "--model") cli.model = parse_model(next());
    else if (arg == "--scale") cli.scale = flags.number(arg, next());
    else if (arg == "--seed") {
      cli.imm.rng_seed = flags.integer<std::uint64_t>(arg, next());
    } else if (arg == "--max-rrr") {
      cli.imm.max_rrr_sets = flags.integer<std::uint64_t>(arg, next(), 1);
    } else if (arg == "--threads") {
      cli.imm.threads = flags.integer<int>(arg, next(), 0);
      cli.server.executor.threads = cli.imm.threads;
    } else if (arg == "--batch") {
      cli.server.executor.max_batch = flags.integer<std::size_t>(arg, next());
    } else if (arg == "--timeout-ms") {
      cli.server.request_timeout = std::chrono::milliseconds(
          flags.integer<std::chrono::milliseconds::rep>(arg, next(), 0));
    } else if (arg == "--max-queue") {
      cli.server.executor.max_queue = flags.integer<std::size_t>(arg, next());
    } else if (arg == "--cache") {
      cli.server.executor.cache_capacity =
          flags.integer<std::size_t>(arg, next());
    } else if (arg == "--metrics") {
      cli.metrics_path = next();
    } else if (arg == "--metrics-interval") {
      cli.metrics_interval_seconds = flags.integer<int>(arg, next(), 0);
    } else if (arg == "--help" || arg == "-h") usage(argv[0]);
    else usage(argv[0], ("unknown option " + arg).c_str());
  }
  if (cli.socket_path.empty()) usage(argv[0], "--socket PATH is required");
  if (!cli.store_path.has_value() && !cli.workload.has_value()) {
    usage(argv[0], "one of --store or --workload is required");
  }
  if (cli.store_path.has_value() && cli.workload.has_value()) {
    usage(argv[0], "--store and --workload are mutually exclusive");
  }
  if (cli.metrics_interval_seconds > 0 && !cli.metrics_path.has_value()) {
    usage(argv[0], "--metrics-interval requires --metrics OUT.json");
  }
  return cli;
}

// stop()/reload_from() take locks and join threads — not
// async-signal-safe — so the handler only writes the signal number down
// a self-pipe; a watcher thread blocking-reads it and does the actual
// work. Compared to the old flag-plus-poll loop this makes SIGTERM
// drain immediately (no 100ms tick) and gives SIGHUP a safe place to
// run a hot reload from.
int g_signal_pipe[2] = {-1, -1};

void handle_signal(int sig) {
  const unsigned char byte = static_cast<unsigned char>(sig);
  // The write end is non-blocking: if the pipe is somehow full the
  // signal is dropped, never deadlocked on. errno must survive the
  // handler untouched.
  const int saved_errno = errno;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
  errno = saved_errno;
}

void install_signal_handlers() {
  if (::pipe2(g_signal_pipe, O_CLOEXEC) != 0) {
    std::perror("pipe2");
    std::exit(1);
  }
  const int flags = ::fcntl(g_signal_pipe[1], F_GETFL);
  ::fcntl(g_signal_pipe[1], F_SETFL, flags | O_NONBLOCK);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = handle_signal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGHUP, &sa, nullptr);
}

/// The kStats surface of a live server, repackaged for the JSON writer.
ServingStatsRecord serving_record(SketchServer& server) {
  const BatchingExecutor::Stats exec = server.executor_stats();
  const QueryCache::Stats qcache = server.cache_stats();
  ServingStatsRecord record;
  record.requests = server.requests_served();
  record.timeouts = server.timeouts();
  record.submitted = exec.submitted;
  record.prefix_reads = exec.prefix_reads;
  record.cache_hits = exec.cache_hits;
  record.rejected = exec.rejected;
  record.batches = exec.batches;
  record.largest_batch = exec.largest_batch;
  record.qcache_hits = qcache.hits;
  record.qcache_misses = qcache.misses;
  record.qcache_evictions = qcache.evictions;
  record.qcache_entries = static_cast<std::uint64_t>(qcache.entries);
  record.generation = server.generation();
  record.reloads = server.registry().reloads();
  record.failed_reloads = server.registry().failed_reloads();
  record.queue_wait_us = exec.queue_wait_us;
  record.batch_size = exec.batch_size;
  record.exec_us = exec.exec_us;
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  const ServerCli cli = parse_cli(argc, argv);
  try {
    std::optional<SketchStore> store;
    if (cli.store_path) {
      store = SketchStore::load_file(*cli.store_path, cli.load);
      const SnapshotLoadStats& stats = store->load_stats();
      std::printf("loaded %s: v%u %s, %.1f MiB mapped, %.1f MiB copied%s\n",
                  cli.store_path->c_str(), stats.version,
                  stats.mmap_backed ? "mmap" : "stream",
                  static_cast<double>(stats.bytes_mapped) / (1024.0 * 1024.0),
                  static_cast<double>(stats.bytes_copied) / (1024.0 * 1024.0),
                  stats.deep_validated ? ", deep-validated" : "");
    } else {
      if (!find_workload(*cli.workload)) {
        std::fprintf(stderr, "error: unknown workload '%s'\n",
                     cli.workload->c_str());
        return 2;
      }
      const DiffusionGraph graph = make_workload_with_weights(
          *cli.workload, cli.model, cli.scale, cli.imm.rng_seed);
      ImmOptions imm = cli.imm;
      imm.model = cli.model;
      store = SketchStore::build(graph, imm, *cli.workload);
      std::printf("built store for %s: |V|=%u sketches=%llu k_max=%zu\n",
                  cli.workload->c_str(), store->num_vertices(),
                  static_cast<unsigned long long>(store->num_sketches()),
                  store->k_max());
    }

    ServerOptions options = cli.server;
    options.socket_path = cli.socket_path;
    if (cli.store_path) {
      // Enables SIGHUP / path-less kReload hot reloads of this snapshot.
      options.snapshot_path = *cli.store_path;
      options.reload_load = cli.load;
    }
    SketchServer server(*store, std::move(options));
    server.start();
    install_signal_handlers();
    std::thread watcher([&server] {
      for (;;) {
        unsigned char sig = 0;
        const ssize_t n = ::read(g_signal_pipe[0], &sig, 1);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0 || sig == 0) return;  // main's shutdown sentinel
        if (sig == SIGHUP) {
          try {
            const std::uint64_t gen = server.reload_from();
            std::printf("reloaded snapshot (generation %llu)\n",
                        static_cast<unsigned long long>(gen));
            std::fflush(stdout);
          } catch (const std::exception& e) {
            std::fprintf(stderr,
                         "reload failed (previous store keeps serving): %s\n",
                         e.what());
          }
          continue;
        }
        server.stop();  // SIGINT / SIGTERM: graceful drain
        return;
      }
    });
    if (const std::size_t armed = fail::armed_count(); armed > 0) {
      std::printf("failpoints armed: %zu\n", armed);
    }
    std::printf("serving on %s (k_max=%zu, cache=%zu, batch=%zu)\n",
                cli.socket_path.c_str(), store->k_max(),
                cli.server.executor.cache_capacity,
                cli.server.executor.max_batch);
    std::fflush(stdout);

    // Periodic metrics dump: rewrite the snapshot file every interval so
    // an operator (or CI) can watch a live server without the wire
    // protocol. The 100ms tick keeps shutdown prompt.
    std::thread metrics_thread;
    if (cli.metrics_path && cli.metrics_interval_seconds > 0) {
      metrics_thread = std::thread([&server, &cli] {
        const auto interval =
            std::chrono::seconds(cli.metrics_interval_seconds);
        auto next_dump = std::chrono::steady_clock::now() + interval;
        while (server.running()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          if (std::chrono::steady_clock::now() < next_dump) continue;
          next_dump += interval;
          try {
            write_server_metrics_json_file(*cli.metrics_path,
                                           obs::snapshot_metrics(),
                                           serving_record(server));
          } catch (const std::exception& e) {
            std::fprintf(stderr, "metrics dump failed: %s\n", e.what());
          }
        }
      });
    }

    server.wait();
    {
      // Wake the watcher if it is still blocked on the pipe (shutdown
      // came over the wire, not from a signal).
      const unsigned char sentinel = 0;
      [[maybe_unused]] const ssize_t n =
          ::write(g_signal_pipe[1], &sentinel, 1);
    }
    watcher.join();
    if (metrics_thread.joinable()) metrics_thread.join();

    const BatchingExecutor::Stats exec = server.executor_stats();
    const QueryCache::Stats cache = server.cache_stats();
    std::printf("served %llu requests in %llu batches (largest %llu); "
                "cache %llu hits / %llu misses\n",
                static_cast<unsigned long long>(server.requests_served()),
                static_cast<unsigned long long>(exec.batches),
                static_cast<unsigned long long>(exec.largest_batch),
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses));
    if (cli.metrics_path) {
      const std::string path = write_server_metrics_json_file(
          *cli.metrics_path, obs::snapshot_metrics(), serving_record(server));
      std::printf("metrics: %s\n", path.c_str());
    }
    return 0;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
