// sketch_client — scripted client for a running sketch_server.
//
//   sketch_client --socket /tmp/eimm.sock ping
//   sketch_client --socket /tmp/eimm.sock info
//   sketch_client --socket /tmp/eimm.sock query --k 10
//   sketch_client --socket /tmp/eimm.sock query --k 5 --forbid 3,17
//   sketch_client --socket /tmp/eimm.sock stats
//   sketch_client --socket /tmp/eimm.sock reload [--snapshot PATH]
//   sketch_client --socket /tmp/eimm.sock shutdown
//
// Resilience flags (any verb): --retries N caps retry attempts on
// transient failures (default 1 = single shot), --deadline-ms N bounds
// the whole call including backoff sleeps.
//
// Query output matches `sketch_cli query` exactly, so CI can diff the
// two paths: same store + same query must yield byte-identical seed
// lines whether served over the socket or computed in-process.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli_flags.hpp"
#include "serve/server.hpp"

namespace {

using namespace eimm;

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: %s --socket PATH ping|info|stats|shutdown\n"
               "       %s --socket PATH query --k N [--candidates LIST]\n"
               "          [--forbid LIST]       LIST = comma-separated ids\n"
               "       %s --socket PATH reload [--snapshot PATH]\n"
               "       any verb: --retries N (attempts on transient errors,\n"
               "       default 1) and --deadline-ms N (whole-call bound)\n",
               argv0, argv0, argv0);
  std::exit(error != nullptr ? 2 : 0);
}

void print_histogram_line(const char* label,
                          const obs::HistogramSnapshot& histogram) {
  std::printf("%s: count=%llu mean=%.1f p50=%.1f p99=%.1f\n", label,
              static_cast<unsigned long long>(histogram.count),
              histogram.mean(), histogram.quantile(0.5),
              histogram.quantile(0.99));
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

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string verb;
  std::string snapshot_path;
  QueryOptions query;
  RetryOptions retry;
  const cli::FlagParser flags(usage, argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], ("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--socket") socket_path = next();
    else if (arg == "--k") {
      query.k = flags.integer<std::size_t>(arg, next(), 1);
    } else if (arg == "--candidates") {
      query.candidates = flags.vertex_list(arg, next());
    } else if (arg == "--forbid") {
      query.forbidden = flags.vertex_list(arg, next());
    } else if (arg == "--retries") {
      retry.max_attempts = flags.integer<std::size_t>(arg, next(), 1);
    } else if (arg == "--deadline-ms") {
      retry.deadline = std::chrono::milliseconds(
          flags.integer<std::chrono::milliseconds::rep>(arg, next(), 0));
    } else if (arg == "--snapshot") {
      snapshot_path = next();
    } else if (arg == "--help" || arg == "-h") usage(argv[0]);
    else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0], ("unknown option " + arg).c_str());
    } else if (verb.empty()) verb = arg;
    else usage(argv[0], ("unexpected argument " + arg).c_str());
  }
  if (socket_path.empty()) usage(argv[0], "--socket PATH is required");
  if (verb.empty()) usage(argv[0], "missing verb");

  try {
    SketchClient client(socket_path, retry);
    if (verb == "ping") {
      client.ping();
      std::printf("pong\n");
    } else if (verb == "info") {
      const SketchClient::Info info = client.info();
      std::printf("store: workload=%s model=%s |V|=%u sketches=%llu "
                  "k_max=%llu\n",
                  info.workload.empty() ? "(unnamed)" : info.workload.c_str(),
                  info.model.c_str(), info.num_vertices,
                  static_cast<unsigned long long>(info.num_sketches),
                  static_cast<unsigned long long>(info.k_max));
      std::printf("load:  %s, %.1f MiB mapped, %.1f MiB copied\n",
                  info.mmap_backed ? "mmap" : "stream/built",
                  static_cast<double>(info.bytes_mapped) / (1024.0 * 1024.0),
                  static_cast<double>(info.bytes_copied) / (1024.0 * 1024.0));
      std::printf("epoch: generation %llu\n",
                  static_cast<unsigned long long>(info.generation));
    } else if (verb == "query") {
      if (query.k == 0) usage(argv[0], "'query' requires --k N");
      print_query_result(query.constrained() ? client.select(query)
                                             : client.top_k(query.k));
    } else if (verb == "stats") {
      const SketchClient::ServerStats stats = client.stats();
      std::printf("requests: %llu (%llu timeouts)\n",
                  static_cast<unsigned long long>(stats.requests),
                  static_cast<unsigned long long>(stats.timeouts));
      std::printf("executor: %llu submitted, %llu prefix reads, "
                  "%llu cache hits, %llu rejected, %llu batches "
                  "(largest %llu)\n",
                  static_cast<unsigned long long>(stats.executor.submitted),
                  static_cast<unsigned long long>(
                      stats.executor.prefix_reads),
                  static_cast<unsigned long long>(stats.executor.cache_hits),
                  static_cast<unsigned long long>(stats.executor.rejected),
                  static_cast<unsigned long long>(stats.executor.batches),
                  static_cast<unsigned long long>(
                      stats.executor.largest_batch));
      std::printf("query cache: %llu hits / %llu misses, %llu evictions, "
                  "%llu entries\n",
                  static_cast<unsigned long long>(stats.cache.hits),
                  static_cast<unsigned long long>(stats.cache.misses),
                  static_cast<unsigned long long>(stats.cache.evictions),
                  static_cast<unsigned long long>(stats.cache.entries));
      std::printf("store: generation %llu, %llu reloads (%llu failed)\n",
                  static_cast<unsigned long long>(stats.generation),
                  static_cast<unsigned long long>(stats.reloads),
                  static_cast<unsigned long long>(stats.failed_reloads));
      std::printf("select kernel: %llu sketches retired, %llu refreshes\n",
                  static_cast<unsigned long long>(stats.sketches_retired),
                  static_cast<unsigned long long>(stats.select_refreshes));
      print_histogram_line("queue wait us", stats.executor.queue_wait_us);
      print_histogram_line("batch size", stats.executor.batch_size);
      print_histogram_line("exec us", stats.executor.exec_us);
    } else if (verb == "reload") {
      const std::uint64_t generation = client.reload(snapshot_path);
      std::printf("reloaded: now serving generation %llu\n",
                  static_cast<unsigned long long>(generation));
    } else if (verb == "shutdown") {
      client.shutdown_server();
      std::printf("server shutting down\n");
    } else {
      usage(argv[0], ("unknown verb " + verb).c_str());
    }
    // Retry accounting goes to stderr so the stdout byte-diff against
    // sketch_cli stays clean even when transient faults were retried.
    const RetryStats rs = client.retry_stats();
    if (rs.retries > 0 || rs.reconnects > 0) {
      std::fprintf(stderr,
                   "note: %llu retr%s, %llu reconnect%s before success\n",
                   static_cast<unsigned long long>(rs.retries),
                   rs.retries == 1 ? "y" : "ies",
                   static_cast<unsigned long long>(rs.reconnects),
                   rs.reconnects == 1 ? "" : "s");
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
