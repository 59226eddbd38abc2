// eimm_perfbench — runs one benchmark workload against the eimm library
// in its default configuration and writes the raw measurements as one
// JSON object. perfbench/run.py builds this driver, launches it and
// turns the raw record into the benchmark's metrics.
//
//   eimm_perfbench --workload imm-ic-dense --seed 1 --seconds 10
//                  --trace 0 --out raw.json [--trace-out trace.json]
//
// Workloads (k = 50, epsilon = 0.5, two OpenMP threads throughout):
//   imm-ic-dense    run_imm on the com-LJ analogue, IC, scale 0.15
//   imm-lt-sparse   run_imm on the as-Skitter analogue, LT, scale 1.0
//   serve-lt-mixed  the imm-lt-sparse graph frozen into a snapshot and
//                   served by SketchServer to two closed-loop clients,
//                   with a third connection reloading every 2 s
//
// With --trace 1 the driver also times calls into each layer's public
// functions with spans of its own (the library is not instrumented
// further) and writes them as Chrome trace-event JSON to --trace-out.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/imm.hpp"
#include "numa/topology.hpp"
#include "runtime/atomic_counters.hpp"
#include "runtime/thread_info.hpp"
#include "rrr/compressed_pool.hpp"
#include "rrr/fused.hpp"
#include "rrr/sharded.hpp"
#include "serve/server.hpp"
#include "serve/sketch_store.hpp"
#include "simulate/spread.hpp"
#include "support/rng.hpp"
#include "workloads/registry.hpp"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;
using namespace eimm;

constexpr std::size_t kSeeds = 50;
constexpr double kEpsilon = 0.5;
constexpr int kThreads = 2;
constexpr int kSpreadSamples = 1000;
constexpr std::uint64_t kSpreadSeed = 0xD1FFu;

// Per-purpose streams derived from the workload seed.
constexpr std::uint64_t kStreamWarmup = 0xA000;
constexpr std::uint64_t kStreamOp = 0x1000'0000;
constexpr std::uint64_t kStreamStore = 0xB000;
constexpr std::uint64_t kStreamQueries = 0xC000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent. Kept in memory, written at exit.

class SpanLog {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    int tid = 0;
  };

  bool enabled = false;

  std::uint64_t next_id() { return ++last_id_; }
  void add(Record r) {
    std::lock_guard lock(mutex_);
    records_.push_back(std::move(r));
  }
  static int thread_ordinal() {
    static std::atomic<int> next{0};
    thread_local const int tid = next.fetch_add(1);
    return tid;
  }
  void write_chrome(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const Record& r : records_) {
      os << (first ? "" : ",") << "\n{\"name\":\"" << r.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
         << ",\"ts\":" << r.start_ns / 1000.0
         << ",\"dur\":" << (r.end_ns - r.start_ns) / 1000.0
         << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
         << "}}";
      first = false;
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  std::atomic<std::uint64_t> last_id_{0};
  std::mutex mutex_;
  std::vector<Record> records_;
};

SpanLog g_spans;
thread_local std::uint64_t t_current_span = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Times one call into a layer. Always measures; records a span only when
/// tracing is on, so untraced code paths pay two clock reads.
class Span {
 public:
  explicit Span(const char* name) : name_(name), start_(now_ns()) {
    if (g_spans.enabled) {
      id_ = g_spans.next_id();
      parent_ = t_current_span;
      t_current_span = id_;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop() {
    if (end_ == 0) {
      end_ = now_ns();
      if (g_spans.enabled) {
        t_current_span = parent_;
        g_spans.add({name_, start_, end_, id_, parent_,
                     SpanLog::thread_ordinal()});
      }
    }
    return static_cast<double>(end_ - start_) * 1e-9;
  }

 private:
  const char* name_;
  std::int64_t start_;
  std::int64_t end_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

// ---------------------------------------------------------------------------
// Raw record: what the driver measured, before any summary.

struct Failures {
  std::uint64_t threw = 0;
  std::uint64_t refused = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t invalid = 0;
  Failures& operator+=(const Failures& o) {
    threw += o.threw;
    refused += o.refused;
    timed_out += o.timed_out;
    invalid += o.invalid;
    return *this;
  }
};

struct Raw {
  double setup_s = 0.0;
  std::vector<double> op_ms;
  double timed_wall_s = 0.0;
  std::uint64_t attempted = 0;
  Failures failed;
  double seed_spread = 0.0;
  std::map<std::string, std::string> config;
  std::vector<std::string> notes;
  /// Per-layer samples; run.py reports the median of each.
  std::map<std::string, std::vector<double>> layers;

  void layer(const std::string& name, double v) { layers[name].push_back(v); }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void write_numbers(std::ostream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << ']';
}

std::string read_loadavg() {
  std::ifstream is("/proc/loadavg");
  std::string line;
  std::getline(is, line);
  return line;
}

std::uint64_t maxrss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // KiB on Linux
}

void write_raw(const std::string& path, const std::string& workload,
               std::uint64_t seed, bool trace, const Raw& raw,
               const std::vector<std::string>& scrubbed,
               const std::string& load_start) {
  std::ofstream os(path);
  os.precision(17);
  os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
     << ",\"trace\":" << (trace ? 1 : 0) << ",\n\"config\":{";
  bool first = true;
  for (const auto& [k, v] : raw.config) {
    os << (first ? "" : ",") << '"' << k << "\":\"" << json_escape(v) << '"';
    first = false;
  }
  os << "},\n\"scrubbed_env\":[";
  for (std::size_t i = 0; i < scrubbed.size(); ++i) {
    os << (i ? "," : "") << '"' << json_escape(scrubbed[i]) << '"';
  }
  os << "],\n\"notes\":[";
  for (std::size_t i = 0; i < raw.notes.size(); ++i) {
    os << (i ? "," : "") << '"' << json_escape(raw.notes[i]) << '"';
  }
  os << "],\n\"loadavg_start\":\"" << json_escape(load_start)
     << "\",\"loadavg_end\":\"" << json_escape(read_loadavg()) << "\",\n";
  os << "\"setup_s\":" << raw.setup_s << ",\n\"op_ms\":";
  write_numbers(os, raw.op_ms);
  os << ",\n\"timed_wall_s\":" << raw.timed_wall_s
     << ",\"attempted\":" << raw.attempted << ",\"failed\":{\"threw\":"
     << raw.failed.threw << ",\"refused\":" << raw.failed.refused
     << ",\"timed_out\":" << raw.failed.timed_out
     << ",\"invalid\":" << raw.failed.invalid << "},\n\"maxrss_kib\":"
     << maxrss_kib() << ",\"seed_spread\":" << raw.seed_spread
     << ",\n\"layers\":{";
  first = true;
  for (const auto& [k, v] : raw.layers) {
    os << (first ? "" : ",\n") << '"' << k << "\":";
    write_numbers(os, v);
    first = false;
  }
  os << "}}\n";
}

// ---------------------------------------------------------------------------
// Shared pieces.

struct GraphSpec {
  const char* dataset;
  DiffusionModel model;
  double scale;
};

GraphSpec graph_for(const std::string& workload) {
  if (workload == "imm-ic-dense") {
    return {"com-LJ", DiffusionModel::kIndependentCascade, 0.15};
  }
  return {"as-Skitter", DiffusionModel::kLinearThreshold, 1.0};
}

/// Only the fields the benchmark fixes; everything else stays at the
/// library default so a change of default is measured.
ImmOptions imm_options(const GraphSpec& g, std::uint64_t rng_seed) {
  ImmOptions opt;
  opt.model = g.model;
  opt.k = kSeeds;
  opt.epsilon = kEpsilon;
  opt.threads = kThreads;
  opt.rng_seed = rng_seed;
  return opt;
}

DiffusionGraph ingest(const GraphSpec& g, std::uint64_t seed, Raw& raw) {
  Span span("workloads.graph_ingest");
  DiffusionGraph graph =
      make_workload_with_weights(g.dataset, g.model, g.scale, seed);
  raw.layer("workloads.graph_ingest_s", span.stop());
  return graph;
}

bool valid_seeds(std::span<const VertexId> seeds, VertexId n) {
  if (seeds.size() != kSeeds) return false;
  std::set<VertexId> distinct(seeds.begin(), seeds.end());
  return distinct.size() == seeds.size() && *distinct.rbegin() < n;
}

double spread_of(const DiffusionGraph& graph, DiffusionModel model,
                 std::span<const VertexId> seeds) {
  ThreadCountScope scope(kThreads);
  SpreadOptions opt;
  opt.num_samples = kSpreadSamples;
  opt.rng_seed = kSpreadSeed;
  return estimate_spread(graph.forward, model, seeds, opt);
}

void record_host(Raw& raw) {
  raw.config["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  raw.config["numa_domains"] = std::to_string(numa_topology().num_nodes());
}

// ---------------------------------------------------------------------------
// IMM workloads: one op is one run_imm call.

/// The traced op: build_rrr_pool then SelectionEngine::select with the
/// options, base counters and workspace run_imm's final selection uses.
std::vector<VertexId> traced_imm_op(const DiffusionGraph& graph,
                                    const ImmOptions& opt, Raw& raw) {
  ThreadCountScope scope(opt.threads);
  Span op("imm.op");
  Span build_span("core.build_rrr_pool");
  PoolBuild build = build_rrr_pool(graph, opt, Engine::kEfficient);
  raw.layer("core.build_rrr_pool_ms", build_span.stop() * 1e3);

  SelectionOptions sopt;
  sopt.k = opt.k;
  sopt.adaptive_update = opt.adaptive_update;
  sopt.dynamic_balance = opt.dynamic_balance;
  sopt.batch_size = opt.batch_size;
  SelectionEngineConfig config;
  config.counter_shards =
      opt.numa_aware ? resolve_counter_shards(opt.counter_shards) : 1;
  config.counter_policy =
      opt.numa_aware ? MemPolicy::kInterleave : MemPolicy::kDefault;
  Span select_span("seedselect.select");
  const SelectionResult sel = SelectionEngine(config).select(
      SelectionKernel::kEfficient, build.view(), sopt,
      build.counters_prebuilt ? &build.base_counters : nullptr,
      &build.workspace);
  raw.layer("seedselect.final_select_ms", select_span.stop() * 1e3);
  op.stop();

  const RRRPoolView view = build.view();
  const double sets = static_cast<double>(view.size());
  raw.layer("core.sampling_ms", build.sampling_seconds * 1e3);
  raw.layer("core.probe_select_ms", build.probing_selection_seconds * 1e3);
  raw.layer("core.martingale_rounds",
            static_cast<double>(build.iterations.size()));
  raw.layer("core.theta", static_cast<double>(build.theta));
  raw.layer("rrr.sets", sets);
  raw.layer("rrr.members_per_set",
            static_cast<double>(view.total_vertices()) / sets);
  raw.layer("rrr.bitmap_sets", static_cast<double>(view.bitmap_count()));
  raw.layer("rrr.sets_per_s", sets / build.sampling_seconds);
  raw.layer("rrr.pool_mb",
            static_cast<double>(view.memory_bytes()) / (1024.0 * 1024.0));
  raw.layer("seedselect.rebuild_rounds",
            static_cast<double>(sel.rebuild_rounds));
  return sel.seeds;
}

void run_imm_workload(const std::string& workload, std::uint64_t seed,
                      double seconds, bool trace, Raw& raw) {
  const GraphSpec g = graph_for(workload);
  const auto setup_start = Clock::now();
  const DiffusionGraph graph = ingest(g, seed, raw);
  const ImmResult warm =
      run_imm(graph, imm_options(g, hash_combine64(seed, kStreamWarmup)),
              Engine::kEfficient);
  if (!valid_seeds(warm.seeds, graph.num_vertices())) {
    throw std::runtime_error("warm-up run_imm returned invalid seeds");
  }
  raw.setup_s = seconds_since(setup_start);

  std::vector<VertexId> first_seeds;
  std::vector<double> traced_ms;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    const ImmOptions opt = imm_options(g, hash_combine64(seed, kStreamOp + i));
    auto traced_op = [&] {
      const auto t0 = Clock::now();
      std::vector<VertexId> seeds = traced_imm_op(graph, opt, raw);
      traced_ms.push_back(seconds_since(t0) * 1e3);
      ++raw.attempted;
      return seeds;
    };
    // The traced run alternates which side of each pair goes first so a
    // drift over the run does not bias the overhead estimate.
    std::vector<VertexId> traced_seeds;
    if (trace && i % 2 == 1) traced_seeds = traced_op();
    ++raw.attempted;
    ImmResult result;
    try {
      const auto t0 = Clock::now();
      result = run_imm(graph, opt, Engine::kEfficient);
      const double ms = seconds_since(t0) * 1e3;
      if (!valid_seeds(result.seeds, graph.num_vertices())) {
        ++raw.failed.invalid;
        continue;
      }
      raw.op_ms.push_back(ms);
    } catch (const std::exception& e) {
      ++raw.failed.threw;
      raw.notes.push_back(std::string("run_imm threw: ") + e.what());
      continue;
    }
    if (trace && i % 2 == 0) traced_seeds = traced_op();
    if (trace && traced_seeds != result.seeds) {
      ++raw.failed.invalid;
      raw.notes.push_back("traced build_rrr_pool+select seeds differ from "
                          "run_imm at op " + std::to_string(i));
    }
    if (first_seeds.empty()) {
      first_seeds = result.seeds;
      raw.config["shards_used"] = std::to_string(result.shards_used);
      raw.config["counter_shards_used"] =
          std::to_string(result.counter_shards_used);
      raw.config["fused_sampling_used"] =
          result.fused_sampling_used ? "true" : "false";
      raw.config["pool_compression_used"] =
          std::string(to_string(result.pool_compression_used));
      raw.config["threads_used"] = std::to_string(result.threads_used);
    }
  }
  raw.timed_wall_s = seconds_since(start);
  if (trace && !raw.op_ms.empty()) {
    raw.layer("trace.overhead_frac",
              median(traced_ms) / median(raw.op_ms) - 1.0);
  }
  if (!first_seeds.empty()) {
    raw.seed_spread = spread_of(graph, g.model, first_seeds);
  }
}

// ---------------------------------------------------------------------------
// serve-lt-mixed: closed-loop clients against SketchServer.

enum class QueryKind { kTopK, kSelect, kCached };

constexpr std::size_t kDistinctBlacklists = 4096;
constexpr std::size_t kHotBlacklists = 8;
constexpr std::size_t kBlacklistSize = 4;
constexpr int kClients = 2;
constexpr int kWarmupQueries = 64;
constexpr auto kReloadPeriod = std::chrono::seconds(2);

/// The query universe: index 0 is the unconstrained top-k, then the
/// hot blacklists, then the cold ones. Ops name queries by index.
struct QueryMix {
  std::vector<QueryOptions> queries;

  QueryMix(VertexId n, std::uint64_t seed) {
    std::mt19937_64 rng(hash_combine64(seed, kStreamQueries));
    std::uniform_int_distribution<VertexId> vertex(0, n - 1);
    QueryOptions top;
    top.k = kSeeds;
    queries.push_back(top);
    for (std::size_t i = 0; i < kHotBlacklists + kDistinctBlacklists; ++i) {
      QueryOptions q;
      q.k = kSeeds;
      while (q.forbidden.size() < kBlacklistSize) {
        const VertexId v = vertex(rng);
        if (std::find(q.forbidden.begin(), q.forbidden.end(), v) ==
            q.forbidden.end()) {
          q.forbidden.push_back(v);
        }
      }
      std::sort(q.forbidden.begin(), q.forbidden.end());
      queries.push_back(std::move(q));
    }
  }

  /// 50% top_k, 35% cold blacklist, 15% hot blacklist.
  template <typename Rng>
  std::pair<QueryKind, std::size_t> draw(Rng& rng) const {
    const std::uint64_t r = rng() % 100;
    if (r < 50) return {QueryKind::kTopK, 0};
    if (r < 85) {
      return {QueryKind::kSelect,
              1 + kHotBlacklists + rng() % kDistinctBlacklists};
    }
    return {QueryKind::kCached, 1 + rng() % kHotBlacklists};
  }
};

std::uint64_t digest(const QueryResult& r) {
  std::uint64_t h = hash_combine64(r.covered_sketches, r.total_sketches);
  for (const VertexId v : r.seeds) h = hash_combine64(h, v);
  for (const std::uint64_t m : r.marginal_coverage) h = hash_combine64(h, m);
  std::uint64_t spread_bits = 0;
  std::memcpy(&spread_bits, &r.estimated_spread, sizeof spread_bits);
  return hash_combine64(h, spread_bits);
}

// Indexed by QueryKind.
constexpr const char* kKindNames[] = {"topk", "select", "cached"};
constexpr const char* kKindSpans[] = {"client.topk", "client.select",
                                      "client.cached"};

struct ServedOp {
  std::size_t query = 0;
  std::uint64_t digest = 0;
};

struct ClientLog {
  std::vector<ServedOp> served;
  std::map<std::string, std::vector<double>> ms_by_kind;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::uint64_t attempted = 0;
  Failures failed;
  std::uint64_t retries = 0;
  std::vector<std::string> notes;
};

/// Issues one query and sorts any failure into its class.
bool call_server(SketchClient& client, const QueryOptions& q, QueryKind kind,
                 QueryResult& out, Failures& failed,
                 std::vector<std::string>& notes) {
  try {
    out = kind == QueryKind::kTopK ? client.top_k(q.k) : client.select(q);
    return true;
  } catch (const ServerOverloadedError&) {
    ++failed.refused;
  } catch (const ServerTimeoutError&) {
    ++failed.timed_out;
  } catch (const DeadlineExceededError&) {
    ++failed.timed_out;
  } catch (const std::exception& e) {
    ++failed.threw;
    notes.push_back(std::string("query threw: ") + e.what());
  }
  return false;
}

void closed_loop_client(SketchClient& client, const QueryMix& mix,
                        std::uint64_t seed, int id, bool trace,
                        Clock::time_point deadline, ClientLog& log) {
  std::mt19937_64 rng(hash_combine64(seed, kStreamQueries + 1 + id));
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    const auto [kind, index] = mix.draw(rng);
    const bool traced = trace && i % 2 == 1;
    QueryResult result;
    ++log.attempted;
    const auto t0 = Clock::now();
    std::optional<Span> span;
    if (traced) span.emplace(kKindSpans[static_cast<int>(kind)]);
    const bool ok = call_server(client, mix.queries[index], kind, result,
                                log.failed, log.notes);
    span.reset();
    const double ms = seconds_since(t0) * 1e3;
    if (!ok) continue;
    log.served.push_back({index, digest(result)});
    log.ms_by_kind[kKindNames[static_cast<int>(kind)]].push_back(ms);
    (traced ? log.traced_ms : log.untraced_ms).push_back(ms);
  }
  log.retries = client.retry_stats().retries;
}

/// Executor and cache counters summed over every serving epoch.
struct EpochTotals {
  obs::HistogramSnapshot queue_wait_us;
  obs::HistogramSnapshot exec_us;
  obs::HistogramSnapshot batch_size;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  void add(const ServingEpoch& epoch) {
    const BatchingExecutor::Stats s = epoch.executor.stats();
    queue_wait_us += s.queue_wait_us;
    exec_us += s.exec_us;
    batch_size += s.batch_size;
    const QueryCache::Stats c = epoch.executor.cache_stats();
    cache_hits += c.hits;
    cache_misses += c.misses;
  }
};

/// Everything one serving setup leaves running.
struct ServingStack {
  DiffusionGraph graph;
  std::shared_ptr<const SketchStore> store;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<SketchServer> server;
  std::vector<std::unique_ptr<SketchClient>> clients;
  std::unique_ptr<SketchClient> reloader;

  void stop() {
    clients.clear();
    reloader.reset();
    if (server) server->stop();
    server.reset();
    engine.reset();
    store.reset();
  }
};

void serve_setup(const GraphSpec& g, std::uint64_t seed,
                 const std::string& snapshot, Raw& raw, ServingStack& stack) {
  stack.graph = ingest(g, seed, raw);
  {
    Span span("serve.store_build");
    const SketchStore built = SketchStore::build(
        stack.graph, imm_options(g, hash_combine64(seed, kStreamStore)),
        "as-Skitter");
    raw.layer("serve.store_build_s", span.stop());
    Span save("io.snapshot_save");
    built.save_file(snapshot);
    raw.layer("io.snapshot_save_ms", save.stop() * 1e3);
  }
  {
    Span span("io.snapshot_load");
    stack.store =
        std::make_shared<const SketchStore>(SketchStore::load_file(snapshot));
    raw.layer("io.snapshot_load_ms", span.stop() * 1e3);
  }
  const SnapshotLoadStats& ls = stack.store->load_stats();
  raw.layer("io.snapshot_mb",
            static_cast<double>(ls.file_bytes) / (1024.0 * 1024.0));
  raw.layer("io.bytes_copied", static_cast<double>(ls.bytes_copied));
  if (!ls.mmap_backed || ls.bytes_copied != 0) {
    throw std::runtime_error("snapshot load was not zero-copy");
  }
  raw.config["snapshot_version"] = std::to_string(ls.version);
  raw.config["snapshot_compressed"] = ls.compressed ? "true" : "false";
  {
    Span span("serve.engine_verify");
    stack.engine = std::make_unique<QueryEngine>(*stack.store);
    raw.layer("serve.engine_verify_ms", span.stop() * 1e3);
  }
  ServerOptions so;
  so.socket_path = "perfbench.sock";
  so.executor.threads = kThreads;
  so.snapshot_path = snapshot;
  stack.server = std::make_unique<SketchServer>(stack.store, so);
  stack.server->start();
  for (int c = 0; c < kClients; ++c) {
    stack.clients.push_back(std::make_unique<SketchClient>(so.socket_path));
  }
  stack.reloader = std::make_unique<SketchClient>(so.socket_path);

  // Warm-up queries from their own stream: the unconstrained prefix and
  // blacklists outside the timed mix's universe.
  const QueryMix warm(stack.graph.num_vertices(),
                      hash_combine64(seed, kStreamWarmup));
  std::mt19937_64 rng(hash_combine64(seed, kStreamWarmup));
  for (int i = 0; i < kWarmupQueries; ++i) {
    for (auto& client : stack.clients) {
      const auto [kind, index] = warm.draw(rng);
      const QueryOptions& q = warm.queries[index];
      const QueryResult r =
          kind == QueryKind::kTopK ? client->top_k(q.k) : client->select(q);
      if (r.seeds.size() != q.k) {
        throw std::runtime_error("warm-up query returned a short answer");
      }
    }
  }
}

void run_serve_workload(std::uint64_t seed, double seconds, bool trace,
                        Raw& raw) {
  const GraphSpec g = graph_for("serve-lt-mixed");
  const std::string snapshot = "perfbench-store.eimmsks";
  ServingStack stack;
  const auto setup_start = Clock::now();
  serve_setup(g, seed, snapshot, raw, stack);
  raw.setup_s = seconds_since(setup_start);
  raw.config["threads_used"] = std::to_string(kThreads);
  raw.config["shards_used"] = std::to_string(resolve_shards(0));
  raw.config["counter_shards_used"] =
      std::to_string(resolve_counter_shards(0));
  raw.config["fused_sampling_used"] =
      resolve_fused_sampling(FusedSampling::kAuto) ? "true" : "false";
  raw.config["pool_compression_used"] = std::string(
      to_string(resolve_pool_compression(PoolCompression::kAuto)));

  const QueryMix mix(stack.graph.num_vertices(), seed);
  std::vector<ClientLog> logs(kClients);
  std::vector<double> reload_ms;
  EpochTotals totals;
  std::uint64_t reload_attempted = 0;
  Failures reload_failed;
  std::vector<std::string> reload_notes;

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      closed_loop_client(*stack.clients[c], mix, seed, c, trace, deadline,
                         logs[c]);
    });
  }
  threads.emplace_back([&] {
    std::uint64_t generation = stack.server->generation();
    for (auto next = start + kReloadPeriod; next < deadline;
         next += kReloadPeriod) {
      std::this_thread::sleep_until(next);
      std::shared_ptr<ServingEpoch> previous =
          trace ? stack.server->registry().current() : nullptr;
      ++reload_attempted;
      try {
        Span span("serve.reload");
        const std::uint64_t now_gen = stack.reloader->reload();
        reload_ms.push_back(span.stop() * 1e3);
        if (now_gen != generation + 1) {
          ++reload_failed.invalid;
          reload_notes.push_back("reload moved generation " +
                                 std::to_string(generation) + " -> " +
                                 std::to_string(now_gen));
        }
        generation = now_gen;
        const SketchClient::Info info = stack.reloader->info();
        if (!info.mmap_backed || info.bytes_copied != 0) {
          ++reload_failed.invalid;
          reload_notes.push_back("reloaded snapshot was not zero-copy");
        }
      } catch (const std::exception& e) {
        ++reload_failed.threw;
        reload_notes.push_back(std::string("reload threw: ") + e.what());
      }
      if (previous) {
        // Let queries admitted on the old epoch drain before reading its
        // final executor counters.
        for (int spin = 0; previous.use_count() > 1 && spin < 2000; ++spin) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        totals.add(*previous);
      }
    }
  });
  for (int c = 0; c < kClients; ++c) threads[c].join();
  raw.timed_wall_s = seconds_since(start);
  threads.back().join();
  if (trace) totals.add(*stack.server->registry().current());

  // Served answers must equal the in-process engine's, query by query.
  std::unordered_map<std::size_t, std::uint64_t> expected;
  std::vector<double> kernel_ms;
  std::uint64_t retries = 0;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::map<std::string, std::vector<double>> ms_by_kind;
  for (ClientLog& log : logs) {
    raw.attempted += log.attempted;
    raw.failed += log.failed;
    retries += log.retries;
    for (const std::string& n : log.notes) raw.notes.push_back(n);
    for (const auto& [kind, ms] : log.ms_by_kind) {
      auto& all = ms_by_kind[kind];
      all.insert(all.end(), ms.begin(), ms.end());
    }
    traced_ms.insert(traced_ms.end(), log.traced_ms.begin(),
                     log.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), log.untraced_ms.begin(),
                       log.untraced_ms.end());
    for (const ServedOp& op : log.served) {
      auto it = expected.find(op.query);
      if (it == expected.end()) {
        const QueryOptions& q = mix.queries[op.query];
        const auto t0 = Clock::now();
        const QueryResult want = stack.engine->answer(q);
        if (op.query > kHotBlacklists) {
          kernel_ms.push_back(seconds_since(t0) * 1e3);
        }
        it = expected.emplace(op.query, digest(want)).first;
      }
      if (it->second != op.digest) ++raw.failed.invalid;
    }
  }
  // The latency samples are the untraced round trips (all of them when
  // tracing is off).
  raw.op_ms = untraced_ms;
  raw.attempted += reload_attempted;
  raw.failed += reload_failed;
  for (const std::string& n : reload_notes) raw.notes.push_back(n);
  raw.config["reloads"] = std::to_string(reload_ms.size());
  raw.config["generation"] = std::to_string(stack.server->generation());

  if (trace) {
    for (const auto& [kind, ms] : ms_by_kind) {
      raw.layers["serve.rtt_p50_ms." + kind] = {median(ms)};
    }
    raw.layers["serve.kernel_p50_ms"] = {median(kernel_ms)};
    raw.layers["serve.reload_ms"] = reload_ms;
    raw.layer("serve.queue_wait_us_p50", totals.queue_wait_us.quantile(0.5));
    raw.layer("serve.exec_us_p50", totals.exec_us.quantile(0.5));
    raw.layer("serve.batch_size_mean", totals.batch_size.mean());
    const std::uint64_t lookups = totals.cache_hits + totals.cache_misses;
    raw.layer("serve.cache_hit_ratio",
              lookups ? static_cast<double>(totals.cache_hits) /
                            static_cast<double>(lookups)
                      : 0.0);
    raw.layer("serve.retries", static_cast<double>(retries));
    raw.layer("trace.overhead_frac",
              median(traced_ms) / median(untraced_ms) - 1.0);
  }

  const std::span<const VertexId> seeds = stack.store->default_seeds();
  const std::span<const VertexId> top(seeds.data(),
                                      std::min(seeds.size(), kSeeds));
  if (!valid_seeds(top, stack.graph.num_vertices())) {
    throw std::runtime_error("store's default seeds are invalid");
  }
  raw.seed_spread = spread_of(stack.graph, g.model, top);
  stack.stop();
  std::remove(snapshot.c_str());
}

// ---------------------------------------------------------------------------

/// Clears every EIMM_* variable so the library runs its defaults.
std::vector<std::string> scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("EIMM_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  return names;
}

int usage() {
  std::fprintf(stderr,
               "usage: eimm_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out RAW.json [--trace-out TRACE.json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> scrubbed = scrub_environment();
  const std::string load_start = read_loadavg();

  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (!args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("out")) {
    return usage();
  }
  const std::string workload = args["workload"];
  const std::uint64_t seed = std::stoull(args["seed"]);
  const double seconds = std::stod(args["seconds"]);
  const bool trace = args.count("trace") && args["trace"] == "1";
  g_spans.enabled = trace;

  Raw raw;
  record_host(raw);
  try {
    if (workload == "imm-ic-dense" || workload == "imm-lt-sparse") {
      run_imm_workload(workload, seed, seconds, trace, raw);
    } else if (workload == "serve-lt-mixed") {
      run_serve_workload(seed, seconds, trace, raw);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eimm_perfbench: %s\n", e.what());
    return 1;
  }
  write_raw(args["out"], workload, seed, trace, raw, scrubbed, load_start);
  if (trace && args.count("trace-out")) {
    g_spans.write_chrome(args["trace-out"]);
  }
  return 0;
}
