// sketch_server core — a long-lived serving layer over one frozen
// SketchStore.
//
// The paper's build/serve split stops one step short of a service: the
// CLI re-loads the snapshot per invocation. With snapshots mmap'ed
// read-only, N server processes share one page-cache copy of the sketch
// data and cold-start in O(section table), so running the store as a
// daemon is finally cheaper than running it as a command. This header
// is that daemon, split into three independently testable layers:
//
//   wire        — a length-prefixed little-endian frame codec
//                 (WireWriter/WireReader over byte buffers; no sockets,
//                 so protocol tests run without any I/O).
//   BatchingExecutor — admission control + micro-batching over
//                 QueryEngine::run_batch. Unconstrained top-k prefix
//                 reads and QueryCache hits are answered on the
//                 connection thread; the remaining queries queue for a
//                 dispatcher thread that runs whatever queued while its
//                 previous batch ran (up to max_batch) as one pinned
//                 OpenMP batch, with no coalescing window. Constrained
//                 results feed the cache.
//   SketchServer — the AF_UNIX socket front end: acceptor thread +
//                 thread-per-connection, length-prefixed frames, one
//                 request/response pair per frame, per-request timeout,
//                 graceful drain on shutdown.
//
// Protocol (all integers little-endian):
//   frame    := u32 payload_bytes, payload
//   request  := u8 verb, verb body
//   response := u8 status, status/verb body
//
//   verbs: Ping(0)      — empty; pong (empty kOk body)
//          TopK(1)      — u64 k
//          Select(2)    — u64 k, u32 ncand, u32[ncand], u32 nforb,
//                         u32[nforb]
//          Evaluate(3)  — u32 nseeds, u32[nseeds]
//          Batch(4)     — u32 nqueries, nqueries × Select body
//          Info(5)      — empty
//          Shutdown(6)  — empty; server drains and exits after replying
//          Stats(7)     — empty; live telemetry snapshot (body below)
//          Reload(8)    — string snapshot path (empty = the path the
//                         server was started from); atomically swaps in
//                         a freshly checksum-verified snapshot. On any
//                         load failure the old store keeps serving and
//                         the reply is kError.
//   status: kOk(0)         — verb-specific body below
//           kError(1)      — string (u64 length + bytes) diagnostic
//           kTimeout(2)    — string diagnostic (the query kept running;
//                            its result is discarded)
//           kOverloaded(3) — string diagnostic (admission queue full —
//                            the client should back off and retry)
//   kOk bodies: query result  := u32 nseeds, u32[nseeds] seeds,
//                                u64[nseeds] marginals, u64 covered,
//                                u64 total, f64 spread
//               batch         := u32 nresults, nresults × query result
//               evaluate      := u32 n, u64[n] incremental, u64 covered,
//                                u64 total, f64 spread
//               info          := u32 |V|, u64 sketches, u64 k_max,
//                                string workload, string model,
//                                u8 mmap_backed, u64 bytes_mapped,
//                                u64 bytes_copied, u64 generation
//               stats         := u64 requests, u64 timeouts,
//                                u64 submitted, u64 cache_hits,
//                                u64 rejected, u64 batches,
//                                u64 largest_batch, u64 qc_hits,
//                                u64 qc_misses, u64 qc_evictions,
//                                u64 qc_entries, u64 generation,
//                                u64 reloads, u64 failed_reloads,
//                                u64 select_refreshes,
//                                u64 sketches_retired,
//                                u64 prefix_reads,
//                                3 × histogram
//                                (queue wait µs, batch size, exec µs;
//                                queue wait counts every enqueued
//                                query: submitted − cache_hits −
//                                prefix_reads)
//               reload        := u64 generation, string path loaded
//               histogram     := u64 count, u64 sum, u32 nbuckets,
//                                nbuckets × u64 (log2 buckets; see
//                                obs::kHistogramBuckets layout)
//
// Fault tolerance: every failure a client can observe is typed. Server
// replies map to ServerOverloadedError / ServerTimeoutError (transient,
// safe to retry — the request was never executed or its result was
// discarded) or plain CheckError (permanent). Transport failures (EOF,
// short read, receive timeout) map to TransportError and reconnect.
// SketchClient retries transient failures with bounded exponential
// backoff + deterministic jitter under a caller-supplied deadline
// (RetryOptions); the default configuration (max_attempts = 1) performs
// no retries, preserving single-shot semantics.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/executor.hpp"
#include "serve/query_cache.hpp"
#include "serve/query_engine.hpp"
#include "serve/store_registry.hpp"
#include "support/macros.hpp"

namespace eimm::wire {

enum class Verb : std::uint8_t {
  kPing = 0,
  kTopK = 1,
  kSelect = 2,
  kEvaluate = 3,
  kBatch = 4,
  kInfo = 5,
  kShutdown = 6,
  kStats = 7,
  kReload = 8,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kError = 1,
  kTimeout = 2,
  kOverloaded = 3,
};

/// Frames larger than this are rejected on read — a corrupt or hostile
/// length prefix must not turn into a giant allocation.
constexpr std::uint32_t kMaxFrameBytes = 1u << 26;

/// Append-only payload builder (the frame length prefix is written by
/// the transport, not the codec).
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { pod(v); }
  void u64(std::uint64_t v) { pod(v); }
  void f64(double v) { pod(v); }
  void str(const std::string& s);
  void ids(std::span<const VertexId> v);     // u32 count + u32 ids
  void counts(std::span<const std::uint64_t> v);  // u64 values, NO count

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  template <typename T>
  void pod(const T& v) {
    const auto* raw = reinterpret_cast<const std::uint8_t*>(&v);
    buf_.insert(buf_.end(), raw, raw + sizeof v);
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked payload reader: every underrun (and trailing garbage,
/// via expect_done) throws CheckError, so a malformed frame becomes a
/// kError response instead of UB.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> payload)
      : payload_(payload) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<VertexId> ids();
  [[nodiscard]] std::vector<std::uint64_t> counts(std::size_t n);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return payload_.size() - pos_;
  }
  /// Call after the last field: trailing bytes mean a protocol mismatch.
  void expect_done() const;

 private:
  void need(std::size_t n) const;
  std::span<const std::uint8_t> payload_;
  std::size_t pos_ = 0;
};

/// Request/response payload helpers shared by server, client tool and
/// tests (one encoding, written once).
void encode_query(WireWriter& w, const QueryOptions& query);
[[nodiscard]] QueryOptions decode_query(WireReader& r);
void encode_result(WireWriter& w, const QueryResult& result);
[[nodiscard]] QueryResult decode_result(WireReader& r);
void encode_histogram(WireWriter& w, const obs::HistogramSnapshot& histogram);
[[nodiscard]] obs::HistogramSnapshot decode_histogram(WireReader& r);

}  // namespace eimm::wire

namespace eimm {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX listening socket (created on
  /// start(), unlinked on stop()).
  std::string socket_path;
  /// Reply deadline: a query not finished within this window gets a
  /// kTimeout response (the kernel run is not cancelled — its result is
  /// discarded).
  std::chrono::milliseconds request_timeout{2000};
  ExecutorOptions executor;
  /// Snapshot the server was started from; the default target of a
  /// kReload request with an empty path (and of SIGHUP-driven reloads).
  /// Empty = the server was constructed around an in-memory store and
  /// path-less reloads are rejected.
  std::string snapshot_path;
  /// Load options for reload targets (checksums are always forced to at
  /// least eager — a reload never swaps in unverified bytes).
  SnapshotLoadOptions reload_load;
};

/// The socket front end. One acceptor thread, one thread per
/// connection; all queries funnel through one BatchingExecutor, so
/// concurrent clients micro-batch into shared kernel dispatches.
class SketchServer {
 public:
  /// Non-owning: store must outlive the server (wrapped in a no-op
  /// deleter epoch — a later reload drops the reference without
  /// touching the caller's object).
  SketchServer(const SketchStore& store, ServerOptions options);
  /// Owning: the server (and any in-flight query) keeps the store alive
  /// through its serving epoch. The ctor required for hot reload.
  SketchServer(std::shared_ptr<const SketchStore> store,
               ServerOptions options);
  ~SketchServer();

  SketchServer(const SketchServer&) = delete;
  SketchServer& operator=(const SketchServer&) = delete;

  /// Binds + listens + spawns the acceptor. Throws CheckError when the
  /// socket cannot be created (stale paths are unlinked first).
  void start();
  /// Initiates shutdown: stops accepting, shuts down live connections,
  /// drains admitted queries, joins all threads. Idempotent.
  void stop();
  /// Blocks until stop() completes (from any thread or a Shutdown verb).
  void wait();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }
  [[nodiscard]] BatchingExecutor::Stats executor_stats() const {
    return registry_.current()->executor.stats();
  }
  [[nodiscard]] QueryCache::Stats cache_stats() const {
    return registry_.current()->executor.cache_stats();
  }
  /// Requests served per verb, summed over all connections.
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_served_.load(std::memory_order_relaxed);
  }
  /// Requests answered with kTimeout, summed over all connections.
  [[nodiscard]] std::uint64_t timeouts() const noexcept {
    return timeouts_.load(std::memory_order_relaxed);
  }

  /// Hot reload: atomically swaps in the snapshot at `path` (empty =
  /// options.snapshot_path). Checksum-verified before the swap; on
  /// failure the old store keeps serving and the exception propagates.
  /// Safe from any thread (the SIGHUP watcher calls this). Returns the
  /// new generation.
  std::uint64_t reload_from(const std::string& path = "");
  /// Generation of the currently serving epoch (starts at 1).
  [[nodiscard]] std::uint64_t generation() const {
    return registry_.generation();
  }
  [[nodiscard]] const StoreRegistry& registry() const noexcept {
    return registry_;
  }

 private:
  void accept_loop();
  void serve_connection(int fd);
  [[nodiscard]] std::vector<std::uint8_t> handle_request(
      std::span<const std::uint8_t> payload, bool& shutdown_requested);

  ServerOptions options_;
  StoreRegistry registry_;

  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::thread acceptor_;

  std::mutex conn_mutex_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;

  std::mutex stop_mutex_;
  std::condition_variable stopped_cv_;
  bool stopped_ = false;
};

// --- Typed client-side failures ---

/// Base of every failure that is safe to retry: the request was never
/// executed, or its result was discarded server-side. Derives
/// CheckError so existing catch sites keep working.
class TransientError : public CheckError {
 public:
  using CheckError::CheckError;
};

/// kOverloaded reply: admission queue full (or an injected rejection).
class ServerOverloadedError : public TransientError {
 public:
  using TransientError::TransientError;
};

/// kTimeout reply: the server discarded the result past its deadline.
class ServerTimeoutError : public TransientError {
 public:
  using TransientError::TransientError;
};

/// The connection died (EOF, short read/write, receive timeout, failed
/// reconnect). The client reconnects before retrying.
class TransportError : public TransientError {
 public:
  using TransientError::TransientError;
};

/// The caller's retry deadline expired before an attempt succeeded.
/// NOT transient: retrying cannot help within the same budget.
class DeadlineExceededError : public CheckError {
 public:
  using CheckError::CheckError;
};

/// Client-side retry policy. The default (max_attempts = 1) performs no
/// retries — single-shot semantics, identical to the pre-retry client.
struct RetryOptions {
  /// Total attempts per request (first try included). Must be ≥ 1.
  std::size_t max_attempts = 1;
  /// Backoff before retry n is initial_backoff · multiplier^(n-1),
  /// capped at max_backoff, then jittered by ±jitter (fraction).
  std::chrono::milliseconds initial_backoff{5};
  double backoff_multiplier = 2.0;
  std::chrono::milliseconds max_backoff{250};
  double jitter = 0.25;
  /// Wall-clock budget across ALL attempts of one request, including
  /// backoff sleeps (propagated to the socket as per-attempt
  /// send/receive timeouts, so one hung attempt cannot eat the whole
  /// budget). Zero = unbounded. Exhaustion throws
  /// DeadlineExceededError.
  std::chrono::milliseconds deadline{0};
  /// Seed of the deterministic jitter stream (tests replay backoff
  /// schedules exactly).
  std::uint64_t rng_seed = 0x9e3779b97f4a7c15ull;
};

/// Lifetime retry accounting of one client (monotonic).
struct RetryStats {
  /// Attempts made, first tries included.
  std::uint64_t attempts = 0;
  /// Attempts beyond the first (i.e. actual retries).
  std::uint64_t retries = 0;
  /// Transport-level reconnects performed before a retry.
  std::uint64_t reconnects = 0;
  /// Requests that exhausted every attempt (or their deadline).
  std::uint64_t giveups = 0;
};

// --- Blocking client-side transport (tools + tests) ---
/// Connects, frames requests, unframes responses. Synchronous: one
/// outstanding request at a time per connection. With a RetryOptions of
/// max_attempts > 1, transient failures (kOverloaded / kTimeout replies,
/// transport drops, receive timeouts) are retried with exponential
/// backoff + deterministic jitter; requests are idempotent queries, so a
/// replay after an ambiguous drop is always safe — except Shutdown,
/// which is never retried.
class SketchClient {
 public:
  /// Throws CheckError when the socket cannot be reached.
  explicit SketchClient(const std::string& socket_path,
                        RetryOptions retry = {});
  ~SketchClient();

  SketchClient(const SketchClient&) = delete;
  SketchClient& operator=(const SketchClient&) = delete;

  /// Sends one framed request payload, returns the response payload.
  /// Single attempt, no retries (the raw transport; verb conveniences
  /// layer retry on top). Throws TransportError when the connection
  /// dies mid-roundtrip.
  [[nodiscard]] std::vector<std::uint8_t> roundtrip(
      std::span<const std::uint8_t> request);

  // Verb conveniences. Non-kOk statuses throw ServerOverloadedError /
  // ServerTimeoutError / CheckError carrying the server's diagnostic
  // (so callers never mistake an error frame for an empty result);
  // transient failures are retried per RetryOptions first.
  void ping();
  [[nodiscard]] QueryResult top_k(std::size_t k);
  [[nodiscard]] QueryResult select(const QueryOptions& query);
  [[nodiscard]] std::vector<QueryResult> batch(
      const std::vector<QueryOptions>& queries);
  struct Info {
    VertexId num_vertices = 0;
    std::uint64_t num_sketches = 0;
    std::uint64_t k_max = 0;
    std::string workload;
    std::string model;
    bool mmap_backed = false;
    std::uint64_t bytes_mapped = 0;
    std::uint64_t bytes_copied = 0;
    /// Serving-epoch generation (bumps on every hot reload).
    std::uint64_t generation = 0;
  };
  [[nodiscard]] Info info();
  /// Live telemetry of the server: request/timeout totals, executor
  /// stats (incl. queue-wait / batch-size / exec-time histograms),
  /// query-cache hit/miss counts and reload generation counters.
  struct ServerStats {
    std::uint64_t requests = 0;
    std::uint64_t timeouts = 0;
    BatchingExecutor::Stats executor;
    QueryCache::Stats cache;
    std::uint64_t generation = 0;
    std::uint64_t reloads = 0;
    std::uint64_t failed_reloads = 0;
    /// Select-kernel work of the server process, from the obs counters
    /// query.select.refreshes_total and .sketches_retired_total (0 while
    /// metrics are disabled).
    std::uint64_t select_refreshes = 0;
    std::uint64_t sketches_retired = 0;
  };
  [[nodiscard]] ServerStats stats();
  /// Asks the server to hot-swap its snapshot (empty path = the
  /// server's startup snapshot). Returns the new generation. A failed
  /// reload surfaces as CheckError; the server keeps serving the old
  /// store either way.
  std::uint64_t reload(const std::string& snapshot_path = "");
  void shutdown_server();

  /// This client's lifetime retry accounting.
  [[nodiscard]] const RetryStats& retry_stats() const noexcept {
    return retry_stats_;
  }

 private:
  void connect_or_throw();
  void apply_attempt_timeout(
      std::chrono::steady_clock::time_point deadline);
  /// The retry loop: roundtrip + status check, with reconnect/backoff
  /// on transient failures. Returns the kOk-status response payload.
  [[nodiscard]] std::vector<std::uint8_t> call(
      std::span<const std::uint8_t> request, bool retryable);
  [[nodiscard]] wire::WireReader checked(std::vector<std::uint8_t>& response);

  std::string socket_path_;
  RetryOptions retry_;
  RetryStats retry_stats_;
  std::uint64_t jitter_state_ = 0;
  int fd_ = -1;
};

}  // namespace eimm
