#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/failpoint.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"

namespace eimm {

namespace wire {

void WireWriter::str(const std::string& s) {
  u64(s.size());
  const auto* raw = reinterpret_cast<const std::uint8_t*>(s.data());
  buf_.insert(buf_.end(), raw, raw + s.size());
}

void WireWriter::ids(std::span<const VertexId> v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (const VertexId id : v) u32(id);
}

void WireWriter::counts(std::span<const std::uint64_t> v) {
  for (const std::uint64_t c : v) u64(c);
}

void WireReader::need(std::size_t n) const {
  if (payload_.size() - pos_ < n) {
    throw CheckError("truncated wire frame: need " + std::to_string(n) +
                     " more bytes at offset " + std::to_string(pos_) +
                     " of a " + std::to_string(payload_.size()) +
                     "-byte payload");
  }
}

std::uint8_t WireReader::u8() {
  need(1);
  return payload_[pos_++];
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  std::memcpy(&v, payload_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  std::memcpy(&v, payload_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

double WireReader::f64() {
  need(8);
  double v = 0;
  std::memcpy(&v, payload_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

std::string WireReader::str() {
  const std::uint64_t size = u64();
  need(size);
  std::string s(reinterpret_cast<const char*>(payload_.data() + pos_),
                static_cast<std::size_t>(size));
  pos_ += static_cast<std::size_t>(size);
  return s;
}

std::vector<VertexId> WireReader::ids() {
  const std::uint32_t count = u32();
  need(static_cast<std::size_t>(count) * sizeof(VertexId));
  std::vector<VertexId> v(count);
  // An empty vector's data() may be null, which memcpy must not receive.
  if (!v.empty()) {
    std::memcpy(v.data(), payload_.data() + pos_, v.size() * sizeof(VertexId));
  }
  pos_ += v.size() * sizeof(VertexId);
  return v;
}

std::vector<std::uint64_t> WireReader::counts(std::size_t n) {
  need(n * sizeof(std::uint64_t));
  std::vector<std::uint64_t> v(n);
  if (!v.empty()) {
    std::memcpy(v.data(), payload_.data() + pos_,
                v.size() * sizeof(std::uint64_t));
  }
  pos_ += v.size() * sizeof(std::uint64_t);
  return v;
}

void WireReader::expect_done() const {
  if (pos_ != payload_.size()) {
    throw CheckError("wire frame carries " +
                     std::to_string(payload_.size() - pos_) +
                     " unexpected trailing bytes");
  }
}

void encode_query(WireWriter& w, const QueryOptions& query) {
  w.u64(query.k);
  w.ids(query.candidates);
  w.ids(query.forbidden);
}

QueryOptions decode_query(WireReader& r) {
  QueryOptions q;
  q.k = static_cast<std::size_t>(r.u64());
  q.candidates = r.ids();
  q.forbidden = r.ids();
  return q;
}

void encode_result(WireWriter& w, const QueryResult& result) {
  w.ids(result.seeds);
  w.counts(result.marginal_coverage);
  w.u64(result.covered_sketches);
  w.u64(result.total_sketches);
  w.f64(result.estimated_spread);
}

QueryResult decode_result(WireReader& r) {
  QueryResult result;
  result.seeds = r.ids();
  result.marginal_coverage = r.counts(result.seeds.size());
  result.covered_sketches = r.u64();
  result.total_sketches = r.u64();
  result.estimated_spread = r.f64();
  return result;
}

void encode_histogram(WireWriter& w, const obs::HistogramSnapshot& histogram) {
  w.u64(histogram.count);
  w.u64(histogram.sum);
  w.u32(static_cast<std::uint32_t>(obs::kHistogramBuckets));
  for (const std::uint64_t bucket : histogram.buckets) w.u64(bucket);
}

obs::HistogramSnapshot decode_histogram(WireReader& r) {
  obs::HistogramSnapshot out;
  out.count = r.u64();
  out.sum = r.u64();
  const std::uint32_t nbuckets = r.u32();
  // Tolerate a peer built with a different bucket count: read what it
  // sent, keep the prefix that fits our fixed layout.
  for (std::uint32_t b = 0; b < nbuckets; ++b) {
    const std::uint64_t bucket = r.u64();
    if (b < obs::kHistogramBuckets) out.buckets[b] = bucket;
  }
  return out;
}

}  // namespace wire

namespace {

using wire::Status;
using wire::Verb;
using wire::WireReader;
using wire::WireWriter;

// --- fd helpers (EINTR-safe, partial-transfer-safe) ---

bool read_exact(int fd, void* buf, std::size_t bytes) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (bytes > 0) {
    const ssize_t n = ::read(fd, p, bytes);
    if (n > 0) {
      p += n;
      bytes -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or hard error — the connection is gone
  }
  return true;
}

bool write_exact(int fd, const void* buf, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (bytes > 0) {
    // MSG_NOSIGNAL: a peer hanging up mid-reply must surface as EPIPE
    // (a clean connection drop), never a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, p, bytes, MSG_NOSIGNAL);
    if (n > 0) {
      p += n;
      bytes -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Reads one length-prefixed frame. Returns false on clean EOF before
/// the prefix (client hung up); throws on oversized frames.
bool read_frame(int fd, std::vector<std::uint8_t>& payload) {
  std::uint32_t bytes = 0;
  if (!read_exact(fd, &bytes, sizeof bytes)) return false;
  if (bytes > wire::kMaxFrameBytes) {
    throw CheckError("wire frame of " + std::to_string(bytes) +
                     " bytes exceeds the " +
                     std::to_string(wire::kMaxFrameBytes) + "-byte cap");
  }
  payload.resize(bytes);
  if (bytes > 0 && !read_exact(fd, payload.data(), bytes)) {
    throw CheckError("connection dropped mid-frame");
  }
  return true;
}

bool write_frame(int fd, std::span<const std::uint8_t> payload) {
  const auto bytes = static_cast<std::uint32_t>(payload.size());
  return write_exact(fd, &bytes, sizeof bytes) &&
         (payload.empty() ||
          write_exact(fd, payload.data(), payload.size()));
}

std::vector<std::uint8_t> status_frame(Status status,
                                       const std::string& message) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(status));
  w.str(message);
  return w.take();
}

/// True when `site` fired in a failure mode (kError/kTrunc). kDelay has
/// already slept inside hit() and is NOT a failure — chaos schedules
/// can add latency at a site without changing its outcome.
bool failpoint_fired(const char* site) {
  const std::optional<fail::Mode> mode = fail::hit(site);
  return mode.has_value() && *mode != fail::Mode::kDelay;
}

/// An already-settled future: the reply of a query that never enqueued.
std::future<QueryResult> ready_future(QueryResult result) {
  std::promise<QueryResult> ready;
  ready.set_value(std::move(result));
  return ready.get_future();
}

}  // namespace

// --- BatchingExecutor ---

BatchingExecutor::BatchingExecutor(const QueryEngine& engine,
                                   ExecutorOptions options)
    : engine_(&engine),
      options_(options),
      cache_(options.cache_capacity) {
  EIMM_CHECK(options_.max_batch > 0, "executor max_batch must be positive");
  EIMM_CHECK(options_.max_queue > 0, "executor max_queue must be positive");
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

BatchingExecutor::~BatchingExecutor() { stop(); }

std::future<QueryResult> BatchingExecutor::submit(QueryOptions query) {
  // Validate on the caller's thread: an out-of-range id or oversized k
  // fails the ONE bad request synchronously instead of poisoning the
  // whole micro-batch it would have joined (run_batch's serial
  // pre-validation throws for the entire batch at once).
  validate_store_query(engine_->store(), query);
  if (std::optional<QueryResult> ready = answer_without_queue(query)) {
    return ready_future(std::move(*ready));
  }
  std::unique_lock<std::mutex> lock(mutex_);
  admit_locked(1);
  std::future<QueryResult> future = enqueue_locked(std::move(query));
  lock.unlock();
  cv_.notify_one();
  return future;
}

std::vector<std::future<QueryResult>> BatchingExecutor::submit_all(
    std::vector<QueryOptions> queries) {
  for (const QueryOptions& q : queries) {
    validate_store_query(engine_->store(), q);
  }
  std::vector<std::future<QueryResult>> futures(queries.size());
  std::vector<std::size_t> queued;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (std::optional<QueryResult> ready = answer_without_queue(queries[i])) {
      futures[i] = ready_future(std::move(*ready));
    } else {
      queued.push_back(i);
    }
  }
  if (queued.empty()) return futures;
  EIMM_CHECK(queued.size() <= options_.max_queue,
             "batch of " + std::to_string(queued.size()) +
                 " kernel queries exceeds the admission queue (" +
                 std::to_string(options_.max_queue) + ")");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    admit_locked(queued.size());
    for (const std::size_t i : queued) {
      futures[i] = enqueue_locked(std::move(queries[i]));
    }
  }
  cv_.notify_one();
  return futures;
}

std::optional<QueryResult> BatchingExecutor::answer_without_queue(
    const QueryOptions& query) {
  if (failpoint_fired("serve.admit")) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected;
    throw OverloadError(
        "injected admission rejection at failpoint 'serve.admit'");
  }
  if (!query.constrained()) {
    QueryResult prefix = engine_->top_k(query.k);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    ++stats_.prefix_reads;
    return prefix;
  }
  std::optional<QueryResult> cached = cache_.lookup(query);
  if (cached) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    ++stats_.cache_hits;
  }
  return cached;
}

void BatchingExecutor::admit_locked(std::size_t count) {
  if (stopping_) throw CheckError("executor is shutting down");
  if (queue_.size() + count > options_.max_queue) {
    stats_.rejected += count;
    throw OverloadError("admission queue full (" +
                        std::to_string(options_.max_queue) +
                        " queries pending)");
  }
}

std::future<QueryResult> BatchingExecutor::enqueue_locked(
    QueryOptions&& query) {
  ++stats_.submitted;
  queue_.push_back(Pending{std::move(query), std::promise<QueryResult>(),
                           monotonic_ns()});
  return queue_.back().promise.get_future();
}

void BatchingExecutor::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && !dispatcher_.joinable()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

BatchingExecutor::Stats BatchingExecutor::stats() const {
  Stats out;
  {
    // The scalar counters are only ever mutated under mutex_; snapshot
    // them under the same lock and hand the caller a value copy.
    std::lock_guard<std::mutex> lock(mutex_);
    out = stats_;
  }
  out.queue_wait_us = queue_wait_us_.snapshot();
  out.batch_size = batch_size_.snapshot();
  out.exec_us = exec_us_.snapshot();
  return out;
}

void BatchingExecutor::dispatch_loop() {
  // Reused across batches: once they have grown to the backlog's size,
  // a dispatch allocates nothing of its own.
  std::vector<Pending> batch;
  std::vector<QueryOptions> queries;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping with a drained queue
      // No coalescing window: take what queued while the last batch ran.
      if (queue_.size() <= options_.max_batch) {
        batch.swap(queue_);
      } else {
        const auto take = static_cast<std::ptrdiff_t>(options_.max_batch);
        std::move(queue_.begin(), queue_.begin() + take,
                  std::back_inserter(batch));
        queue_.erase(queue_.begin(), queue_.begin() + take);
      }
      // Observed before the scalar count moves, so a stats() snapshot
      // (scalars first, histograms after) never shows more batches than
      // batch sizes.
      batch_size_.observe(batch.size());
      ++stats_.batches;
      stats_.largest_batch = std::max<std::uint64_t>(stats_.largest_batch,
                                                     batch.size());
    }
    // The per-query histogram updates are lock-free; record them after
    // dropping the admission lock so producers are not stalled by them.
    const std::uint64_t dispatch_ns = monotonic_ns();
    for (const Pending& p : batch) {
      queue_wait_us_.observe((dispatch_ns - p.enqueue_ns) / 1000);
    }
    run_one_batch(batch, queries);
    batch.clear();
  }
}

void BatchingExecutor::run_one_batch(std::vector<Pending>& batch,
                                     std::vector<QueryOptions>& queries) {
  obs::TraceSpan span("serve.batch", "size",
                      static_cast<std::int64_t>(batch.size()));
  try {
    // Chaos site: `delay` holds the dispatcher (so tests can build a
    // queue deterministically); `error` fails the batch before it runs,
    // which the server reports as a retryable kOverloaded.
    fail::inject("serve.batch");
    Timer exec_timer;
    queries.clear();
    for (Pending& p : batch) queries.push_back(std::move(p.query));
    std::vector<QueryResult> results =
        engine_->run_batch(queries, options_.threads);
    exec_us_.observe(exec_timer.nanos() / 1000);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      cache_.insert(queries[i], results[i]);
      batch[i].promise.set_value(std::move(results[i]));
    }
  } catch (...) {
    // Queries were validated at submit, so this is an injected fault or
    // an internal failure (OOM, kernel bug): every waiter in the batch
    // learns about it.
    for (Pending& p : batch) {
      p.promise.set_exception(std::current_exception());
    }
  }
}

// --- SketchServer ---

SketchServer::SketchServer(const SketchStore& store, ServerOptions options)
    : SketchServer(
          // Non-owning epoch wrapper: the caller keeps the store alive
          // for the server's whole lifetime (the documented contract).
          std::shared_ptr<const SketchStore>(&store,
                                             [](const SketchStore*) {}),
          std::move(options)) {}

SketchServer::SketchServer(std::shared_ptr<const SketchStore> store,
                           ServerOptions options)
    : options_(std::move(options)),
      registry_(std::move(store), options_.executor) {
  EIMM_CHECK(!options_.socket_path.empty(), "server needs a socket path");
  EIMM_CHECK(options_.socket_path.size() < sizeof(sockaddr_un{}.sun_path),
             "socket path too long for AF_UNIX");
}

std::uint64_t SketchServer::reload_from(const std::string& path) {
  const std::string& target = path.empty() ? options_.snapshot_path : path;
  if (target.empty()) {
    throw CheckError(
        "reload needs a snapshot path (the server was started from an "
        "in-memory store)");
  }
  SnapshotLoadOptions load = options_.reload_load;
  return registry_.reload_file(target, load)->generation;
}

SketchServer::~SketchServer() { stop(); }

void SketchServer::start() {
  EIMM_CHECK(!running_.load(), "server already started");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EIMM_CHECK(listen_fd_ >= 0, "cannot create AF_UNIX socket");
  ::unlink(options_.socket_path.c_str());  // stale path from a dead server
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw CheckError("cannot listen on '" + options_.socket_path +
                     "': " + detail);
  }
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void SketchServer::accept_loop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    // Poll with a short tick so stop() is observed even when no client
    // ever connects (accept() alone would block forever).
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lock(conn_mutex_);
    if (stop_requested_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void SketchServer::serve_connection(int fd) {
  std::vector<std::uint8_t> payload;
  bool shutdown_requested = false;
  try {
    while (!stop_requested_.load(std::memory_order_acquire) &&
           read_frame(fd, payload)) {
      // Chaos sites: a fired recv/send failpoint models the connection
      // dying at that point — drop it with NO reply, so the client sees
      // EOF (a retryable TransportError), never a wrong answer.
      if (failpoint_fired("serve.conn.recv")) break;
      const std::vector<std::uint8_t> response =
          handle_request(payload, shutdown_requested);
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      if (failpoint_fired("serve.conn.send")) break;
      if (!write_frame(fd, response)) break;
      if (shutdown_requested) break;
    }
  } catch (const std::exception& e) {
    // Frame-level corruption: best-effort error reply, then hang up
    // (the stream offset is unrecoverable once a frame is malformed).
    write_frame(fd, status_frame(Status::kError, e.what()));
  }
  ::shutdown(fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    std::erase(conn_fds_, fd);
  }
  ::close(fd);
  if (shutdown_requested) stop();
}

std::vector<std::uint8_t> SketchServer::handle_request(
    std::span<const std::uint8_t> payload, bool& shutdown_requested) {
  WireReader r(payload);
  WireWriter ok;
  ok.u8(static_cast<std::uint8_t>(Status::kOk));
  const auto timeout_frame = [this](const char* message) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    return status_frame(Status::kTimeout, message);
  };
  // Pin this request to the serving epoch that is current RIGHT NOW: a
  // concurrent reload swaps the registry pointer but cannot retire the
  // store/engine/executor this request holds until it finishes.
  const std::shared_ptr<ServingEpoch> epoch = registry_.current();
  try {
    // Fires before the request executes, so the kOverloaded reply below
    // is honest: the client may retry without risking double execution.
    fail::inject("serve.wire.decode");
    const auto verb = static_cast<Verb>(r.u8());
    switch (verb) {
      case Verb::kPing:
        r.expect_done();
        return ok.take();
      case Verb::kTopK: {
        QueryOptions q;
        q.k = static_cast<std::size_t>(r.u64());
        r.expect_done();
        std::future<QueryResult> f = epoch->executor.submit(std::move(q));
        if (f.wait_for(options_.request_timeout) !=
            std::future_status::ready) {
          return timeout_frame("query deadline exceeded");
        }
        wire::encode_result(ok, f.get());
        return ok.take();
      }
      case Verb::kSelect: {
        QueryOptions q = wire::decode_query(r);
        r.expect_done();
        std::future<QueryResult> f = epoch->executor.submit(std::move(q));
        if (f.wait_for(options_.request_timeout) !=
            std::future_status::ready) {
          return timeout_frame("query deadline exceeded");
        }
        wire::encode_result(ok, f.get());
        return ok.take();
      }
      case Verb::kEvaluate: {
        const std::vector<VertexId> seeds = r.ids();
        r.expect_done();
        const MarginalGainResult eval = epoch->engine.evaluate(seeds);
        ok.u32(static_cast<std::uint32_t>(eval.incremental_coverage.size()));
        ok.counts(eval.incremental_coverage);
        ok.u64(eval.covered_sketches);
        ok.u64(eval.total_sketches);
        ok.f64(eval.estimated_spread);
        return ok.take();
      }
      case Verb::kBatch: {
        const std::uint32_t count = r.u32();
        std::vector<QueryOptions> queries(count);
        for (QueryOptions& q : queries) q = wire::decode_query(r);
        r.expect_done();
        // One executor call: the batch's kernel queries enqueue under one
        // lock, so the dispatcher picks them up together.
        std::vector<std::future<QueryResult>> futures =
            epoch->executor.submit_all(std::move(queries));
        const auto deadline =
            std::chrono::steady_clock::now() + options_.request_timeout;
        std::vector<QueryResult> results;
        results.reserve(futures.size());
        for (std::future<QueryResult>& f : futures) {
          if (f.wait_until(deadline) != std::future_status::ready) {
            return timeout_frame("batch deadline exceeded");
          }
          results.push_back(f.get());
        }
        ok.u32(static_cast<std::uint32_t>(results.size()));
        for (const QueryResult& result : results) {
          wire::encode_result(ok, result);
        }
        return ok.take();
      }
      case Verb::kInfo: {
        r.expect_done();
        const SketchStoreMeta& meta = epoch->store->meta();
        const SnapshotLoadStats& load = epoch->store->load_stats();
        ok.u32(epoch->store->num_vertices());
        ok.u64(epoch->store->num_sketches());
        ok.u64(epoch->store->k_max());
        ok.str(meta.workload);
        ok.str(meta.model);
        ok.u8(load.mmap_backed ? 1 : 0);
        ok.u64(load.bytes_mapped);
        ok.u64(load.bytes_copied);
        ok.u64(epoch->generation);
        return ok.take();
      }
      case Verb::kStats: {
        r.expect_done();
        const BatchingExecutor::Stats exec = epoch->executor.stats();
        const QueryCache::Stats qcache = epoch->executor.cache_stats();
        ok.u64(requests_served());
        ok.u64(timeouts());
        ok.u64(exec.submitted);
        ok.u64(exec.cache_hits);
        ok.u64(exec.rejected);
        ok.u64(exec.batches);
        ok.u64(exec.largest_batch);
        ok.u64(qcache.hits);
        ok.u64(qcache.misses);
        ok.u64(qcache.evictions);
        ok.u64(static_cast<std::uint64_t>(qcache.entries));
        ok.u64(epoch->generation);
        ok.u64(registry_.reloads());
        ok.u64(registry_.failed_reloads());
        const obs::MetricsSnapshot metrics = obs::snapshot_metrics();
        for (const char* name : {"query.select.refreshes_total",
                                 "query.select.sketches_retired_total"}) {
          const obs::MetricValue* metric = metrics.find(name);
          ok.u64(metric != nullptr ? metric->value : 0);
        }
        ok.u64(exec.prefix_reads);
        wire::encode_histogram(ok, exec.queue_wait_us);
        wire::encode_histogram(ok, exec.batch_size);
        wire::encode_histogram(ok, exec.exec_us);
        return ok.take();
      }
      case Verb::kReload: {
        const std::string path = r.str();
        r.expect_done();
        const std::string& target =
            path.empty() ? options_.snapshot_path : path;
        if (target.empty()) {
          return status_frame(
              Status::kError,
              "reload needs a snapshot path (the server was started from "
              "an in-memory store)");
        }
        const std::shared_ptr<ServingEpoch> fresh =
            registry_.reload_file(target, options_.reload_load);
        ok.u64(fresh->generation);
        ok.str(target);
        return ok.take();
      }
      case Verb::kShutdown:
        r.expect_done();
        shutdown_requested = true;
        return ok.take();
    }
    return status_frame(Status::kError,
                        "unknown verb " +
                            std::to_string(static_cast<unsigned>(
                                payload.empty() ? 255u : payload[0])));
  } catch (const fail::InjectedFault& e) {
    // An injected fault fired before (serve.wire.decode) or while
    // admitting the request: it was never executed, so kOverloaded —
    // the retryable status — is the truthful reply.
    return status_frame(Status::kOverloaded, e.what());
  } catch (const OverloadError& e) {
    return status_frame(Status::kOverloaded, e.what());
  } catch (const std::exception& e) {
    return status_frame(Status::kError, e.what());
  }
}

void SketchServer::stop() {
  if (stop_requested_.exchange(true, std::memory_order_acq_rel)) {
    // Second caller (or re-entry from a connection thread): just wait
    // for the first stop to finish.
    wait();
    return;
  }
  if (acceptor_.joinable() &&
      std::this_thread::get_id() != acceptor_.get_id()) {
    acceptor_.join();
  }
  // Unblock connection threads stuck in read(): shutdown() makes their
  // blocking reads return 0 without yanking the fd out from under them.
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    workers.swap(conn_threads_);
  }
  for (std::thread& t : workers) {
    if (t.get_id() == std::this_thread::get_id()) {
      t.detach();  // stop() reached from this connection's own thread
    } else if (t.joinable()) {
      t.join();
    }
  }
  registry_.shutdown();  // drains admitted queries before returning
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
  running_.store(false, std::memory_order_release);
  // Notify under the lock and make this the last touch of the object: a
  // waiter in wait() cannot return (and the owner cannot destroy the
  // server) until this unlock completes.
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopped_ = true;
    stopped_cv_.notify_all();
  }
}

void SketchServer::wait() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stopped_cv_.wait(lock, [this] { return stopped_; });
}

// --- SketchClient ---

namespace {

/// splitmix64 step — the deterministic jitter stream (seeded per client
/// from RetryOptions::rng_seed, so tests replay backoff schedules).
std::uint64_t splitmix64_next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const obs::Counter& client_retries_counter() {
  static const obs::Counter c = obs::counter("client.retries_total");
  return c;
}
const obs::Counter& client_reconnects_counter() {
  static const obs::Counter c = obs::counter("client.reconnects_total");
  return c;
}
const obs::Counter& client_giveups_counter() {
  static const obs::Counter c = obs::counter("client.giveups_total");
  return c;
}

}  // namespace

SketchClient::SketchClient(const std::string& socket_path,
                           RetryOptions retry)
    : socket_path_(socket_path),
      retry_(retry),
      jitter_state_(retry.rng_seed) {
  EIMM_CHECK(retry_.max_attempts >= 1, "retry needs at least one attempt");
  connect_or_throw();
}

SketchClient::~SketchClient() {
  if (fd_ >= 0) ::close(fd_);
}

void SketchClient::connect_or_throw() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EIMM_CHECK(fd_ >= 0, "cannot create AF_UNIX socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path_.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw TransportError("cannot connect to sketch_server at '" +
                         socket_path_ + "': " + detail);
  }
}

void SketchClient::apply_attempt_timeout(
    std::chrono::steady_clock::time_point deadline) {
  // Per-attempt socket timeouts carved from the remaining budget: a
  // hung attempt wakes with EAGAIN (→ TransportError, retryable)
  // instead of eating the whole deadline. time_point::max() means
  // unbounded — clear any timeout a previous bounded call left behind.
  timeval tv{};
  if (deadline != std::chrono::steady_clock::time_point::max()) {
    const auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      throw DeadlineExceededError(
          "retry deadline exhausted before the attempt could start");
    }
    tv.tv_sec = static_cast<time_t>(remaining.count() / 1'000'000);
    tv.tv_usec = static_cast<suseconds_t>(remaining.count() % 1'000'000);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  }
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

std::vector<std::uint8_t> SketchClient::roundtrip(
    std::span<const std::uint8_t> request) {
  if (fd_ < 0) {
    ++retry_stats_.reconnects;
    client_reconnects_counter().add();
    connect_or_throw();
  }
  // Chaos sites for deterministic retry tests: a fired client-side
  // failpoint kills the connection exactly like a real transport drop.
  if (failpoint_fired("client.send")) {
    ::close(fd_);
    fd_ = -1;
    throw TransportError("injected send failure at failpoint 'client.send'");
  }
  if (!write_frame(fd_, request)) {
    const bool timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
    ::close(fd_);
    fd_ = -1;
    throw TransportError(timed_out ? "send timeout on request frame"
                                   : "cannot send request frame");
  }
  if (failpoint_fired("client.recv")) {
    ::close(fd_);
    fd_ = -1;
    throw TransportError(
        "injected receive failure at failpoint 'client.recv'");
  }
  std::vector<std::uint8_t> response;
  try {
    if (!read_frame(fd_, response)) {
      const bool timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
      ::close(fd_);
      fd_ = -1;
      throw TransportError(
          timed_out ? "receive timeout waiting for the reply frame"
                    : "server closed the connection before replying");
    }
  } catch (const TransportError&) {
    throw;
  } catch (const CheckError& e) {
    // Short read mid-frame (or an oversized length prefix after a
    // desync): the stream is unrecoverable, reconnect before retrying.
    ::close(fd_);
    fd_ = -1;
    throw TransportError(e.what());
  }
  return response;
}

std::vector<std::uint8_t> SketchClient::call(
    std::span<const std::uint8_t> request, bool retryable) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      retry_.deadline.count() > 0 ? Clock::now() + retry_.deadline
                                  : Clock::time_point::max();
  const std::size_t max_attempts = retryable ? retry_.max_attempts : 1;
  std::chrono::milliseconds backoff = retry_.initial_backoff;
  for (std::size_t attempt = 1;; ++attempt) {
    ++retry_stats_.attempts;
    if (attempt > 1) {
      ++retry_stats_.retries;
      client_retries_counter().add();
    }
    try {
      apply_attempt_timeout(deadline);
      std::vector<std::uint8_t> response = roundtrip(request);
      const auto status = response.empty()
                              ? Status::kError
                              : static_cast<Status>(response[0]);
      if (status == Status::kOverloaded || status == Status::kTimeout) {
        static_cast<void>(checked(response));  // throws a TransientError
      }
      return response;  // kOk — or kError, surfaced by the caller's
                        // checked() as a permanent failure
    } catch (const DeadlineExceededError&) {
      ++retry_stats_.giveups;
      client_giveups_counter().add();
      throw;
    } catch (const TransientError& e) {
      if (attempt >= max_attempts) {
        ++retry_stats_.giveups;
        client_giveups_counter().add();
        throw;
      }
      // Exponential backoff with deterministic jitter: sleep in
      // [backoff·(1−j), backoff·(1+j)], never past the deadline.
      const double unit =
          static_cast<double>(splitmix64_next(jitter_state_) >> 11) *
          0x1.0p-53;
      const double factor = 1.0 + retry_.jitter * (2.0 * unit - 1.0);
      auto sleep = std::chrono::milliseconds(std::max<std::int64_t>(
          0, static_cast<std::int64_t>(
                 static_cast<double>(backoff.count()) * factor + 0.5)));
      if (deadline != Clock::time_point::max() &&
          Clock::now() + sleep >= deadline) {
        ++retry_stats_.giveups;
        client_giveups_counter().add();
        throw DeadlineExceededError(
            "retry deadline exceeded after " + std::to_string(attempt) +
            " attempt(s); last failure: " + e.what());
      }
      std::this_thread::sleep_for(sleep);
      backoff = std::min(
          std::chrono::milliseconds(static_cast<std::int64_t>(
              static_cast<double>(backoff.count()) *
              retry_.backoff_multiplier)),
          retry_.max_backoff);
      if (backoff.count() < 1) backoff = std::chrono::milliseconds(1);
    }
  }
}

wire::WireReader SketchClient::checked(std::vector<std::uint8_t>& response) {
  WireReader r{std::span<const std::uint8_t>(response)};
  const auto status = static_cast<Status>(r.u8());
  if (status != Status::kOk) {
    std::string message;
    try {
      message = r.str();
    } catch (const CheckError&) {
      message = "(no diagnostic)";
    }
    switch (status) {
      case Status::kTimeout:
        throw ServerTimeoutError("server timeout: " + message);
      case Status::kOverloaded:
        throw ServerOverloadedError("server overloaded: " + message);
      default:
        throw CheckError("server error: " + message);
    }
  }
  return r;
}

void SketchClient::ping() {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Verb::kPing));
  std::vector<std::uint8_t> response = call(w.bytes(), /*retryable=*/true);
  checked(response).expect_done();
}

QueryResult SketchClient::top_k(std::size_t k) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Verb::kTopK));
  w.u64(k);
  std::vector<std::uint8_t> response = call(w.bytes(), /*retryable=*/true);
  WireReader r = checked(response);
  QueryResult result = wire::decode_result(r);
  r.expect_done();
  return result;
}

QueryResult SketchClient::select(const QueryOptions& query) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Verb::kSelect));
  wire::encode_query(w, query);
  std::vector<std::uint8_t> response = call(w.bytes(), /*retryable=*/true);
  WireReader r = checked(response);
  QueryResult result = wire::decode_result(r);
  r.expect_done();
  return result;
}

std::vector<QueryResult> SketchClient::batch(
    const std::vector<QueryOptions>& queries) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Verb::kBatch));
  w.u32(static_cast<std::uint32_t>(queries.size()));
  for (const QueryOptions& q : queries) wire::encode_query(w, q);
  std::vector<std::uint8_t> response = call(w.bytes(), /*retryable=*/true);
  WireReader r = checked(response);
  const std::uint32_t count = r.u32();
  std::vector<QueryResult> results;
  results.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    results.push_back(wire::decode_result(r));
  }
  r.expect_done();
  return results;
}

SketchClient::Info SketchClient::info() {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Verb::kInfo));
  std::vector<std::uint8_t> response = call(w.bytes(), /*retryable=*/true);
  WireReader r = checked(response);
  Info out;
  out.num_vertices = r.u32();
  out.num_sketches = r.u64();
  out.k_max = r.u64();
  out.workload = r.str();
  out.model = r.str();
  out.mmap_backed = r.u8() != 0;
  out.bytes_mapped = r.u64();
  out.bytes_copied = r.u64();
  out.generation = r.u64();
  r.expect_done();
  return out;
}

SketchClient::ServerStats SketchClient::stats() {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Verb::kStats));
  std::vector<std::uint8_t> response = call(w.bytes(), /*retryable=*/true);
  WireReader r = checked(response);
  ServerStats out;
  out.requests = r.u64();
  out.timeouts = r.u64();
  out.executor.submitted = r.u64();
  out.executor.cache_hits = r.u64();
  out.executor.rejected = r.u64();
  out.executor.batches = r.u64();
  out.executor.largest_batch = r.u64();
  out.cache.hits = r.u64();
  out.cache.misses = r.u64();
  out.cache.evictions = r.u64();
  out.cache.entries = static_cast<std::size_t>(r.u64());
  out.generation = r.u64();
  out.reloads = r.u64();
  out.failed_reloads = r.u64();
  out.select_refreshes = r.u64();
  out.sketches_retired = r.u64();
  out.executor.prefix_reads = r.u64();
  out.executor.queue_wait_us = wire::decode_histogram(r);
  out.executor.batch_size = wire::decode_histogram(r);
  out.executor.exec_us = wire::decode_histogram(r);
  r.expect_done();
  return out;
}

std::uint64_t SketchClient::reload(const std::string& snapshot_path) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Verb::kReload));
  w.str(snapshot_path);
  std::vector<std::uint8_t> response = call(w.bytes(), /*retryable=*/true);
  WireReader r = checked(response);
  const std::uint64_t generation = r.u64();
  (void)r.str();  // the path the server resolved; callers have it
  r.expect_done();
  return generation;
}

void SketchClient::shutdown_server() {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Verb::kShutdown));
  // Never retried: a replay after an ambiguous drop could kill a server
  // that already drained and restarted.
  std::vector<std::uint8_t> response = call(w.bytes(), /*retryable=*/false);
  checked(response).expect_done();
}

}  // namespace eimm
