// BatchingExecutor — admission control + micro-batching over
// QueryEngine::run_batch.
//
// Clients submit queries; each is validated on the caller's thread.
// Unconstrained queries are O(k) prefix reads of the store's precomputed
// greedy sequence and are answered right there, as are constrained
// queries the QueryCache already holds: neither ever enqueues. The rest
// queue for one dispatcher thread, which hands whatever is queued when it
// wakes (up to max_batch) to one pinned OpenMP run_batch. There is no
// coalescing window: a batch holds exactly the queries that arrived
// while the previous batch ran, so batches grow only under backlog and
// an idle server answers a lone query without waiting. A client batch
// (submit_all) enqueues under one lock, so it reaches one dispatch.
//
// Split out of server.hpp so the epoch-versioned StoreRegistry (hot
// snapshot reload) can own one executor per serving epoch without the
// registry and the socket front end including each other.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/query_cache.hpp"
#include "serve/query_engine.hpp"
#include "support/macros.hpp"

namespace eimm {

struct ExecutorOptions {
  /// Largest batch one dispatch passes to run_batch.
  std::size_t max_batch = 64;
  /// Admission bound: submissions beyond this many queued queries are
  /// rejected (OverloadError) instead of growing the queue without
  /// bound under overload.
  std::size_t max_queue = 1024;
  /// OpenMP threads per dispatched batch (0 = library default).
  int threads = 0;
  /// Constrained-result cache entries (0 disables).
  std::size_t cache_capacity = 256;
};

/// Thrown by submit() when the admission queue is full.
class OverloadError : public CheckError {
 public:
  using CheckError::CheckError;
};

/// Admission layer over QueryEngine: inline prefix reads and cache hits,
/// backlog batches over run_batch for the rest. Thread-safe: any number
/// of producers may submit concurrently.
class BatchingExecutor {
 public:
  BatchingExecutor(const QueryEngine& engine, ExecutorOptions options);
  /// Drains the queue, then joins the dispatcher.
  ~BatchingExecutor();

  BatchingExecutor(const BatchingExecutor&) = delete;
  BatchingExecutor& operator=(const BatchingExecutor&) = delete;

  /// In order: validates the query against the store (CheckError on bad
  /// k / ids — the error surfaces HERE, synchronously, never poisoning a
  /// batch), passes the `serve.admit` failpoint, answers an unconstrained
  /// query with engine.top_k(k) on the calling thread, consults the
  /// cache, and otherwise enqueues for the next dispatch. Throws
  /// OverloadError when the queue is full (or when `serve.admit` fires —
  /// an injected rejection is indistinguishable from a real one to the
  /// client).
  [[nodiscard]] std::future<QueryResult> submit(QueryOptions query);

  /// submit() for one client batch: every query is validated before any
  /// is admitted, and the ones that must run the kernel enqueue together
  /// under one lock, so the dispatcher takes them in one batch (when
  /// they fit in max_batch). Admission is all-or-nothing for the queued
  /// part: OverloadError when the queue cannot take all of them, and a
  /// permanent CheckError when they alone exceed max_queue.
  [[nodiscard]] std::vector<std::future<QueryResult>> submit_all(
      std::vector<QueryOptions> queries);

  /// Stops accepting work, drains what was admitted, joins. Idempotent.
  void stop();

  /// A point-in-time copy of the executor's telemetry. The scalar part
  /// is snapshotted under the executor mutex and the whole struct is
  /// returned by value, so readers never observe a half-updated set of
  /// counters while the dispatcher mutates them.
  struct Stats {
    std::uint64_t submitted = 0;
    /// Unconstrained queries answered inline from the top-k prefix.
    std::uint64_t prefix_reads = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t rejected = 0;
    std::uint64_t batches = 0;
    std::uint64_t largest_batch = 0;
    /// Dispatch-queue wait per query, µs (prefix reads and cache hits
    /// never enqueue: count == submitted - prefix_reads - cache_hits).
    obs::HistogramSnapshot queue_wait_us;
    /// Queries per dispatched batch.
    obs::HistogramSnapshot batch_size;
    /// run_batch wall time per dispatched batch, µs.
    obs::HistogramSnapshot exec_us;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] QueryCache::Stats cache_stats() const {
    return cache_.stats();
  }

 private:
  struct Pending {
    QueryOptions query;
    std::promise<QueryResult> promise;
    std::uint64_t enqueue_ns = 0;
  };
  /// serve.admit, then the inline prefix read, then the cache lookup:
  /// the answer of a query that never enqueues, nullopt otherwise.
  std::optional<QueryResult> answer_without_queue(const QueryOptions& query);
  /// Checks that `count` more queries fit in the queue; mutex_ held.
  void admit_locked(std::size_t count);
  /// Appends one admitted query to the queue; mutex_ held.
  std::future<QueryResult> enqueue_locked(QueryOptions&& query);
  void dispatch_loop();
  /// Runs one dispatched batch and settles its promises. `queries` is
  /// scratch the dispatcher reuses across batches.
  void run_one_batch(std::vector<Pending>& batch,
                     std::vector<QueryOptions>& queries);

  const QueryEngine* engine_;
  ExecutorOptions options_;
  QueryCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Pending> queue_;
  bool stopping_ = false;
  Stats stats_;  // scalar fields only; histograms live below

  // Shared-cell histograms: updated lock-free by the dispatcher, read
  // by stats() snapshots. Not gated by EIMM_METRICS — a live server's
  // stats surface must answer even with process metrics off.
  obs::AtomicHistogram queue_wait_us_;
  obs::AtomicHistogram batch_size_;
  obs::AtomicHistogram exec_us_;

  // Last member: the dispatcher must not start until every field above
  // it is constructed, and must be joined before any of them die.
  std::thread dispatcher_;
};

}  // namespace eimm
