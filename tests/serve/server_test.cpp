// Serving-layer coverage, bottom-up: the wire codec (pure byte
// buffers), the BatchingExecutor admission layer, and a real
// SketchServer/SketchClient round trip over an AF_UNIX socket — every
// served answer is checked against a direct QueryEngine call on the
// same store.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "support/failpoint.hpp"
#include "support/macros.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

SketchStore make_store() {
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options;
  options.k = 6;
  options.max_rrr_sets = 4096;
  return SketchStore::build(g, options, "amazon-server");
}

void expect_results_equal(const QueryResult& a, const QueryResult& b) {
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.marginal_coverage, b.marginal_coverage);
  EXPECT_EQ(a.covered_sketches, b.covered_sketches);
  EXPECT_EQ(a.total_sketches, b.total_sketches);
  EXPECT_DOUBLE_EQ(a.estimated_spread, b.estimated_spread);
}

/// A distinct constrained query per index: it misses the prefix path and
/// (until it has run once) the cache, so it always enqueues.
QueryOptions kernel_query(const SketchStore& store, std::size_t i) {
  QueryOptions q;
  q.k = 1 + i % store.k_max();
  q.forbidden = {static_cast<VertexId>(i % store.num_vertices())};
  return q;
}

/// Holds the executor's dispatcher inside its next batch for `ms`
/// (the `serve.batch` failpoint in delay mode, firing once), so queries
/// submitted meanwhile build a queue deterministically. Disarms on exit.
class DispatcherHold {
 public:
  explicit DispatcherHold(std::uint64_t ms) {
    fail::Spec spec;
    spec.mode = fail::Mode::kDelay;
    spec.arg = ms;
    spec.times = 1;
    fail::arm("serve.batch", spec);
  }
  ~DispatcherHold() { fail::disarm("serve.batch"); }
  DispatcherHold(const DispatcherHold&) = delete;
  DispatcherHold& operator=(const DispatcherHold&) = delete;

  /// Returns once the dispatcher has entered the hold.
  static void wait_until_held() {
    while (fail::stats("serve.batch").fires == 0) std::this_thread::yield();
  }
};

// --- wire codec ---

TEST(Wire, QueryRoundTrips) {
  QueryOptions query;
  query.k = 7;
  query.candidates = {3, 1, 4};
  query.forbidden = {15, 9};

  wire::WireWriter w;
  wire::encode_query(w, query);
  const std::vector<std::uint8_t> bytes = w.bytes();

  wire::WireReader r(bytes);
  const QueryOptions back = wire::decode_query(r);
  r.expect_done();
  EXPECT_EQ(back.k, query.k);
  EXPECT_EQ(back.candidates, query.candidates);
  EXPECT_EQ(back.forbidden, query.forbidden);
}

TEST(Wire, ResultRoundTrips) {
  QueryResult result;
  result.seeds = {10, 20, 30};
  result.marginal_coverage = {100, 50, 25};
  result.covered_sketches = 175;
  result.total_sketches = 400;
  result.estimated_spread = 123.5;

  wire::WireWriter w;
  wire::encode_result(w, result);
  const std::vector<std::uint8_t> bytes = w.bytes();

  wire::WireReader r(bytes);
  const QueryResult back = wire::decode_result(r);
  r.expect_done();
  expect_results_equal(result, back);
}

TEST(Wire, ScalarAndStringRoundTrips) {
  wire::WireWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x1122334455667788ull);
  w.f64(-2.5);
  w.str("hello");
  w.str("");

  const std::vector<std::uint8_t> bytes = w.bytes();
  wire::WireReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x1122334455667788ull);
  EXPECT_DOUBLE_EQ(r.f64(), -2.5);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  r.expect_done();
}

TEST(Wire, TruncatedPayloadThrows) {
  wire::WireWriter w;
  w.u64(42);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.pop_back();
  wire::WireReader r(bytes);
  EXPECT_THROW((void)r.u64(), CheckError);
}

TEST(Wire, TruncatedIdListThrows) {
  wire::WireWriter w;
  w.u32(5);  // claims five ids...
  w.u32(1);  // ...delivers one
  const std::vector<std::uint8_t> bytes = w.bytes();
  wire::WireReader r(bytes);
  EXPECT_THROW((void)r.ids(), CheckError);
}

TEST(Wire, TrailingBytesThrowOnExpectDone) {
  wire::WireWriter w;
  w.u8(1);
  w.u8(2);
  const std::vector<std::uint8_t> bytes = w.bytes();
  wire::WireReader r(bytes);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_THROW(r.expect_done(), CheckError);
}

// --- BatchingExecutor ---

TEST(BatchingExecutor, SingleSubmitMatchesDirectEngine) {
  const SketchStore store = make_store();
  const QueryEngine engine(store);
  BatchingExecutor executor(engine, ExecutorOptions{});

  QueryOptions query;
  query.k = 4;
  std::future<QueryResult> f = executor.submit(query);
  expect_results_equal(f.get(), engine.answer(query));
  EXPECT_EQ(executor.stats().submitted, 1u);
}

TEST(BatchingExecutor, ConcurrentSubmitsAllCorrectAndBatched) {
  const SketchStore store = make_store();
  const QueryEngine engine(store);
  BatchingExecutor executor(engine, ExecutorOptions{});
  const DispatcherHold hold(300);

  constexpr std::size_t kQueries = 48;
  std::vector<QueryOptions> queries(kQueries);
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    queries[i] = kernel_query(store, i);
    futures.push_back(executor.submit(queries[i]));
    // The first query's batch holds the dispatcher; the rest queue.
    if (i == 0) DispatcherHold::wait_until_held();
  }
  for (std::size_t i = 0; i < kQueries; ++i) {
    expect_results_equal(futures[i].get(), engine.answer(queries[i]));
  }
  const BatchingExecutor::Stats stats = executor.stats();
  EXPECT_EQ(stats.submitted, kQueries);
  EXPECT_EQ(stats.prefix_reads, 0u);
  // What queued behind the held batch must have run as batches.
  EXPECT_LT(stats.batches, kQueries);
  EXPECT_GT(stats.largest_batch, 1u);
}

TEST(BatchingExecutor, InvalidQueryFailsSynchronously) {
  const SketchStore store = make_store();
  const QueryEngine engine(store);
  BatchingExecutor executor(engine, ExecutorOptions{});

  QueryOptions zero_k;
  zero_k.k = 0;
  EXPECT_THROW((void)executor.submit(zero_k), CheckError);

  QueryOptions too_big;
  too_big.k = store.k_max() + 1;
  EXPECT_THROW((void)executor.submit(too_big), CheckError);

  QueryOptions bad_id;
  bad_id.k = 1;
  bad_id.forbidden = {store.num_vertices()};
  EXPECT_THROW((void)executor.submit(bad_id), CheckError);

  // A good query still works afterwards — bad ones never poison a batch.
  QueryOptions good;
  good.k = 2;
  EXPECT_EQ(executor.submit(good).get().seeds, engine.top_k(2).seeds);
}

TEST(BatchingExecutor, OverloadRejectsInsteadOfGrowing) {
  const SketchStore store = make_store();
  const QueryEngine engine(store);
  ExecutorOptions options;
  options.max_queue = 2;
  BatchingExecutor executor(engine, options);
  const DispatcherHold hold(300);

  std::vector<QueryOptions> admitted;
  std::vector<std::future<QueryResult>> futures;
  std::uint64_t overloads = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const QueryOptions query = kernel_query(store, i);
    try {
      futures.push_back(executor.submit(query));
      admitted.push_back(query);
    } catch (const OverloadError&) {
      ++overloads;
    }
    if (i == 0) DispatcherHold::wait_until_held();
  }
  EXPECT_GT(overloads, 0u);
  EXPECT_EQ(executor.stats().rejected, overloads);
  executor.stop();  // drains the admitted queries
  ASSERT_EQ(futures.size(), admitted.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_results_equal(futures[i].get(), engine.answer(admitted[i]));
  }
}

TEST(BatchingExecutor, RepeatedConstrainedQueryHitsCache) {
  const SketchStore store = make_store();
  const QueryEngine engine(store);
  BatchingExecutor executor(engine, ExecutorOptions{});

  QueryOptions query;
  query.k = 3;
  query.forbidden = {engine.top_k(1).seeds[0]};
  const QueryResult first = executor.submit(query).get();
  const QueryResult second = executor.submit(query).get();
  expect_results_equal(first, second);
  expect_results_equal(first, engine.select(query));
  EXPECT_GE(executor.stats().cache_hits, 1u);
}

TEST(BatchingExecutor, StopDrainsAdmittedWork) {
  const SketchStore store = make_store();
  const QueryEngine engine(store);
  BatchingExecutor executor(engine, ExecutorOptions{});
  const DispatcherHold hold(100);

  std::vector<QueryOptions> queries;
  std::vector<std::future<QueryResult>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    queries.push_back(kernel_query(store, i));
    futures.push_back(executor.submit(queries.back()));
    if (i == 0) DispatcherHold::wait_until_held();
  }
  executor.stop();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_results_equal(futures[i].get(), engine.answer(queries[i]));
  }
}

TEST(BatchingExecutor, PrefixReadNeverEnqueuesButPassesAdmission) {
  const SketchStore store = make_store();
  const QueryEngine engine(store);
  BatchingExecutor executor(engine, ExecutorOptions{});
  const DispatcherHold hold(300);

  // A held dispatcher cannot answer anything, yet the prefix read comes
  // back already settled: it never entered the queue.
  std::future<QueryResult> queued = executor.submit(kernel_query(store, 0));
  DispatcherHold::wait_until_held();
  QueryOptions top;
  top.k = store.k_max();
  std::future<QueryResult> prefix = executor.submit(top);
  ASSERT_EQ(prefix.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  expect_results_equal(prefix.get(), engine.top_k(top.k));

  // The prefix path is still behind the admission failpoint.
  fail::Spec reject;
  reject.mode = fail::Mode::kError;
  reject.arg = 100;
  reject.times = 1;
  fail::arm("serve.admit", reject);
  EXPECT_THROW((void)executor.submit(top), OverloadError);
  EXPECT_EQ(fail::stats("serve.admit").fires, 1u);
  fail::disarm("serve.admit");

  expect_results_equal(queued.get(), engine.answer(kernel_query(store, 0)));
  const BatchingExecutor::Stats stats = executor.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.prefix_reads, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.queue_wait_us.count, 1u);
}

TEST(BatchingExecutor, SubmitAllEnqueuesTogether) {
  const SketchStore store = make_store();
  const QueryEngine engine(store);
  BatchingExecutor executor(engine, ExecutorOptions{});

  std::vector<QueryOptions> queries;
  for (std::size_t i = 0; i < 6; ++i) queries.push_back(kernel_query(store, i));
  QueryOptions top;
  top.k = 2;
  queries.push_back(top);
  std::vector<std::future<QueryResult>> futures =
      executor.submit_all(queries);
  ASSERT_EQ(futures.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_results_equal(futures[i].get(), engine.answer(queries[i]));
  }
  const BatchingExecutor::Stats stats = executor.stats();
  EXPECT_EQ(stats.submitted, queries.size());
  EXPECT_EQ(stats.prefix_reads, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.largest_batch, queries.size() - 1);

  // One bad query fails the whole call before anything is admitted.
  queries[3].forbidden = {store.num_vertices()};
  EXPECT_THROW((void)executor.submit_all(queries), CheckError);
  EXPECT_EQ(executor.stats().submitted, stats.submitted);

  // More kernel queries than the queue can ever hold is a permanent
  // error, not an overload the client would retry forever.
  ExecutorOptions tight_options;
  tight_options.max_queue = 2;
  BatchingExecutor tight(engine, tight_options);
  bool permanent = false;
  try {
    (void)tight.submit_all({kernel_query(store, 0), kernel_query(store, 1),
                            kernel_query(store, 2)});
  } catch (const OverloadError&) {
  } catch (const CheckError&) {
    permanent = true;
  }
  EXPECT_TRUE(permanent);
  EXPECT_EQ(tight.stats().submitted, 0u);
}

// --- SketchServer + SketchClient over a real socket ---

class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<SketchStore>(make_store());
    engine_ = std::make_unique<QueryEngine>(*store_);
    ServerOptions options;
    options.socket_path = ::testing::TempDir() + "/eimm_server_test_" +
                          std::to_string(::testing::UnitTest::GetInstance()
                                             ->random_seed()) +
                          ".sock";
    server_ = std::make_unique<SketchServer>(*store_, options);
    server_->start();
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  std::unique_ptr<SketchStore> store_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<SketchServer> server_;
};

TEST_F(ServerFixture, PingAndInfo) {
  SketchClient client(server_->socket_path());
  client.ping();
  const SketchClient::Info info = client.info();
  EXPECT_EQ(info.num_vertices, store_->num_vertices());
  EXPECT_EQ(info.num_sketches, store_->num_sketches());
  EXPECT_EQ(info.k_max, store_->k_max());
  EXPECT_EQ(info.workload, store_->meta().workload);
  EXPECT_EQ(info.model, store_->meta().model);
  EXPECT_GE(server_->requests_served(), 2u);
}

TEST_F(ServerFixture, ServedQueriesMatchDirectEngine) {
  SketchClient client(server_->socket_path());

  expect_results_equal(client.top_k(6), engine_->top_k(6));

  QueryOptions constrained;
  constrained.k = 4;
  constrained.forbidden = {engine_->top_k(1).seeds[0]};
  expect_results_equal(client.select(constrained),
                       engine_->select(constrained));

  std::vector<QueryOptions> queries(5);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i].k = i + 1;
    if (i % 2 == 1) {
      queries[i].candidates = engine_->top_k(4).seeds;
    }
  }
  const std::vector<QueryResult> served = client.batch(queries);
  ASSERT_EQ(served.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_results_equal(served[i], engine_->answer(queries[i]));
  }
}

TEST_F(ServerFixture, BatchVerbLandsInOneDispatch) {
  SketchClient client(server_->socket_path());
  constexpr std::size_t kCount = 5;
  std::vector<QueryOptions> queries;
  for (std::size_t i = 0; i < kCount; ++i) {
    queries.push_back(kernel_query(*store_, i));
  }
  const std::vector<QueryResult> served = client.batch(queries);
  ASSERT_EQ(served.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    expect_results_equal(served[i], engine_->answer(queries[i]));
  }
  const SketchClient::ServerStats stats = client.stats();
  EXPECT_EQ(stats.executor.batches, 1u);
  EXPECT_EQ(stats.executor.largest_batch, kCount);
}

TEST_F(ServerFixture, InvalidQueryGetsErrorResponseNotHangup) {
  SketchClient client(server_->socket_path());
  try {
    (void)client.top_k(store_->k_max() + 1);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("server"), std::string::npos);
  }
  // The connection survives an error response.
  client.ping();
  expect_results_equal(client.top_k(2), engine_->top_k(2));
}

TEST_F(ServerFixture, ConcurrentClientsAllGetCorrectAnswers) {
  constexpr int kClients = 6;
  std::vector<int> ok(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      SketchClient client(server_->socket_path());
      const std::size_t k = 1 + static_cast<std::size_t>(c) %
                                    store_->k_max();
      const QueryResult served = client.top_k(k);
      ok[static_cast<std::size_t>(c)] =
          served.seeds == engine_->top_k(k).seeds ? 1 : 0;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(ok[static_cast<std::size_t>(c)], 1) << c;
  }
}

TEST_F(ServerFixture, ShutdownVerbStopsServer) {
  {
    SketchClient client(server_->socket_path());
    client.shutdown_server();
  }
  server_->wait();
  EXPECT_FALSE(server_->running());
}

TEST(SketchServerStandalone, ConnectToMissingSocketThrows) {
  EXPECT_THROW(SketchClient("/nonexistent/eimm_no_server.sock"), CheckError);
}

TEST(SketchServerStandalone, StopIsIdempotentAndUnlinksSocket) {
  const SketchStore store = make_store();
  ServerOptions options;
  options.socket_path = ::testing::TempDir() + "/eimm_server_stop.sock";
  SketchServer server(store, options);
  server.start();
  EXPECT_TRUE(server.running());
  server.stop();
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_THROW(SketchClient(options.socket_path), CheckError);
}

// --- telemetry surface (kStats verb + executor histograms) ---

TEST(Wire, HistogramRoundTrips) {
  obs::AtomicHistogram source;
  source.observe(0);
  source.observe(1);
  source.observe(17);
  source.observe(1 << 20);
  const obs::HistogramSnapshot snap = source.snapshot();

  wire::WireWriter w;
  wire::encode_histogram(w, snap);
  wire::WireReader r(w.bytes());
  const obs::HistogramSnapshot back = wire::decode_histogram(r);
  r.expect_done();
  EXPECT_EQ(back.count, snap.count);
  EXPECT_EQ(back.sum, snap.sum);
  EXPECT_EQ(back.buckets, snap.buckets);
}

TEST(BatchingExecutor, StatsHistogramsTrackDispatch) {
  const SketchStore store = make_store();
  const QueryEngine engine(store);
  BatchingExecutor executor(engine, ExecutorOptions{});

  QueryOptions repeated;
  repeated.k = 3;
  repeated.forbidden = {engine.top_k(1).seeds[0]};
  (void)executor.submit(repeated).get();
  (void)executor.submit(repeated).get();  // served from the query cache
  QueryOptions fresh;
  fresh.k = 2;
  (void)executor.submit(fresh).get();  // a prefix read

  const BatchingExecutor::Stats stats = executor.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_EQ(stats.prefix_reads, 1u);
  // Every dispatched batch observes its size once; every enqueued query
  // (prefix reads and cache hits never enqueue) observes its queue wait
  // once.
  EXPECT_EQ(stats.batch_size.count, stats.batches);
  EXPECT_EQ(stats.queue_wait_us.count,
            stats.submitted - stats.cache_hits - stats.prefix_reads);
  EXPECT_EQ(stats.exec_us.count, stats.batches);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : stats.batch_size.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, stats.batch_size.count);
  EXPECT_GE(stats.batch_size.sum, stats.batches);  // every batch size >= 1
}

TEST(BatchingExecutor, StatsSnapshotSafeWhileSubmitting) {
  // Satellite regression: Stats must be a consistent by-value snapshot
  // taken under the executor mutex — reading it concurrently with
  // submissions must be race-free (asan/tsan presets enforce this) and
  // monotonic in the counters.
  const SketchStore store = make_store();
  const QueryEngine engine(store);
  BatchingExecutor executor(engine, ExecutorOptions{});

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t last_submitted = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const BatchingExecutor::Stats stats = executor.stats();
      EXPECT_GE(stats.submitted, last_submitted);
      EXPECT_GE(stats.submitted, stats.cache_hits + stats.prefix_reads);
      // Histograms are snapshotted after the scalar copy, so they may
      // run ahead of it — but never behind.
      EXPECT_GE(stats.batch_size.count, stats.batches);
      last_submitted = stats.submitted;
    }
  });

  constexpr std::size_t kQueries = 64;
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    // Odd indices run the kernel, so the dispatcher mutates the counters
    // while the reader snapshots them; even ones are prefix reads.
    QueryOptions q = kernel_query(store, i);
    if (i % 2 == 0) q.forbidden.clear();
    futures.push_back(executor.submit(q));
  }
  for (auto& f : futures) (void)f.get();
  stop.store(true);
  reader.join();

  const BatchingExecutor::Stats stats = executor.stats();
  EXPECT_EQ(stats.submitted, kQueries);
  EXPECT_EQ(stats.prefix_reads, kQueries / 2);
  EXPECT_EQ(stats.queue_wait_us.count,
            stats.submitted - stats.cache_hits - stats.prefix_reads);
}

TEST_F(ServerFixture, StatsVerbMatchesScriptedSequence) {
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  SketchClient client(server_->socket_path());
  const SketchClient::ServerStats before = client.stats();
  client.ping();
  (void)client.top_k(4);
  QueryOptions constrained;
  constrained.k = 3;
  constrained.forbidden = {engine_->top_k(1).seeds[0]};
  (void)client.select(constrained);
  (void)client.select(constrained);  // query-cache hit

  const SketchClient::ServerStats stats = client.stats();
  // ping + top_k + 2 selects (the in-flight stats request may not be
  // counted yet).
  EXPECT_GE(stats.requests, 4u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.executor.submitted, 3u);
  EXPECT_EQ(stats.executor.prefix_reads, 1u);
  EXPECT_GE(stats.executor.cache_hits, 1u);
  EXPECT_GE(stats.executor.batches, 1u);
  EXPECT_GE(stats.executor.largest_batch, 1u);
  EXPECT_EQ(stats.cache.hits, stats.executor.cache_hits);
  // Only the two constrained selects are cacheable; the unconstrained
  // top_k is a prefix read that never looks the cache up.
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 2u);
  // Wire-decoded histograms carry the executor's real distributions.
  EXPECT_EQ(stats.executor.batch_size.count, stats.executor.batches);
  EXPECT_EQ(stats.executor.queue_wait_us.count,
            stats.executor.submitted - stats.executor.cache_hits -
                stats.executor.prefix_reads);
  EXPECT_EQ(stats.executor.exec_us.count, stats.executor.batches);
  EXPECT_GE(stats.executor.batch_size.sum, stats.executor.batches);
  // The one kernel run (the cache miss) retired the sketches it covered.
  const QueryResult answer = engine_->select(constrained);
  EXPECT_EQ(stats.sketches_retired - before.sketches_retired,
            answer.covered_sketches);
  EXPECT_GE(stats.select_refreshes, before.select_refreshes);
  obs::set_metrics_enabled(metrics_were_enabled);

  // A second stats call sees a strictly larger request count.
  const SketchClient::ServerStats again = client.stats();
  EXPECT_GT(again.requests, stats.requests);
  EXPECT_EQ(again.executor.submitted, stats.executor.submitted);
}

}  // namespace
}  // namespace eimm
