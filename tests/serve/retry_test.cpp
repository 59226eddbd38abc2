// Client resilience: bounded retry with exponential backoff over the
// typed transient-error taxonomy, driven end-to-end through real
// failpoints on a live server — injected admission rejections,
// connection drops, and client-side transport faults. Every recovery
// must converge to the same answer a direct QueryEngine gives.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

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
  return SketchStore::build(g, options, "amazon-retry");
}

fail::Spec error_spec(std::uint64_t percent, std::uint64_t times = 0) {
  fail::Spec spec;
  spec.mode = fail::Mode::kError;
  spec.arg = percent;
  spec.times = times;
  return spec;
}

class RetryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::disarm_all();
    store_ = std::make_unique<SketchStore>(make_store());
    engine_ = std::make_unique<QueryEngine>(*store_);
    ServerOptions options;
    options.socket_path = ::testing::TempDir() + "/eimm_retry_test_" +
                          std::to_string(::testing::UnitTest::GetInstance()
                                             ->random_seed()) +
                          ".sock";
    server_ = std::make_unique<SketchServer>(*store_, options);
    server_->start();
  }

  void TearDown() override {
    fail::disarm_all();
    if (server_) server_->stop();
  }

  std::unique_ptr<SketchStore> store_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<SketchServer> server_;
};

TEST_F(RetryFixture, DefaultClientIsSingleShot) {
  SketchClient client(server_->socket_path());
  fail::arm("serve.admit", error_spec(100));
  EXPECT_THROW((void)client.top_k(3), ServerOverloadedError);
  const RetryStats stats = client.retry_stats();
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.giveups, 1u);
  // Disarmed again, the same connection serves the query.
  fail::disarm_all();
  EXPECT_EQ(client.top_k(3).seeds, engine_->top_k(3).seeds);
}

TEST_F(RetryFixture, ZeroAttemptsIsRejectedUpFront) {
  RetryOptions retry;
  retry.max_attempts = 0;
  EXPECT_THROW(SketchClient(server_->socket_path(), retry), CheckError);
}

TEST_F(RetryFixture, RetriesThroughInjectedAdmissionRejections) {
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff = std::chrono::milliseconds(1);
  SketchClient client(server_->socket_path(), retry);

  // Fires on the first two admissions, then the site goes quiet.
  fail::arm("serve.admit", error_spec(100, 2));
  EXPECT_EQ(client.top_k(4).seeds, engine_->top_k(4).seeds);
  const RetryStats stats = client.retry_stats();
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.giveups, 0u);
  EXPECT_GE(server_->requests_served(), 3u);
}

TEST_F(RetryFixture, FailedDispatchIsRetriedAsOverload) {
  RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::milliseconds(1);
  SketchClient client(server_->socket_path(), retry);

  // The dispatcher fails the batch before running it: the query never
  // executed, so the reply is the retryable kOverloaded.
  fail::arm("serve.batch", error_spec(100, 1));
  QueryOptions q;
  q.k = 3;
  q.forbidden = {engine_->top_k(1).seeds[0]};
  EXPECT_EQ(client.select(q).seeds, engine_->select(q).seeds);
  EXPECT_EQ(client.retry_stats().retries, 1u);
  EXPECT_EQ(fail::stats("serve.batch").fires, 1u);
}

TEST_F(RetryFixture, ReconnectsThroughInjectedConnectionDrops) {
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff = std::chrono::milliseconds(1);
  SketchClient client(server_->socket_path(), retry);

  // The server hangs up twice without replying; the client must see a
  // TransportError, reconnect, and replay the idempotent query.
  fail::arm("serve.conn.recv", error_spec(100, 2));
  EXPECT_EQ(client.top_k(5).seeds, engine_->top_k(5).seeds);
  const RetryStats stats = client.retry_stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_GE(stats.reconnects, 2u);
  EXPECT_EQ(stats.giveups, 0u);
}

TEST_F(RetryFixture, DroppedReplyIsRetriedToo) {
  RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff = std::chrono::milliseconds(1);
  SketchClient client(server_->socket_path(), retry);

  // The request executes but the reply never leaves the server — the
  // ambiguous case. Queries are idempotent, so replaying is safe.
  fail::arm("serve.conn.send", error_spec(100, 1));
  EXPECT_EQ(client.top_k(2).seeds, engine_->top_k(2).seeds);
  EXPECT_EQ(client.retry_stats().retries, 1u);
}

TEST_F(RetryFixture, ClientSideFaultsAreRetried) {
  RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff = std::chrono::milliseconds(1);
  SketchClient client(server_->socket_path(), retry);

  fail::arm("client.send", error_spec(100, 1));
  fail::arm("client.recv", error_spec(100, 1));
  EXPECT_EQ(client.top_k(3).seeds, engine_->top_k(3).seeds);
  const RetryStats stats = client.retry_stats();
  EXPECT_GE(stats.retries, 2u);
  EXPECT_EQ(stats.giveups, 0u);
}

TEST_F(RetryFixture, ExhaustedAttemptsGiveUpWithTypedError) {
  RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::milliseconds(1);
  SketchClient client(server_->socket_path(), retry);

  fail::arm("serve.admit", error_spec(100));  // never recovers
  EXPECT_THROW((void)client.top_k(3), ServerOverloadedError);
  const RetryStats stats = client.retry_stats();
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.giveups, 1u);
  EXPECT_EQ(fail::stats("serve.admit").fires, 3u);
}

TEST_F(RetryFixture, DeadlineBoundsTheWholeRetryLoop) {
  RetryOptions retry;
  retry.max_attempts = 1000;
  retry.initial_backoff = std::chrono::milliseconds(5);
  retry.deadline = std::chrono::milliseconds(150);
  SketchClient client(server_->socket_path(), retry);

  fail::arm("serve.admit", error_spec(100));  // never recovers
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.top_k(3), DeadlineExceededError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // The loop must stop near the deadline, well before 1000 attempts'
  // worth of backoff.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
  EXPECT_EQ(client.retry_stats().giveups, 1u);
}

TEST_F(RetryFixture, NonTransientServerErrorsAreNotRetried) {
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff = std::chrono::milliseconds(1);
  SketchClient client(server_->socket_path(), retry);

  // k > k_max is a deterministic kError reply — retrying cannot help
  // and must not happen.
  try {
    (void)client.top_k(store_->k_max() + 1);
    FAIL() << "expected CheckError";
  } catch (const TransientError&) {
    FAIL() << "a kError reply must not be typed transient";
  } catch (const CheckError&) {
  }
  const RetryStats stats = client.retry_stats();
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST_F(RetryFixture, InjectedWireFaultSurfacesAsRetryableOverload) {
  RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff = std::chrono::milliseconds(1);
  SketchClient client(server_->socket_path(), retry);

  // serve.wire.decode fires before the request executes, so the server
  // maps it to kOverloaded — honestly retryable.
  fail::arm("serve.wire.decode", error_spec(100, 2));
  EXPECT_EQ(client.top_k(4).seeds, engine_->top_k(4).seeds);
  const RetryStats stats = client.retry_stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.giveups, 0u);
}

TEST_F(RetryFixture, DelayModeAddsLatencyWithoutFailure) {
  SketchClient client(server_->socket_path());  // single-shot
  fail::Spec delay;
  delay.mode = fail::Mode::kDelay;
  delay.arg = 30;  // ms per request admission
  fail::arm("serve.admit", delay);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(client.top_k(3).seeds, engine_->top_k(3).seeds);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            25);
  EXPECT_EQ(client.retry_stats().retries, 0u);
}

}  // namespace
}  // namespace eimm
