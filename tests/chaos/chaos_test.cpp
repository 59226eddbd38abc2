// Chaos harness: a live SketchServer under deterministic fault
// schedules, hammered by concurrent clients. The serving contract under
// chaos is absolute — every request either returns seeds bit-identical
// to a direct QueryEngine call on the same store, or fails with a typed
// retryable error. Never a wrong answer, never a crash, and a reload
// storm never fails an in-flight query.
//
// Run just this harness with `ctest -L chaos`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "serve/query_engine.hpp"
#include "serve/server.hpp"
#include "serve/sketch_store.hpp"
#include "support/failpoint.hpp"
#include "support/macros.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

// One store for the whole harness: the chaos is in the serving path,
// not the build.
const SketchStore& shared_store() {
  static const SketchStore store = [] {
    const DiffusionGraph g = make_workload_with_weights(
        "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
    ImmOptions options;
    options.k = 6;
    options.max_rrr_sets = 4096;
    return SketchStore::build(g, options, "amazon-chaos");
  }();
  return store;
}

struct ChaosTally {
  std::atomic<std::uint64_t> correct{0};
  std::atomic<std::uint64_t> typed_failures{0};
  std::atomic<std::uint64_t> wrong_answers{0};
  std::atomic<std::uint64_t> untyped_failures{0};
};

// Each worker runs `queries` requests with its own retrying client and
// classifies every outcome. Expected answers are precomputed so the
// workers only compare.
void run_clients(const std::string& socket_path, const RetryOptions& retry,
                 int clients, int queries,
                 const std::vector<std::vector<VertexId>>& expected,
                 ChaosTally& tally) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      try {
        RetryOptions my_retry = retry;
        my_retry.rng_seed = 0x517cc1b727220a95ull + static_cast<unsigned>(c);
        SketchClient client(socket_path, my_retry);
        for (int q = 0; q < queries; ++q) {
          const std::size_t k = 1 + static_cast<std::size_t>((c + q) %
                                                             expected.size());
          try {
            const QueryResult served = client.top_k(k);
            if (served.seeds == expected[k - 1]) {
              tally.correct.fetch_add(1, std::memory_order_relaxed);
            } else {
              tally.wrong_answers.fetch_add(1, std::memory_order_relaxed);
            }
          } catch (const TransientError&) {
            tally.typed_failures.fetch_add(1, std::memory_order_relaxed);
          } catch (const DeadlineExceededError&) {
            tally.typed_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } catch (const CheckError&) {
        // Construction failed (e.g. connect refused under chaos):
        // typed, so the contract holds, but count every query the
        // worker never ran.
        tally.typed_failures.fetch_add(static_cast<std::uint64_t>(queries),
                                       std::memory_order_relaxed);
      } catch (...) {
        tally.untyped_failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : workers) t.join();
}

/// Per-process temp file. ctest runs every chaos case as its own process
/// and in parallel; a shared snapshot path would be truncated and
/// rewritten under a sibling server's live mapping (SIGBUS).
std::string temp_path(const std::string& suffix) {
  return ::testing::TempDir() + "/eimm_chaos_" + std::to_string(::getpid()) +
         "_" + suffix;
}

class ChaosFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::disarm_all();
    fail::set_seed(42);  // fixed chaos schedule, run to run
    engine_ = std::make_unique<QueryEngine>(shared_store());
    expected_.clear();
    for (std::size_t k = 1; k <= shared_store().k_max(); ++k) {
      expected_.push_back(engine_->top_k(k).seeds);
    }
    ServerOptions options;
    options.socket_path = temp_path("sock");
    snapshot_path_ = temp_path("store.sks");
    shared_store().save_file(snapshot_path_);
    options.snapshot_path = snapshot_path_;
    server_ = std::make_unique<SketchServer>(shared_store(), options);
    server_->start();
  }

  void TearDown() override {
    fail::disarm_all();
    fail::set_seed(0);
    if (server_) server_->stop();
    // The per-process files outlive the process otherwise: one snapshot
    // per case, plus the corrupt copy the reload case pushes.
    std::remove(snapshot_path_.c_str());
    std::remove(temp_path("corrupt.sks").c_str());
  }

  static RetryOptions chaos_retry() {
    RetryOptions retry;
    retry.max_attempts = 10;
    retry.initial_backoff = std::chrono::milliseconds(1);
    retry.max_backoff = std::chrono::milliseconds(20);
    return retry;
  }

  void expect_contract_held(const ChaosTally& tally,
                            std::uint64_t total) const {
    // The two absolutes: nothing wrong, nothing untyped.
    EXPECT_EQ(tally.wrong_answers.load(), 0u);
    EXPECT_EQ(tally.untyped_failures.load(), 0u);
    EXPECT_EQ(tally.correct.load() + tally.typed_failures.load(), total);
    // And the retries must actually converge: chaos degrades latency,
    // not availability, at these failure rates.
    EXPECT_GT(tally.correct.load(), total * 8 / 10);
  }

  std::unique_ptr<QueryEngine> engine_;
  std::vector<std::vector<VertexId>> expected_;
  std::string snapshot_path_;
  std::unique_ptr<SketchServer> server_;
};

TEST_F(ChaosFixture, AdmissionRejectionStorm) {
  fail::configure("serve.admit:error:40");
  ChaosTally tally;
  run_clients(server_->socket_path(), chaos_retry(), 4, 8, expected_, tally);
  expect_contract_held(tally, 4 * 8);
  EXPECT_GT(fail::stats("serve.admit").fires, 0u);
}

TEST_F(ChaosFixture, ConnectionDropStorm) {
  fail::configure("serve.conn.recv:error:15,serve.conn.send:error:15");
  ChaosTally tally;
  run_clients(server_->socket_path(), chaos_retry(), 4, 8, expected_, tally);
  expect_contract_held(tally, 4 * 8);
  EXPECT_GT(fail::stats("serve.conn.recv").fires +
                fail::stats("serve.conn.send").fires,
            0u);
}

TEST_F(ChaosFixture, DecodeFaultsWithDelayJitter) {
  fail::configure("serve.wire.decode:error:25,serve.admit:delay:2");
  ChaosTally tally;
  run_clients(server_->socket_path(), chaos_retry(), 4, 8, expected_, tally);
  expect_contract_held(tally, 4 * 8);
}

TEST_F(ChaosFixture, ClientSideTransportChaos) {
  fail::configure("client.send:error:20,client.recv:error:20");
  ChaosTally tally;
  run_clients(server_->socket_path(), chaos_retry(), 4, 8, expected_, tally);
  expect_contract_held(tally, 4 * 8);
}

TEST_F(ChaosFixture, ReloadStormNeverFailsInFlightQueries) {
  // Plain single-shot clients — no retry shield. The epoch handoff
  // alone must keep every query correct while generations churn.
  std::atomic<bool> done{false};
  std::thread reloader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      server_->reload_from();  // re-reads the configured snapshot
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  ChaosTally tally;
  run_clients(server_->socket_path(), RetryOptions{}, 4, 8, expected_,
              tally);
  done.store(true);
  reloader.join();

  EXPECT_EQ(tally.wrong_answers.load(), 0u);
  EXPECT_EQ(tally.untyped_failures.load(), 0u);
  // No fault injection here: with nothing armed, every single query
  // must succeed despite the generation churn.
  EXPECT_EQ(tally.correct.load(), 4u * 8u);
  EXPECT_GT(server_->generation(), 1u);
}

TEST_F(ChaosFixture, CorruptReloadUnderLoadKeepsServing) {
  // A corrupt replacement snapshot keeps getting pushed while clients
  // query: every reload must fail cleanly, every query must answer from
  // the surviving generation.
  const std::string corrupt_path = temp_path("corrupt.sks");
  {
    std::ifstream is(snapshot_path_, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string data = buf.str();
    std::uint64_t offset = 0;
    std::memcpy(&offset, data.data() + 24 + 2 * 24 + 8, 8);
    data[offset] = static_cast<char>(data[offset] ^ 0x08);
    std::ofstream os(corrupt_path, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> failed_reloads{0};
  std::thread reloader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      try {
        server_->reload_from(corrupt_path);
      } catch (const CheckError&) {
        failed_reloads.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  ChaosTally tally;
  run_clients(server_->socket_path(), RetryOptions{}, 4, 8, expected_,
              tally);
  done.store(true);
  reloader.join();

  EXPECT_EQ(tally.wrong_answers.load(), 0u);
  EXPECT_EQ(tally.correct.load(), 4u * 8u);
  EXPECT_GT(failed_reloads.load(), 0u);
  EXPECT_EQ(server_->generation(), 1u);  // nothing corrupt ever swapped in
  EXPECT_GE(server_->registry().failed_reloads(), failed_reloads.load());
}

TEST_F(ChaosFixture, CombinedScheduleEndToEnd) {
  // Everything at once, driven through the same EIMM_FAILPOINTS grammar
  // CI uses: admission errors, connection drops, decode faults, and
  // delay jitter — plus a reload mid-storm.
  fail::configure(
      "serve.admit:error:25,serve.conn.recv:error:10,"
      "serve.wire.decode:error:10,serve.conn.send:delay:1");
  ChaosTally tally;
  std::thread reloader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    try {
      server_->reload_from();
    } catch (const CheckError&) {
      // A reload racing an injected connection fault may fail; the
      // serving contract below is what matters.
    }
  });
  run_clients(server_->socket_path(), chaos_retry(), 4, 8, expected_, tally);
  reloader.join();
  expect_contract_held(tally, 4 * 8);
}

}  // namespace
}  // namespace eimm
