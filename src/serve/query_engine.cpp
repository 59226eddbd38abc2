#include "serve/query_engine.hpp"

#include <omp.h>

#include <algorithm>
#include <exception>
#include <numeric>

#include "rrr/bitset.hpp"
#include "runtime/affinity.hpp"
#include "runtime/thread_info.hpp"
#include "runtime/work_queue.hpp"
#include "seedselect/engine.hpp"
#include "support/macros.hpp"

namespace eimm {

QueryEngine::QueryEngine(const SketchStore& store) : store_(&store) {
  store.verify_checksums();
  order_ = store_degree_order(store);
}

QueryResult QueryEngine::select(const QueryOptions& options) const {
  return select_from_store(*store_, options, order_);
}

QueryResult QueryEngine::top_k(std::size_t k) const {
  EIMM_CHECK(k > 0, "query k must be positive");
  EIMM_CHECK(k <= store_->k_max(),
             "query k exceeds the store's build-time cap");
  const auto& seeds = store_->default_seeds();
  const auto& marginals = store_->default_marginals();
  const std::size_t count = std::min(k, seeds.size());

  QueryResult result;
  result.total_sketches = store_->num_sketches();
  result.seeds.assign(seeds.begin(), seeds.begin() + count);
  result.marginal_coverage.assign(marginals.begin(),
                                  marginals.begin() + count);
  result.covered_sketches = std::accumulate(
      result.marginal_coverage.begin(), result.marginal_coverage.end(),
      std::uint64_t{0});
  result.estimated_spread =
      static_cast<double>(store_->num_vertices()) *
      result.coverage_fraction();
  return result;
}

MarginalGainResult QueryEngine::evaluate(
    const std::vector<VertexId>& seeds) const {
  const VertexId n = store_->num_vertices();
  MarginalGainResult result;
  result.total_sketches = store_->num_sketches();
  DynamicBitset covered(store_->num_sketches());
  for (const VertexId v : seeds) {
    EIMM_CHECK(v < n, "seed vertex out of range");
    std::uint64_t gain = 0;
    for (const SketchId s : store_->covering(v)) {
      if (!covered.test(s)) {
        covered.set(s);
        ++gain;
      }
    }
    result.incremental_coverage.push_back(gain);
    result.covered_sketches += gain;
  }
  result.estimated_spread =
      static_cast<double>(n) * result.coverage_fraction();
  return result;
}

std::vector<QueryResult> QueryEngine::run_batch(
    const std::vector<QueryOptions>& queries, int threads) const {
  std::vector<QueryResult> results(queries.size());
  if (queries.empty()) return results;

  // Serial pre-validation: a malformed batch fails immediately on its
  // lowest invalid index, before any kernel work is spent.
  for (const QueryOptions& q : queries) validate_store_query(*store_, q);

  ThreadCountScope thread_scope(threads);
  const auto workers = static_cast<std::size_t>(omp_get_max_threads());
  // Pin the serving team the same way the selection engine pins its
  // workers (EIMM_PIN; no-op on single-node hosts): each query's scratch
  // counters then stay on the answering thread's own domain. Unlike the
  // compute phases, run_batch is called from arbitrary application
  // threads, so the CALLER's mask is restored on exit — a batch must
  // not permanently pin the thread that submitted it.
  ScopedAffinityRestore caller_mask;
  pin_openmp_team();
  // Batch size 1: queries are coarse-grained jobs, and constrained ones
  // cost far more than cached top-k reads — stealing evens that out.
  JobPool jobs(queries.size(), 1, workers);
  // Arguments were validated above, but an exception may still not cross
  // an OpenMP region boundary (that would std::terminate) — so any
  // unexpected failure (e.g. scratch allocation) is captured, remaining
  // queries are skipped (threads still drain the JobPool), and the
  // lowest captured index's error is rethrown.
  std::exception_ptr first_error = nullptr;
  std::size_t first_error_index = queries.size();
  std::atomic<bool> failed{false};
#pragma omp parallel
  {
    const auto wid = static_cast<std::size_t>(omp_get_thread_num());
    for (JobBatch batch = jobs.next(wid); !batch.empty();
         batch = jobs.next(wid)) {
      for (std::size_t i = batch.begin; i < batch.end; ++i) {
        if (failed.load(std::memory_order_relaxed)) continue;
        try {
          results[i] = answer(queries[i]);
        } catch (...) {
          failed.store(true, std::memory_order_relaxed);
#pragma omp critical(eimm_run_batch_error)
          if (i < first_error_index) {
            first_error_index = i;
            first_error = std::current_exception();
          }
        }
      }
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return results;
}

}  // namespace eimm
