// QueryEngine — answers many independent seed-selection queries against
// one frozen SketchStore, without regenerating RRR state.
//
// Three query families:
//   top_k      — unconstrained top-k; O(k) prefix read of the greedy
//                sequence precomputed at build time.
//   select     — the live greedy kernel: plain top-k, candidate
//                whitelists, forbidden-node blacklists. A lazy greedy
//                over a per-epoch degree order: each pick re-reads only
//                the counters of stale order entries (no |V|-wide scan)
//                and retires only the sketches it covers through the
//                inverted index (no scan over all θ sets), with the same
//                lowest-id tie-break as seedselect — an unconstrained
//                query reproduces Engine::kEfficient's seed set exactly.
//   evaluate   — marginal-gain/coverage evaluation of a caller-supplied
//                seed set (what-if analysis for externally chosen seeds).
//
// The engine computes one read-only degree order per serving epoch (at
// construction, next to the checksum verification) that every select
// streams; each query allocates only its own small scratch (counters,
// a θ-bit bitset, a side heap of stale entries) and only reads the
// store, so the engine is thread-safe by construction; run_batch drains
// a query list through the runtime/ stealing JobPool across OpenMP
// threads.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"
#include "seedselect/select.hpp"
#include "serve/sketch_store.hpp"

namespace eimm {

struct QueryOptions {
  /// Number of seeds requested; must be in (0, store.k_max()].
  std::size_t k = 1;
  /// Whitelist: when non-empty, seeds come only from these vertices.
  std::vector<VertexId> candidates;
  /// Blacklist: these vertices are never picked (wins over candidates).
  std::vector<VertexId> forbidden;

  [[nodiscard]] bool constrained() const noexcept {
    return !candidates.empty() || !forbidden.empty();
  }
};

struct QueryResult {
  std::vector<VertexId> seeds;
  /// Counter value of each seed at pick time (its marginal coverage).
  std::vector<std::uint64_t> marginal_coverage;
  std::uint64_t covered_sketches = 0;
  std::uint64_t total_sketches = 0;
  /// n · F(S), the influence-spread estimate over the frozen pool.
  double estimated_spread = 0.0;

  [[nodiscard]] double coverage_fraction() const noexcept {
    return total_sketches ? static_cast<double>(covered_sketches) /
                                static_cast<double>(total_sketches)
                          : 0.0;
  }
};

/// Coverage report for a caller-supplied seed set.
struct MarginalGainResult {
  /// Sketches newly covered by each seed, in the order given (a seed
  /// adding nothing beyond its predecessors contributes 0).
  std::vector<std::uint64_t> incremental_coverage;
  std::uint64_t covered_sketches = 0;
  std::uint64_t total_sketches = 0;
  double estimated_spread = 0.0;

  [[nodiscard]] double coverage_fraction() const noexcept {
    return total_sketches ? static_cast<double>(covered_sketches) /
                                static_cast<double>(total_sketches)
                          : 0.0;
  }
};

class QueryEngine {
 public:
  /// Non-owning: the store must outlive the engine. Settles any deferred
  /// v4 snapshot checksums (lazy mmap loads) before the first query can
  /// run — constructing an engine over corrupt bytes throws
  /// bin::FormatError instead of serving them. Then builds the degree
  /// order every select() streams (store_degree_order, once per epoch).
  explicit QueryEngine(const SketchStore& store);

  /// Unconstrained top-k from the precomputed greedy sequence.
  [[nodiscard]] QueryResult top_k(std::size_t k) const;

  /// The live kernel (handles whitelists/blacklists).
  [[nodiscard]] QueryResult select(const QueryOptions& options) const;

  /// Fast path for unconstrained queries, kernel otherwise.
  [[nodiscard]] QueryResult answer(const QueryOptions& options) const {
    return options.constrained() ? select(options) : top_k(options.k);
  }

  /// Coverage/marginal-gain evaluation of an arbitrary seed set.
  [[nodiscard]] MarginalGainResult evaluate(
      const std::vector<VertexId>& seeds) const;

  /// Answers every query concurrently (stealing JobPool over `threads`
  /// OpenMP threads; 0 = library default). results[i] corresponds to
  /// queries[i] and is identical to answer(queries[i]).
  [[nodiscard]] std::vector<QueryResult> run_batch(
      const std::vector<QueryOptions>& queries, int threads = 0) const;

  [[nodiscard]] const SketchStore& store() const noexcept { return *store_; }

 private:
  const SketchStore* store_;
  std::vector<LazyArgMaxHeap::Entry> order_;
};

}  // namespace eimm
