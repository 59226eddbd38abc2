// Reverse-reachability sampling (the Generate_RRRsets kernel).
//
// IC: probabilistic BFS on the transpose — in-edge (u -> v in G) is
// "live" with probability p(u,v), sampled on first touch (Algorithm 3,
// lines 1-13).
// LT: reverse random walk — at each vertex pick exactly one in-neighbor
// with probability equal to its edge weight (or none with the leftover
// probability), matching the live-edge characterization of the Linear
// Threshold model; sets are therefore paths, small but numerous (§III-A).
//
// Determinism: the caller seeds one RNG stream per RRR-set index, so set
// i's content depends only on (base_seed, i) — never on the thread that
// generated it or the schedule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "diffusion/model.hpp"
#include "graph/csr.hpp"
#include "support/macros.hpp"
#include "support/rng.hpp"

namespace eimm {

/// Epoch-stamped visited set: O(1) reset between RRR sets instead of an
/// O(|V|) clear — the structure the paper places NUMA-locally (§IV-B).
class VisitScratch {
 public:
  explicit VisitScratch(std::size_t n) : stamp_(n, 0) {}

  /// Starts a fresh logical bitmap (constant time amortized). When the
  /// 32-bit epoch wraps, every stamp written during the previous cycle
  /// could alias a future epoch as "visited", so the wrap does the one
  /// full O(|V|) clear per 2^32 rounds and restarts at epoch 1 (0 is
  /// reserved as the never-marked stamp value).
  void new_round() noexcept {
    if (++epoch_ == 0) {  // wrapped: do the rare full clear
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  [[nodiscard]] bool visited(VertexId v) const noexcept {
    return stamp_[v] == epoch_;
  }
  void mark(VertexId v) noexcept { stamp_[v] = epoch_; }
  [[nodiscard]] std::size_t size() const noexcept { return stamp_.size(); }

  /// Current epoch; 0 only before the first new_round().
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  /// Test seam: jumps the epoch counter so the wraparound clear is
  /// reachable without 2^32 new_round() calls. Stale stamps written
  /// before the jump keep their values, exactly as if the epochs in
  /// between had been consumed by empty rounds.
  void set_epoch_for_test(std::uint32_t epoch) noexcept { epoch_ = epoch; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

/// Per-thread reusable buffers for one sampler; reusing one scratch
/// makes sampling allocation-free.
struct SamplerScratch {
  explicit SamplerScratch(std::size_t n) : visited(n) { members.reserve(256); }
  VisitScratch visited;
  std::vector<VertexId> members;  // last set, root first; IC's BFS queue
};

/// Null instrumentation: compiled away entirely. A probe observes every
/// access (check or mark) to the visited structure together with the
/// vertex id — enough to count events, time regions, or replay the
/// access stream through a memory model (bench/table2).
struct NullProbe {
  static void on_visited_access(VertexId v) noexcept { EIMM_UNUSED(v); }
};

/// Samples one RRR set under the IC model into scratch.members (unsorted;
/// root first). `reverse` must carry IC probabilities on its (in-)edges.
/// Returns the in-edges scanned. Probe hooks bracket the visited-bitmap
/// accesses for the Table II instrumentation; Scratch may be any type
/// exposing `.visited` (new_round/visited/mark) and `.members`, so
/// alternative visited-structure placements can be compared under
/// identical sampling.
template <typename Probe = NullProbe, typename Scratch = SamplerScratch>
std::uint64_t sample_rrr_ic(const CSRGraph& reverse, VertexId root,
                            Xoshiro256& rng, Scratch& scratch);

/// Samples one RRR set under the LT model into scratch.members. `reverse`
/// must carry normalized LT weights (Σ_u w(u,v) ≤ 1 per v). Returns the
/// walk steps taken.
template <typename Probe = NullProbe, typename Scratch = SamplerScratch>
std::uint64_t sample_rrr_lt(const CSRGraph& reverse, VertexId root,
                            Xoshiro256& rng, Scratch& scratch);

/// Model dispatch with deterministic per-index stream: root is chosen
/// uniformly from |V| using the stream's first draw. Leaves the set in
/// scratch.members; returns IC edges scanned or LT walk steps.
std::uint64_t sample_rrr_into(const CSRGraph& reverse, DiffusionModel model,
                              std::uint64_t base_seed, std::uint64_t index,
                              SamplerScratch& scratch);

/// sample_rrr_into returning a copy of the members (unsorted).
std::vector<VertexId> sample_rrr(const CSRGraph& reverse, DiffusionModel model,
                                 std::uint64_t base_seed, std::uint64_t index,
                                 SamplerScratch& scratch);

// --- template definitions ---

template <typename Probe, typename Scratch>
std::uint64_t sample_rrr_ic(const CSRGraph& reverse, VertexId root,
                            Xoshiro256& rng, Scratch& scratch) {
  scratch.visited.new_round();
  std::vector<VertexId>& queue = scratch.members;
  queue.assign(1, root);
  scratch.visited.mark(root);

  // BFS with an index cursor instead of pop_front: the queue doubles as
  // the member list.
  std::uint64_t scanned = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    const auto neighbors = reverse.neighbors(u);
    const auto probs = reverse.weights(u);
    scanned += neighbors.size();
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const VertexId w = neighbors[i];
      Probe::on_visited_access(w);
      const bool seen = scratch.visited.visited(w);
      if (!seen && rng.next_bool(probs[i])) {
        Probe::on_visited_access(w);
        scratch.visited.mark(w);
        queue.push_back(w);
      }
    }
  }
  return scanned;
}

template <typename Probe, typename Scratch>
std::uint64_t sample_rrr_lt(const CSRGraph& reverse, VertexId root,
                            Xoshiro256& rng, Scratch& scratch) {
  scratch.visited.new_round();
  scratch.members.assign(1, root);
  scratch.visited.mark(root);

  std::uint64_t steps = 0;
  VertexId current = root;
  for (;;) {
    const auto neighbors = reverse.neighbors(current);
    const auto weights = reverse.weights(current);
    if (neighbors.empty()) break;
    // Pick in-neighbor i with probability weights[i]; the leftover
    // probability mass (1 - Σ w) selects "no activator".
    const double r = rng.next_double();
    ++steps;
    double cumulative = 0.0;
    VertexId picked = kInvalidVertex;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      cumulative += weights[i];
      if (r < cumulative) {
        picked = neighbors[i];
        break;
      }
    }
    if (picked == kInvalidVertex) break;  // activated by no one
    Probe::on_visited_access(picked);
    const bool seen = scratch.visited.visited(picked);
    if (seen) break;  // walk closed a cycle
    Probe::on_visited_access(picked);
    scratch.visited.mark(picked);
    scratch.members.push_back(picked);
    current = picked;
  }
  return steps;
}

}  // namespace eimm
