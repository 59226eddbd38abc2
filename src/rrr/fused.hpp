// Fused 64-wide IC RRR sampling: one traversal produces 64 sets.
//
// The scalar kernels in rrr/generate.hpp pay one full BFS/walk per RRR
// set, re-reading every frontier vertex's adjacency once per set. This
// module packs 64 concurrent simulations ("lanes") into a single
// `uint64_t` visited word per vertex and propagates all of them with one
// bitwise-OR frontier pass, following the fusing technique of Göktürk &
// Kaya ("Fusing and Vectorization", PAPERS.md) and the sage exemplar
// (SNIPPETS.md snippet 1):
//
//   IC — label-correcting BFS with mask COALESCING: a per-vertex
//   `pending` word accumulates the lanes that arrived at the vertex
//   since it was last expanded, and the vertex sits in the work queue
//   while that word fills up. Popping v consumes the whole accumulated
//   mask m at once: for each in-edge (w -> v) with probability p, only
//   lanes in `m & ~visited[w]` may traverse it; their coin flips come
//   either from the per-lane RNG streams (few candidate lanes) or from
//   a single 64-bit Bernoulli(p) mask (many lanes — one mask replaces
//   up to 64 scalar draws). Newly reached lanes OR into visited[w] and
//   pending[w], re-queueing w only on a 0 -> nonzero pending
//   transition. Coalescing is what makes fusion pay: lanes flowing
//   toward the same high-influence vertices merge into dense masks, so
//   one adjacency scan (and often one Bernoulli mask) serves dozens of
//   lanes where the scalar kernel would re-walk the list per set. Each
//   lane still expands each vertex at most once and flips each edge at
//   most once — the scalar IC live-edge semantics, 64-wide.
//
// The hot loop is branch-light and sort-free:
//   * candidate compaction — expanding v first writes, without a
//     branch, the indices of the in-edges whose `m & ~visited[w]` is
//     non-zero into a reused buffer; coins are flipped for those edges
//     only, re-reading visited[w] (it only grows while v is expanded,
//     so a duplicate in-edge or a self-loop flips exactly what it did
//     in a single test-every-edge pass);
//   * branchless coins — bernoulli_mask's bit-serial step is one
//     formula for both values of q's bit, the density test clears bits
//     instead of calling popcount, per-lane flips OR in
//     `next_bool(p) << l`, and the frontier commit stores without
//     testing whether any lane got through;
//   * touched bitmap — one bit per visited vertex replaces a vertex
//     list and its sort. The emit pass walks it group by group (64
//     vertices per bitmap word), transposes each touched group's
//     visited words into per-lane words in place, and writes a bitmap
//     slot word-for-word or expands a run in ascending order:
//     O(|V|/64 + members) per traversal.
// Bit-identity contract: none of this changes which RNG values are
// drawn or their order, so pools, seeds and snapshots are bit-identical
// to the straightforward kernel. The golden digests in
// tests/statcheck/fused_determinism_test.cpp pin that.
//
// LT is not fused: its lanes would be independent reverse walks that
// share no traversal work, so fusion only adds bookkeeping. The sharded
// sampler stages every LT set through its scalar loop, and both entry
// points below reject LT with a CheckError.
//
// RNG contract (runtime/rng_stream.hpp): lane `l` of traversal block `b`
// covers global RRR slot b*64+l and seeds from rng_stream(seed, b*64+l)
// — the SAME stream the scalar sampler would use for that slot, so fused
// roots match scalar. The block-level IC mask stream
// comes from an rng_split domain salted by (block, lane_begin): when a
// martingale round boundary splits a block into two traversals, the two
// lane windows draw from disjoint mask streams, so no randomness is ever
// reused. Consequently IC set contents depend on the traversal's lane
// window — deterministic for a fixed (seed, round schedule), but NOT
// bitwise-equal to the scalar path; equivalence is statistical and
// enforced by tests/statcheck/fused_determinism_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "diffusion/model.hpp"
#include "graph/csr.hpp"
#include "rrr/pool_view.hpp"
#include "runtime/atomic_counters.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"

namespace eimm {

/// Lanes per fused traversal — the width of the visited word.
inline constexpr unsigned kFusedLanes = 64;

/// Fused-mode request, a tri-state: explicit on/off wins, kAuto resolves the EIMM_FUSED environment
/// variable (default ON; EIMM_FUSED=0 opts out). Fused IC output is
/// statistically, not bitwise, equivalent to the scalar pipeline — the
/// statcheck spread-ratio gate enforces it. The mode applies to IC only;
/// LT always samples scalar.
enum class FusedSampling { kAuto, kOff, kOn };

/// Applies the kAuto -> EIMM_FUSED defaulting; returns the final answer.
[[nodiscard]] bool resolve_fused_sampling(FusedSampling requested);

[[nodiscard]] std::string_view to_string(FusedSampling mode) noexcept;

/// Per-worker reusable state for fused traversals. `visited`,
/// `pending` and `touched` must be all-zero between traversals; the
/// expansion consumes every pending word it queues, and both entry
/// points' emit passes walk the touched bitmap and clear the visited
/// words and bitmap words they read (O(|V|/64 + members), not O(|V|)),
/// restoring the invariant without epoch stamps — a 64-bit lane word
/// has no spare room for an epoch, and the bitmap already names every
/// dirty word.
struct FusedScratch {
  explicit FusedScratch(VertexId n)
      : visited(words_for_bits(n) * kFusedLanes, 0),
        pending(n, 0),
        touched(words_for_bits(n), 0) {
    queue.reserve(256);
    candidates.reserve(256);
  }

  /// Lane bitset per vertex during the traversal, padded to whole
  /// 64-vertex groups. The emit pass transposes each touched group in
  /// place, so that visited[64j + l] briefly holds lane l's bits for
  /// vertices [64j, 64j + 64).
  std::vector<std::uint64_t> visited;
  /// Lanes that reached the vertex but have not been expanded from it
  /// yet; the coalescing accumulator.
  std::vector<std::uint64_t> pending;
  /// One bit per vertex, set once any lane visits it; walking it word
  /// by word yields the touched vertices in ascending order, so no
  /// emit pass sorts. Holds each group's lane mask while the group is
  /// transposed.
  std::vector<std::uint64_t> touched;
  /// Work queue with index cursor; a vertex re-enters only on a
  /// pending 0 -> nonzero transition, so entries consume whole masks.
  std::vector<VertexId> queue;
  /// Adjacency indices of the popped vertex's in-edges that still lead
  /// to an unvisited lane (the compaction pass's output); grows to the
  /// largest in-degree expanded and is reused.
  std::vector<std::uint32_t> candidates;
  /// Per-lane member output, sorted ascending after a traversal.
  std::array<std::vector<VertexId>, kFusedLanes> members;
  std::array<Xoshiro256, kFusedLanes> lane_rng;
};

/// Diagnostics from one traversal (feeds the sampler.fused metrics).
struct FusedTraversalStats {
  unsigned lanes = 0;            ///< sets emitted (= lane window width)
  std::uint64_t touched = 0;     ///< distinct vertices any lane visited
  std::uint64_t members = 0;     ///< Σ set sizes across the window
  std::uint64_t edges_scanned = 0;  ///< in-edges read, Σ popped degrees
  /// Scanned edges that flipped coins for at least one lane: the edges
  /// whose target still had an unvisited popped lane when reached.
  std::uint64_t coin_edges = 0;
};

/// Draws 64 iid Bernoulli(p) bits in ~8 uniform draws (expected) via a
/// bit-serial MSB-first comparison: quantize q = round(p·2^32), then let
/// draw k supply bit k of all 64 lanes' uniform variates and resolve
/// each lane's U < q/2^32 comparison the moment its prefix differs from
/// q's. Every draw halves the undecided lanes in expectation, so the
/// loop runs ~log2(64)+2 rounds regardless of p's precision. The mask
/// is EXACTLY Bernoulli(q/2^32) per bit; quantization error vs p is
/// < 2^-33 — far below anything the statcheck harness can see. NaN and
/// p <= 0 give 0 with no draw, matching next_bool's "NaN is never live".
[[nodiscard]] std::uint64_t bernoulli_mask(Xoshiro256& rng, double p) noexcept;

/// Runs one fused traversal for lanes [lane_begin, lane_end) of traversal
/// block `block` (global slots block*64+lane). On return
/// scratch.members[l] holds lane l's sorted RRR set (root included) for
/// every lane in the window, and scratch.visited is all-zero again.
/// `reverse` must carry IC probabilities; lane_begin < lane_end <= 64.
/// Throws CheckError for any model but IC.
FusedTraversalStats sample_rrr_fused(const CSRGraph& reverse,
                                     DiffusionModel model,
                                     std::uint64_t base_seed,
                                     std::uint64_t block, unsigned lane_begin,
                                     unsigned lane_end, FusedScratch& scratch);

/// The staging-path variant: identical traversal, but each lane's set is
/// written STRAIGHT into `arena` (no intermediate per-lane buffer): a
/// lane with at least `bitmap_min` members becomes a bitmap slot (the
/// adaptive representation, §IV-C) written one word per touched vertex
/// group, every other lane a sorted run written one store per member. refs_out must have room for lane_end - lane_begin
/// entries; refs_out[l - lane_begin] receives lane l's slot. When
/// `counters` is non-null the emit pass also builds the base counters
/// (kernel fusion, Algorithm 3) as counters[v] += popcount(visited[v]) —
/// the same sums per-member increments would produce, in one atomic add
/// per touched vertex. scratch.members is left untouched.
FusedTraversalStats sample_rrr_fused_into(
    const CSRGraph& reverse, DiffusionModel model, std::uint64_t base_seed,
    std::uint64_t block, unsigned lane_begin, unsigned lane_end,
    FusedScratch& scratch, ShardArena& arena, ShardArena::Ref* refs_out,
    std::size_t bitmap_min = kNoBitmaps, CounterArray* counters = nullptr);

}  // namespace eimm
