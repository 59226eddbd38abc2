#include "rrr/fused.hpp"

#include <array>
#include <bit>

#include "runtime/rng_stream.hpp"
#include "support/bits.hpp"
#include "support/env.hpp"
#include "support/macros.hpp"

namespace eimm {
namespace {

/// Candidate-lane count at or below which IC coin flips come from the
/// per-lane streams instead of one block mask. A mask costs ~8 uniform
/// draws in expectation regardless of how many lanes need it (see
/// bernoulli_mask), so it only pays once enough lanes are asking; below
/// the threshold per-lane draws match the scalar pipeline's RNG cost.
constexpr int kMaskFlipThreshold = 8;

/// True when `mask` has more than kMaskFlipThreshold lanes set. Clearing
/// the lowest set bit that many times is a fixed run of ALU ops, where
/// std::popcount compiles to a library call on baseline x86-64.
constexpr bool dense_lanes(std::uint64_t mask) noexcept {
  for (int i = 0; i < kMaskFlipThreshold; ++i) mask &= mask - 1;
  return mask != 0;
}

/// The body of bernoulli_mask, inlined into the traversal's coin pass.
inline std::uint64_t draw_bernoulli_mask(Xoshiro256& rng, double p) noexcept {
  if (!(p > 0.0)) return 0;  // also NaN: never live, like next_bool(NaN)
  if (p >= 1.0) return ~std::uint64_t{0};
  // q = llround(p·2^32) without the libm call: for 0 < x < 2^32 the
  // truncation is floor(x), x - floor(x) is exact, and a fraction of at
  // least one half rounds away from zero — llround's rule.
  const double x = p * 4294967296.0;
  const auto whole = static_cast<std::uint64_t>(x);
  const std::uint64_t q =
      whole + (x - static_cast<double>(whole) >= 0.5 ? 1 : 0);
  if (q == 0) return 0;
  if (q >= (std::uint64_t{1} << 32)) return ~std::uint64_t{0};
  // Bit-serial comparison U < q/2^32, all 64 lanes at once, MSB first:
  // draw k supplies bit k of every lane's uniform U. Where q's bit is 1,
  // a lane whose U-bit is 0 resolves to TRUE; where q's bit is 0, a lane
  // whose U-bit is 1 resolves to FALSE; equal bits stay undecided. Each
  // draw halves the undecided set in expectation, so a full-width mask
  // costs ~log2(64)+2 ≈ 8 draws instead of one draw per lane — and once
  // q has no set bits left (below its lowest set bit) the surviving ties
  // compare equal, i.e. NOT below q, so the loop stops there (p = 0.5
  // costs a single draw). The step is branch-free in q's bit: qbit is
  // all-ones or all-zeros, so one formula covers both cases.
  const int lowest = std::countr_zero(q);
  std::uint64_t result = 0;
  std::uint64_t undecided = ~std::uint64_t{0};
  for (int k = 31; k >= lowest; --k) {
    const std::uint64_t r = rng();
    const std::uint64_t qbit = std::uint64_t{0} - ((q >> k) & 1);
    result |= undecided & ~r & qbit;
    undecided &= ~(r ^ qbit);
    if (undecided == 0) break;
  }
  return result;
}

}  // namespace

bool resolve_fused_sampling(FusedSampling requested) {
  switch (requested) {
    case FusedSampling::kOff:
      return false;
    case FusedSampling::kOn:
      return true;
    case FusedSampling::kAuto:
      break;
  }
  return env_bool("EIMM_FUSED", true);
}

std::string_view to_string(FusedSampling mode) noexcept {
  switch (mode) {
    case FusedSampling::kAuto:
      return "auto";
    case FusedSampling::kOff:
      return "off";
    case FusedSampling::kOn:
      return "on";
  }
  return "auto";
}

std::uint64_t bernoulli_mask(Xoshiro256& rng, double p) noexcept {
  return draw_bernoulli_mask(rng, p);
}

namespace {

/// Seeds the window's lane streams, draws every root, and queues the
/// roots with their lane masks accumulated in `pending` — lanes sharing
/// a root coalesce before the first expansion. Lane l's first draw is
/// next_bounded(n) from rng_stream(seed, block*64+l) — bit-identical to
/// the scalar sampler's root pick for that slot.
void draw_roots(const CSRGraph& reverse, std::uint64_t base_seed,
                std::uint64_t block, unsigned lane_begin, unsigned lane_end,
                FusedScratch& scratch) {
  const VertexId n = reverse.num_vertices();
  for (unsigned l = lane_begin; l < lane_end; ++l) {
    scratch.lane_rng[l] =
        rng_lane_stream(base_seed, block, kFusedLanes, l);
    const auto root =
        static_cast<VertexId>(scratch.lane_rng[l].next_bounded(n));
    scratch.touched[root >> 6] |= std::uint64_t{1} << (root & 63);
    if (scratch.pending[root] == 0) scratch.queue.push_back(root);
    const std::uint64_t bit = std::uint64_t{1} << l;
    scratch.visited[root] |= bit;
    scratch.pending[root] |= bit;
  }
}

/// IC: label-correcting BFS over all lanes at once with mask
/// coalescing. Popping u consumes pending[u] — every lane that arrived
/// at u since it was queued — so one adjacency scan serves the whole
/// accumulated mask, and lanes converging on high-influence vertices
/// merge into dense masks that take the single-Bernoulli-mask path. A
/// lane expands from each vertex at most once (it leaves pending[u] on
/// expansion and visited[u] keeps it from re-entering), so each
/// (lane, edge) pair flips at most one coin: the scalar IC live-edge
/// semantics. Expansion ORDER differs from the scalar BFS — that is
/// exactly why IC equivalence is statistical, not bitwise.
///
/// Each expansion runs in two passes. Compaction writes, without a
/// branch, the index of every in-edge whose lanes m & ~visited[w] are
/// not all visited into scratch.candidates; most scanned edges lead
/// nowhere new, and this pass is pure loads, an AND and an add. The
/// coin pass then visits only the candidates, re-reading visited[w]:
/// visited only grows during the expansion, so an edge whose lanes an
/// earlier duplicate in-edge already delivered flips nothing — the same
/// draws, in the same order, as a single pass that tested every edge.
/// Its commit is branch-free too: with no fresh lane every store is a
/// no-op and the queue slot written past the tail is not kept.
void traverse_ic(const CSRGraph& reverse, Xoshiro256& mask_rng,
                 FusedScratch& scratch, FusedTraversalStats& stats) {
  std::uint64_t* const visited = scratch.visited.data();
  std::uint64_t* const pending = scratch.pending.data();
  std::uint64_t* const touched = scratch.touched.data();
  std::vector<VertexId>& queue = scratch.queue;
  std::size_t tail = queue.size();  // the roots; never 0
  std::uint64_t edges_scanned = 0;
  std::uint64_t coin_edges = 0;
  for (std::size_t head = 0; head < tail; ++head) {
    const VertexId u = queue[head];
    const std::uint64_t m = pending[u];
    pending[u] = 0;
    const auto neighbors = reverse.neighbors(u);
    const auto probs = reverse.weights(u);
    const std::size_t degree = neighbors.size();
    edges_scanned += degree;
    if (scratch.candidates.size() < degree) scratch.candidates.resize(degree);
    std::uint32_t* const candidates = scratch.candidates.data();
    std::size_t count = 0;
    for (std::size_t i = 0; i < degree; ++i) {
      candidates[count] = static_cast<std::uint32_t>(i);
      count += (m & ~visited[neighbors[i]]) != 0 ? 1 : 0;
    }
    for (std::size_t c = 0; c < count; ++c) {
      const std::uint32_t i = candidates[c];
      const VertexId w = neighbors[i];
      const std::uint64_t need = m & ~visited[w];
      if (need == 0) continue;  // a duplicate in-edge delivered them
      ++coin_edges;
      const double p = probs[i];
      std::uint64_t fresh = 0;
      if (!dense_lanes(need)) {
        // Few candidate lanes: per-lane draws (scalar RNG cost).
        for (std::uint64_t rest = need; rest != 0; rest &= rest - 1) {
          const auto l = static_cast<unsigned>(std::countr_zero(rest));
          fresh |= std::uint64_t{scratch.lane_rng[l].next_bool(p)} << l;
        }
      } else {
        // Dense candidates: one Bernoulli mask serves every lane. The
        // mask bits are iid and fresh per edge event, so lanes stay
        // mutually independent even though they share the draw.
        fresh = draw_bernoulli_mask(mask_rng, p) & need;
      }
      if (tail == queue.size()) queue.resize(2 * tail);
      queue[tail] = w;
      tail += (pending[w] == 0 && fresh != 0) ? 1 : 0;
      touched[w >> 6] |= std::uint64_t{fresh != 0} << (w & 63);
      visited[w] |= fresh;
      pending[w] |= fresh;
    }
  }
  stats.edges_scanned = edges_scanned;
  stats.coin_edges = coin_edges;
}

/// Population count as a branch-free SWAR sum (Hacker's Delight §5-1):
/// std::popcount compiles to a libgcc call on baseline x86-64.
constexpr unsigned lane_count(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
}

/// Lane bits at or above which a touched vertex group is transposed as
/// a 64×64 bit matrix instead of scattered bit by bit. The transpose
/// costs the same whatever the group holds; the scatter costs one
/// read-modify-write per lane bit.
constexpr std::uint64_t kTransposeMinLaneBits = 96;

/// Touched vertices a group needs before its lane bits are counted for
/// that choice. Counting is a pass of its own, and on sparse graphs —
/// a few touched vertices per group, one lane each — its data-dependent
/// trip count costs more than the scatter it could save; such a group
/// scatters straight away and counts as it goes.
constexpr unsigned kCountMinVertices = 8;

/// The matrix path for touched group j (`group` = its 64 visited words,
/// `vertices` = its touched mask): counts the group's lane bits,
/// crediting each vertex with its lanes, and when they reach
/// kTransposeMinLaneBits transposes the group in place (untouched
/// vertices' words, the last group's padding included, are zero) and
/// adds each lane's popcount to `counts`. Returns false with the words
/// untouched for a sparser group. `present` receives the lane mask and
/// `lane_bits` the lane-bit count either way. Kept out of line so that
/// the scatter loop, which most groups of a sparse graph take, is not
/// compiled around the transpose's registers.
template <typename Credit>
[[gnu::noinline]] bool transpose_dense_group(
    std::uint64_t* group, std::size_t j, std::uint64_t vertices,
    std::uint64_t& present, std::uint64_t& lane_bits,
    std::array<std::uint32_t, kFusedLanes>& counts, Credit& credit) {
  present = 0;
  lane_bits = 0;
  for (; vertices != 0; vertices &= vertices - 1) {
    const auto i = static_cast<unsigned>(std::countr_zero(vertices));
    const std::uint64_t word = group[i];
    const unsigned lanes = lane_count(word);
    present |= word;
    lane_bits += lanes;
    credit(static_cast<VertexId>((j << 6) | i), lanes);
  }
  if (lane_bits < kTransposeMinLaneBits) return false;
  transpose64(group);
  for (std::uint64_t rest = present; rest != 0; rest &= rest - 1) {
    const auto l = static_cast<unsigned>(std::countr_zero(rest));
    counts[l] += lane_count(group[l]);
  }
  return true;
}

/// Rewrites the traversal's result group by group. Vertex group j is
/// [64j, 64j + 64) with visited words visited[64j .. 64j + 63]; for
/// every group with a touched vertex those words are transposed in
/// place so that visited[64j + l] holds LANE l's membership bits for
/// the group, and touched[j] becomes the group's lane mask. A dense
/// group takes the word-parallel matrix transpose
/// (transpose_dense_group); any other scatters its lane bits one at a
/// time. Either way the cost is O(|V|/64 + members), and emitting from
/// lane words is one store per (group, lane) for a bitmap slot and
/// ascending bit order for a run — no sort anywhere. `counts` receives
/// each lane's set size, and every touched vertex v is credited as
/// credit(v, lanes at v) — the base counters.
template <typename Credit>
void transpose_groups(FusedScratch& scratch, FusedTraversalStats& stats,
                      std::array<std::uint32_t, kFusedLanes>& counts,
                      Credit&& credit) {
  counts.fill(0);
  std::array<std::uint64_t, kFusedLanes> lane_words{};
  std::uint64_t* const touched = scratch.touched.data();
  const std::size_t groups = scratch.touched.size();
  // Tallied in locals: stats may alias the visited words as far as the
  // compiler knows, so updating it in the loop would reload it per store.
  std::uint64_t touched_total = 0;
  std::uint64_t members = 0;
  std::uint64_t transposed = 0;
  std::uint64_t scattered = 0;
  for (std::size_t j = 0; j < groups; ++j) {
    std::uint64_t vertices = touched[j];
    if (vertices == 0) continue;
    std::uint64_t* const group = scratch.visited.data() + (j << 6);
    const unsigned touched_here = lane_count(vertices);
    touched_total += touched_here;
    std::uint64_t present = 0;
    const bool counted = touched_here >= kCountMinVertices;
    if (counted) {
      std::uint64_t lane_bits = 0;
      const bool dense = transpose_dense_group(group, j, vertices, present,
                                               lane_bits, counts, credit);
      members += lane_bits;
      if (dense) {
        touched[j] = present;
        ++transposed;
        continue;
      }
    }
    for (; vertices != 0; vertices &= vertices - 1) {
      const auto i = static_cast<unsigned>(std::countr_zero(vertices));
      const std::uint64_t bit = std::uint64_t{1} << i;
      std::uint64_t word = group[i];
      group[i] = 0;
      present |= word;
      unsigned lanes = 0;
      for (; word != 0; word &= word - 1, ++lanes) {
        const auto l = static_cast<unsigned>(std::countr_zero(word));
        lane_words[l] |= bit;
        ++counts[l];
      }
      if (!counted) {
        members += lanes;
        credit(static_cast<VertexId>((j << 6) | i), lanes);
      }
    }
    touched[j] = present;
    for (std::uint64_t rest = present; rest != 0; rest &= rest - 1) {
      const auto l = static_cast<unsigned>(std::countr_zero(rest));
      group[l] = lane_words[l];
      lane_words[l] = 0;
    }
    ++scattered;
  }
  stats.touched += touched_total;
  stats.members += members;
  stats.groups_transposed += transposed;
  stats.groups_scattered += scattered;
}

/// Shared front half of every entry point: validates and runs the IC
/// traversal, leaving the lanes in scratch.visited for transpose_groups.
FusedTraversalStats run_fused_traversal(const CSRGraph& reverse,
                                        DiffusionModel model,
                                        std::uint64_t base_seed,
                                        std::uint64_t block,
                                        unsigned lane_begin, unsigned lane_end,
                                        FusedScratch& scratch) {
  EIMM_CHECK(model == DiffusionModel::kIndependentCascade,
             "fused sampling serves IC only; LT runs the scalar sampler");
  EIMM_CHECK(reverse.has_weights(), "reverse graph needs diffusion weights");
  EIMM_CHECK(reverse.num_vertices() > 0, "empty graph");
  EIMM_CHECK(lane_begin < lane_end && lane_end <= kFusedLanes,
             "invalid fused lane window");

  scratch.queue.clear();
  draw_roots(reverse, base_seed, block, lane_begin, lane_end, scratch);

  // The mask stream lives in its own split domain and is salted with
  // (block, lane_begin): two traversals over different lane windows of
  // the same block (a martingale round split) never share mask draws.
  Xoshiro256 mask_rng = rng_stream(rng_split(base_seed, rng_domain::kFusedMask),
                                   block * kFusedLanes + lane_begin);
  FusedTraversalStats stats;
  stats.lanes = lane_end - lane_begin;
  traverse_ic(reverse, mask_rng, scratch, stats);
  return stats;
}

/// Calls emit(l, j, word) for every nonzero transposed lane word — lane
/// l's members in vertex group j — in ascending group order, clearing
/// the lane words and the touched bitmap on the way back to all-zero.
template <typename Emit>
void drain_lane_words(FusedScratch& scratch, Emit&& emit) {
  std::uint64_t* const touched = scratch.touched.data();
  const std::size_t groups = scratch.touched.size();
  for (std::size_t j = 0; j < groups; ++j) {
    std::uint64_t lanes = touched[j];
    if (lanes == 0) continue;
    touched[j] = 0;
    std::uint64_t* const group = scratch.visited.data() + (j << 6);
    for (; lanes != 0; lanes &= lanes - 1) {
      const auto l = static_cast<unsigned>(std::countr_zero(lanes));
      emit(l, j, group[l]);
      group[l] = 0;
    }
  }
}

/// The vertex ids a lane word of group j names, in ascending order.
template <typename Out>
void expand_lane_word(std::size_t j, std::uint64_t word, Out&& out) {
  for (; word != 0; word &= word - 1) {
    out(static_cast<VertexId>((j << 6) | std::countr_zero(word)));
  }
}

/// Both sample_rrr_fused_into overloads: one traversal whose lanes are
/// written straight into `arena`, crediting base counts via `credit`.
template <typename Credit>
FusedTraversalStats sample_into_arena(
    const CSRGraph& reverse, DiffusionModel model, std::uint64_t base_seed,
    std::uint64_t block, unsigned lane_begin, unsigned lane_end,
    FusedScratch& scratch, ShardArena& arena, ShardArena::Ref* refs_out,
    std::size_t bitmap_min, Credit&& credit) {
  FusedTraversalStats stats = run_fused_traversal(
      reverse, model, base_seed, block, lane_begin, lane_end, scratch);
  // The lane sizes come back with the transpose, so each lane's slot is
  // allocated exactly-sized before a single member is written.
  std::array<std::uint32_t, kFusedLanes> counts;
  transpose_groups(scratch, stats, counts, credit);
  const std::size_t bitmap_words = words_for_bits(reverse.num_vertices());
  std::uint64_t bitmap_lanes = 0;
  std::array<VertexId*, kFusedLanes> dest{};
  std::array<std::uint64_t*, kFusedLanes> bits{};
  for (unsigned l = lane_begin; l < lane_end; ++l) {
    if (counts[l] >= bitmap_min) {
      std::span<std::uint64_t> words;
      refs_out[l - lane_begin] =
          arena.allocate_bitmap(bitmap_words, counts[l], words);
      bits[l] = words.data();
      bitmap_lanes |= std::uint64_t{1} << l;
    } else {
      std::span<VertexId> run;
      refs_out[l - lane_begin] = arena.allocate(counts[l], run);
      dest[l] = run.data();
    }
  }

  // A lane word is one bitmap word as it stands; a run lane expands it
  // (ascending, since groups drain in order).
  drain_lane_words(scratch, [&](unsigned l, std::size_t j, std::uint64_t word) {
    if (((bitmap_lanes >> l) & 1) != 0) {
      bits[l][j] = word;
    } else {
      expand_lane_word(j, word, [&](VertexId v) { *dest[l]++ = v; });
    }
  });
  return stats;
}

}  // namespace

FusedTraversalStats sample_rrr_fused(const CSRGraph& reverse,
                                     DiffusionModel model,
                                     std::uint64_t base_seed,
                                     std::uint64_t block, unsigned lane_begin,
                                     unsigned lane_end,
                                     FusedScratch& scratch) {
  FusedTraversalStats stats = run_fused_traversal(
      reverse, model, base_seed, block, lane_begin, lane_end, scratch);
  std::array<std::uint32_t, kFusedLanes> counts;
  transpose_groups(scratch, stats, counts, [](VertexId, unsigned) {});
  for (unsigned l = lane_begin; l < lane_end; ++l) {
    scratch.members[l].clear();
    scratch.members[l].reserve(counts[l]);
  }
  drain_lane_words(scratch, [&](unsigned l, std::size_t j, std::uint64_t word) {
    expand_lane_word(j, word,
                     [&](VertexId v) { scratch.members[l].push_back(v); });
  });
  return stats;
}

FusedTraversalStats sample_rrr_fused_into(
    const CSRGraph& reverse, DiffusionModel model, std::uint64_t base_seed,
    std::uint64_t block, unsigned lane_begin, unsigned lane_end,
    FusedScratch& scratch, ShardArena& arena, ShardArena::Ref* refs_out,
    std::size_t bitmap_min, CounterArray* counters) {
  return sample_into_arena(
      reverse, model, base_seed, block, lane_begin, lane_end, scratch, arena,
      refs_out, bitmap_min, [counters](VertexId v, unsigned lanes) {
        if (counters != nullptr) counters->add(v, lanes);
      });
}

FusedTraversalStats sample_rrr_fused_into(
    const CSRGraph& reverse, DiffusionModel model, std::uint64_t base_seed,
    std::uint64_t block, unsigned lane_begin, unsigned lane_end,
    FusedScratch& scratch, ShardArena& arena, ShardArena::Ref* refs_out,
    std::size_t bitmap_min, CounterTally& tally) {
  return sample_into_arena(
      reverse, model, base_seed, block, lane_begin, lane_end, scratch, arena,
      refs_out, bitmap_min,
      [&tally](VertexId v, unsigned lanes) { tally.add(v, lanes); });
}

}  // namespace eimm
