#include "rrr/generate.hpp"

#include "runtime/rng_stream.hpp"
#include "support/macros.hpp"

namespace eimm {

std::uint64_t sample_rrr_into(const CSRGraph& reverse, DiffusionModel model,
                              std::uint64_t base_seed, std::uint64_t index,
                              SamplerScratch& scratch) {
  EIMM_CHECK(reverse.has_weights(), "reverse graph needs diffusion weights");
  EIMM_CHECK(reverse.num_vertices() > 0, "empty graph");
  // Per-index stream via the audited runtime/rng_stream seam —
  // bit-compatible with the historical Xoshiro256::for_stream seeding.
  Xoshiro256 rng = rng_stream(base_seed, index);
  const auto root =
      static_cast<VertexId>(rng.next_bounded(reverse.num_vertices()));
  if (model == DiffusionModel::kLinearThreshold) {
    return sample_rrr_lt(reverse, root, rng, scratch);
  }
  return sample_rrr_ic(reverse, root, rng, scratch);
}

std::vector<VertexId> sample_rrr(const CSRGraph& reverse, DiffusionModel model,
                                 std::uint64_t base_seed, std::uint64_t index,
                                 SamplerScratch& scratch) {
  sample_rrr_into(reverse, model, base_seed, index, scratch);
  return scratch.members;
}

}  // namespace eimm
