// Shared helpers for the test suites: small deterministic graphs with
// diffusion weights, pool-building shortcuts, and environment scoping.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <streambuf>
#include <string>
#include <vector>

#include "diffusion/weights.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "rrr/generate.hpp"
#include "rrr/pool.hpp"

namespace eimm::testing {

/// Serves fixed bytes through a streambuf that cannot seek (the base
/// class's seekoff/seekpos fail), so it cannot report its size either —
/// a pipe, as far as a reader can tell.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }
  [[nodiscard]] std::size_t served() const {
    return static_cast<std::size_t>(gptr() - eback());
  }

 private:
  std::string data_;
};

/// Scoped environment override that restores the previous value on
/// destruction. Pass nullptr to unset the variable for the scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* previous = std::getenv(name);
    if (previous != nullptr) previous_ = previous;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (previous_.has_value()) {
      ::setenv(name_.c_str(), previous_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> previous_;
};

/// Builds a DiffusionGraph from explicit edges.
inline DiffusionGraph make_graph(std::vector<WeightedEdge> edges,
                                 VertexId n = 0) {
  return build_diffusion_graph(std::move(edges), n);
}

/// DiffusionGraph with paper weights for `model` already assigned.
inline DiffusionGraph make_weighted_graph(std::vector<WeightedEdge> edges,
                                          DiffusionModel model,
                                          std::uint64_t seed = 7,
                                          VertexId n = 0) {
  DiffusionGraph g = make_graph(std::move(edges), n);
  assign_paper_weights(g.reverse, model, seed);
  mirror_weights_to_forward(g.reverse, g.forward);
  return g;
}

/// Sets every weight on both orientations to `p` (deterministic graphs
/// where p=1 makes sampling exhaustive and p=0 trivial).
inline void set_uniform_probability(DiffusionGraph& g, float p) {
  g.reverse.ensure_weights(p);
  g.forward.ensure_weights(p);
  for (VertexId v = 0; v < g.reverse.num_vertices(); ++v) {
    for (float& w : g.reverse.mutable_weights(v)) w = p;
    for (float& w : g.forward.mutable_weights(v)) w = p;
  }
}

/// Builds a pool from explicit vertex lists (vector representation).
inline RRRPool make_pool(VertexId n,
                         const std::vector<std::vector<VertexId>>& sets) {
  RRRPool pool(n);
  pool.resize(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    pool[i] = RRRSet::make_vector(sets[i]);
  }
  return pool;
}

/// Samples `count` RRR sets into a pool (serial, deterministic).
inline RRRPool sample_pool(const DiffusionGraph& g, DiffusionModel model,
                           std::size_t count, std::uint64_t seed,
                           bool adaptive = false) {
  RRRPool pool(g.num_vertices());
  pool.resize(count);
  SamplerScratch scratch(g.num_vertices());
  for (std::size_t i = 0; i < count; ++i) {
    auto verts = sample_rrr(g.reverse, model, seed, i, scratch);
    pool[i] = adaptive ? RRRSet::make_adaptive(std::move(verts),
                                               g.num_vertices())
                       : RRRSet::make_vector(std::move(verts));
  }
  return pool;
}

}  // namespace eimm::testing
