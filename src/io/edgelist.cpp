#include "io/edgelist.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "support/macros.hpp"

namespace eimm {
namespace {

// Trims leading whitespace and parses one unsigned integer field.
// Returns false when the view has no integer at its front.
bool parse_field_u64(std::string_view& sv, std::uint64_t& out) {
  std::size_t i = 0;
  while (i < sv.size() && (sv[i] == ' ' || sv[i] == '\t' || sv[i] == '\r')) ++i;
  sv.remove_prefix(i);
  if (sv.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(sv.data(), sv.data() + sv.size(), out);
  if (ec != std::errc{}) return false;
  sv.remove_prefix(static_cast<std::size_t>(ptr - sv.data()));
  return true;
}

bool parse_field_float(std::string_view& sv, float& out) {
  std::size_t i = 0;
  while (i < sv.size() && (sv[i] == ' ' || sv[i] == '\t' || sv[i] == '\r')) ++i;
  sv.remove_prefix(i);
  if (sv.empty()) return false;
  // std::from_chars<float> is available in GCC 12.
  const auto [ptr, ec] = std::from_chars(sv.data(), sv.data() + sv.size(), out);
  if (ec != std::errc{}) return false;
  sv.remove_prefix(static_cast<std::size_t>(ptr - sv.data()));
  return true;
}

}  // namespace

std::vector<WeightedEdge> read_edge_list(std::istream& is,
                                         const EdgeListParseOptions& options) {
  std::vector<WeightedEdge> edges;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::string_view sv(line);
    // Skip blank lines and comments.
    std::size_t i = 0;
    while (i < sv.size() && (sv[i] == ' ' || sv[i] == '\t' || sv[i] == '\r')) ++i;
    if (i == sv.size() || sv[i] == '#' || sv[i] == '%') continue;
    sv.remove_prefix(i);

    std::uint64_t src = 0, dst = 0;
    EIMM_CHECK(parse_field_u64(sv, src) && parse_field_u64(sv, dst),
               "malformed edge-list line");
    float w = options.default_weight;
    // Optional third column. from_chars accepts "nan" and "inf", which
    // no diffusion model can use as a probability or threshold weight.
    if (parse_field_float(sv, w) && !std::isfinite(w)) {
      throw CheckError("edge-list line " + std::to_string(lineno) +
                       ": non-finite weight");
    }
    if (options.one_based) {
      EIMM_CHECK(src >= 1 && dst >= 1, "one-based file contains id 0");
      --src;
      --dst;
    }
    EIMM_CHECK(src <= kInvalidVertex - 1 && dst <= kInvalidVertex - 1,
               "vertex id exceeds 32-bit range");
    edges.push_back({static_cast<VertexId>(src), static_cast<VertexId>(dst), w});
  }
  return edges;
}

std::vector<WeightedEdge> read_edge_list_file(
    const std::string& path, const EdgeListParseOptions& options) {
  std::ifstream is(path);
  EIMM_CHECK(is.good(), "cannot open edge-list file");
  return read_edge_list(is, options);
}

void write_edge_list(std::ostream& os, const std::vector<WeightedEdge>& edges,
                     bool with_weights) {
  os << "# Directed edge list (EfficientIMM reproduction)\n";
  os << "# Edges: " << edges.size() << "\n";
  for (const auto& e : edges) {
    os << e.src << '\t' << e.dst;
    if (with_weights) os << '\t' << e.weight;
    os << '\n';
  }
}

}  // namespace eimm
