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

bool is_field_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Parses the optional weight column of line `lineno` into `out`; leaves
/// `out` alone when the line has no third field. A present field must be
/// one complete, finite, non-negative number — anything else throws
/// CheckError naming the line, since no diffusion model can use it as a
/// probability or threshold weight.
void parse_weight_field(std::string_view sv, std::size_t lineno, float& out) {
  std::size_t i = 0;
  while (i < sv.size() && is_field_space(sv[i])) ++i;
  sv.remove_prefix(i);
  if (sv.empty()) return;
  std::size_t len = 0;
  while (len < sv.size() && !is_field_space(sv[len])) ++len;
  const std::string_view field = sv.substr(0, len);
  auto fail = [&](const char* what) {
    throw CheckError("edge-list line " + std::to_string(lineno) + ": " +
                     what + " weight '" + std::string(field) + "'");
  };
  float w = 0.0f;
  // std::from_chars<float> is available in GCC 12. It accepts "nan" and
  // "inf", and reports overflow as result_out_of_range.
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), w);
  if (ec != std::errc{} || ptr != field.data() + field.size()) {
    fail("malformed");
  }
  if (!std::isfinite(w)) fail("non-finite");
  if (w < 0.0f) fail("negative");
  out = w;
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
    parse_weight_field(sv, lineno, w);
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
