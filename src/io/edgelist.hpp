// SNAP-format edge-list I/O.
//
// SNAP files are whitespace-separated "src dst" (optionally "src dst w")
// lines with '#' comment lines. The paper's datasets all use this format;
// users pointing the library at a real SNAP download go through here.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace eimm {

struct EdgeListParseOptions {
  /// Subtract 1 from every vertex id (for 1-based files).
  bool one_based = false;
  /// Default weight when a line has no third column.
  float default_weight = 1.0f;
};

/// Parses an edge-list stream. Throws CheckError on malformed lines; a
/// weight column that is present must be one complete, finite,
/// non-negative number, or the message names its line number. Fields
/// after the weight are ignored.
std::vector<WeightedEdge> read_edge_list(std::istream& is,
                                         const EdgeListParseOptions& options = {});

/// Parses an edge-list file by path.
std::vector<WeightedEdge> read_edge_list_file(const std::string& path,
                                              const EdgeListParseOptions& options = {});

/// Writes edges as "src dst weight" lines with a SNAP-style header comment.
void write_edge_list(std::ostream& os, const std::vector<WeightedEdge>& edges,
                     bool with_weights = true);

}  // namespace eimm
