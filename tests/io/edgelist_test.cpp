#include "io/edgelist.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "support/macros.hpp"

namespace eimm {
namespace {

TEST(EdgeList, ParsesBasicLines) {
  std::istringstream is("0 1\n1 2\n");
  const auto edges = read_edge_list(is);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].src, 0u);
  EXPECT_EQ(edges[0].dst, 1u);
  EXPECT_FLOAT_EQ(edges[0].weight, 1.0f);
}

TEST(EdgeList, SkipsCommentsAndBlankLines) {
  std::istringstream is(
      "# SNAP header\n"
      "% matrix-market style comment\n"
      "\n"
      "   \n"
      "3 4\n");
  const auto edges = read_edge_list(is);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].src, 3u);
}

TEST(EdgeList, ParsesTabsAndExtraSpaces) {
  std::istringstream is("0\t1\n  2   3 \n");
  const auto edges = read_edge_list(is);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[1].src, 2u);
  EXPECT_EQ(edges[1].dst, 3u);
}

TEST(EdgeList, ParsesWeightColumn) {
  std::istringstream is("0 1 0.25\n1 2\n");
  EdgeListParseOptions opts;
  opts.default_weight = 0.5f;
  const auto edges = read_edge_list(is, opts);
  EXPECT_FLOAT_EQ(edges[0].weight, 0.25f);
  EXPECT_FLOAT_EQ(edges[1].weight, 0.5f);
}

TEST(EdgeList, OneBasedConversion) {
  std::istringstream is("1 2\n5 3\n");
  EdgeListParseOptions opts;
  opts.one_based = true;
  const auto edges = read_edge_list(is, opts);
  EXPECT_EQ(edges[0].src, 0u);
  EXPECT_EQ(edges[0].dst, 1u);
  EXPECT_EQ(edges[1].src, 4u);
}

TEST(EdgeList, OneBasedRejectsZero) {
  std::istringstream is("0 2\n");
  EdgeListParseOptions opts;
  opts.one_based = true;
  EXPECT_THROW(read_edge_list(is, opts), CheckError);
}

TEST(EdgeList, MalformedLineThrows) {
  std::istringstream is("0\n");
  EXPECT_THROW(read_edge_list(is), CheckError);
  std::istringstream is2("a b\n");
  EXPECT_THROW(read_edge_list(is2), CheckError);
}

TEST(EdgeList, NonFiniteWeightThrowsWithLineNumber) {
  // from_chars parses "nan" and "inf"; the reader must stop them before
  // a sampler reads them as probabilities.
  for (const char* weight : {"nan", "inf", "-inf", "NaN", "INF"}) {
    std::istringstream is(std::string("# header\n0 1 0.5\n\n2 3 ") + weight +
                          "\n4 5 0.25\n");
    try {
      (void)read_edge_list(is);
      ADD_FAILURE() << "accepted weight " << weight;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << e.what();
    }
  }
  // Finite extremes stay accepted.
  std::istringstream ok("0 1 0\n1 2 1e-30\n2 3 3.4e38\n");
  EXPECT_EQ(read_edge_list(ok).size(), 3u);
}

TEST(EdgeList, MalformedWeightThrowsWithLineNumber) {
  // Garbage, overflow, trailing text and negative weights are no usable
  // probability or threshold: each must fail naming its line, never
  // load as the default weight, a truncated number or a negative one.
  for (const char* weight :
       {"abc", "1e999", "-1e999", "0.5x", "0.5.5", "-3", "-0.25"}) {
    std::istringstream is(std::string("# header\n0 1 0.5\n\n2 3 ") + weight +
                          "\n4 5 0.25\n");
    try {
      (void)read_edge_list(is);
      ADD_FAILURE() << "accepted weight " << weight;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << e.what();
    }
  }
  // Finite non-negative weights, with fields after them ignored.
  std::istringstream ok("0 1 0\n1 2 1e-30\n2 3 3.4e38\n3 4 0.5 1700\n");
  const auto edges = read_edge_list(ok);
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_FLOAT_EQ(edges[0].weight, 0.0f);
  EXPECT_FLOAT_EQ(edges[2].weight, 3.4e38f);
  EXPECT_FLOAT_EQ(edges[3].weight, 0.5f);
}

TEST(EdgeList, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/path/graph.txt"),
               CheckError);
}

TEST(EdgeList, WriteReadRoundTrip) {
  const std::vector<WeightedEdge> original = {
      {0, 1, 0.5f}, {2, 3, 0.75f}, {4, 0, 1.0f}};
  std::ostringstream os;
  write_edge_list(os, original);
  std::istringstream is(os.str());
  const auto parsed = read_edge_list(is);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].src, original[i].src);
    EXPECT_EQ(parsed[i].dst, original[i].dst);
    EXPECT_FLOAT_EQ(parsed[i].weight, original[i].weight);
  }
}

TEST(EdgeList, WriteWithoutWeights) {
  std::ostringstream os;
  write_edge_list(os, {{7, 8, 0.1f}}, /*with_weights=*/false);
  EXPECT_NE(os.str().find("7\t8\n"), std::string::npos);
}

TEST(EdgeList, EmptyStream) {
  std::istringstream is("");
  EXPECT_TRUE(read_edge_list(is).empty());
}

}  // namespace
}  // namespace eimm
