#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/edge_list.h"
#include "util/random.h"

namespace gputc {
namespace {

TEST(EdgeListTest, AddGrowsVertexUniverse) {
  EdgeList list;
  list.Add(3, 7);
  EXPECT_EQ(list.num_vertices(), 8u);
  EXPECT_EQ(list.num_edges(), 1);
}

TEST(EdgeListTest, NormalizeRemovesSelfLoops) {
  EdgeList list;
  list.Add(1, 1);
  list.Add(0, 2);
  list.Normalize();
  EXPECT_EQ(list.num_edges(), 1);
  EXPECT_EQ(list.edges()[0], (Edge{0, 2}));
}

TEST(EdgeListTest, NormalizeDeduplicatesBothOrders) {
  EdgeList list;
  list.Add(2, 5);
  list.Add(5, 2);
  list.Add(2, 5);
  list.Normalize();
  EXPECT_EQ(list.num_edges(), 1);
  EXPECT_TRUE(list.IsNormalized());
}

TEST(EdgeListTest, NormalizeSorts) {
  EdgeList list;
  list.Add(4, 1);
  list.Add(0, 3);
  list.Add(2, 1);
  list.Normalize();
  ASSERT_EQ(list.num_edges(), 3);
  EXPECT_EQ(list.edges()[0], (Edge{0, 3}));
  EXPECT_EQ(list.edges()[1], (Edge{1, 2}));
  EXPECT_EQ(list.edges()[2], (Edge{1, 4}));
}

TEST(EdgeListTest, NormalizeIsIdempotent) {
  EdgeList list;
  list.Add(4, 1);
  list.Add(1, 4);
  list.Normalize();
  const auto first = list.edges();
  list.Normalize();
  EXPECT_EQ(list.edges(), first);
}

TEST(EdgeListTest, IsNormalizedDetectsViolations) {
  EdgeList unsorted;
  unsorted.Add(1, 2);
  unsorted.Add(0, 1);
  EXPECT_FALSE(unsorted.IsNormalized());

  EdgeList reversed;
  reversed.Add(2, 1);
  EXPECT_FALSE(reversed.IsNormalized());

  EdgeList good;
  good.Add(0, 1);
  good.Add(1, 2);
  EXPECT_TRUE(good.IsNormalized());
}

TEST(EdgeListTest, SetNumVerticesKeepsIsolatedVertices) {
  EdgeList list;
  list.Add(0, 1);
  list.set_num_vertices(10);
  EXPECT_EQ(list.num_vertices(), 10u);
}

/// Reference canonicalization: drop loops, order endpoints, sort, dedupe.
std::vector<Edge> ReferenceNormalize(std::vector<Edge> edges) {
  std::erase_if(edges, [](const Edge& e) { return e.u == e.v; });
  for (Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

TEST(EdgeListTest, NormalizeMatchesSortUniqueReference) {
  Rng rng(/*seed=*/13);
  for (int round = 0; round < 2000; ++round) {
    SCOPED_TRACE(round);
    // Small universes force loops and duplicates in both endpoint orders;
    // the declared universe leaves some vertices isolated.
    const VertexId span = 1 + rng.NextU32(round % 10 == 0 ? 100'000 : 40);
    const VertexId universe = span + rng.NextU32(8);
    const size_t num_edges = round == 0 ? 0 : rng.NextBounded(200);
    std::vector<Edge> edges;
    for (size_t i = 0; i < num_edges; ++i) {
      const VertexId u = rng.NextU32(span);
      edges.push_back({u, rng.NextBounded(8) == 0 ? u : rng.NextU32(span)});
    }
    EdgeList list(universe, edges);
    list.Normalize();
    EXPECT_EQ(list.edges(), ReferenceNormalize(edges));
    EXPECT_EQ(list.num_vertices(), universe);
    EXPECT_TRUE(list.IsNormalized());
  }
}

TEST(EdgeListTest, NormalizeCoversEndpointsBeyondTheUniverse) {
  // The two-argument constructor does not check endpoints against the
  // declared universe; Normalize must still bucket every edge.
  const std::vector<Edge> edges = {{9, 3}, {3, 9}, {7, 7}, {0, 8}, {8, 5}};
  EdgeList list(/*num_vertices=*/2, edges);
  list.Normalize();
  EXPECT_EQ(list.edges(), ReferenceNormalize(edges));
}

TEST(EdgeListDeathTest, SetNumVerticesBelowEndpointAborts) {
  EdgeList list;
  list.Add(0, 5);
  EXPECT_DEATH(list.set_num_vertices(3), "endpoint");
}

}  // namespace
}  // namespace gputc
