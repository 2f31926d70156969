#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"

namespace gputc {
namespace {

Graph Triangle() {
  EdgeList list;
  list.Add(0, 1);
  list.Add(1, 2);
  list.Add(0, 2);
  return Graph::FromEdgeList(std::move(list));
}

TEST(GraphTest, EmptyGraph) {
  const Graph g = Graph::FromEdgeList(EdgeList{});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.MaxDegree(), 0);
  EXPECT_EQ(g.AverageDegree(), 0.0);
}

TEST(GraphTest, TriangleBasics) {
  const Graph g = Triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0);
}

TEST(GraphTest, AdjacencyIsSorted) {
  EdgeList list;
  list.Add(0, 5);
  list.Add(0, 2);
  list.Add(0, 9);
  list.Add(0, 1);
  const Graph g = Graph::FromEdgeList(std::move(list));
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));

  // Shuffled, mixed-orientation input in which vertex 5 has both smaller
  // and larger neighbors: every row must still come out sorted.
  EdgeList mixed;
  mixed.Add(9, 5);
  mixed.Add(5, 2);
  mixed.Add(3, 8);
  mixed.Add(7, 5);
  mixed.Add(0, 5);
  mixed.Add(8, 0);
  mixed.Add(5, 3);
  mixed.Add(2, 9);
  const Graph h = Graph::FromEdgeList(std::move(mixed));
  const auto five = h.neighbors(5);
  EXPECT_EQ(std::vector<VertexId>(five.begin(), five.end()),
            (std::vector<VertexId>{0, 2, 3, 7, 9}));
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    const auto row = h.neighbors(v);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << "row " << v;
  }
}

TEST(GraphTest, HasEdgeOutOfRangeIsFalse) {
  const Graph g = Triangle();
  EXPECT_FALSE(g.HasEdge(0, 99));
  EXPECT_FALSE(g.HasEdge(99, 0));
}

TEST(GraphTest, ToEdgeListRoundTrip) {
  const Graph g = GenerateErdosRenyi(100, 300, /*seed=*/5);
  const Graph h = Graph::FromEdgeList(g.ToEdgeList());
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.degree(v), h.degree(v));
  }
}

TEST(GraphTest, IsolatedVerticesPreserved) {
  EdgeList list;
  list.Add(0, 1);
  list.set_num_vertices(5);
  const Graph g = Graph::FromEdgeList(std::move(list));
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.degree(4), 0);
  EXPECT_TRUE(g.neighbors(4).empty());
}

TEST(GraphTest, MaxDegreeOfStar) {
  const Graph g = StarGraph(10);
  EXPECT_EQ(g.MaxDegree(), 9);
  EXPECT_EQ(g.degree(0), 9);
  EXPECT_EQ(g.degree(5), 1);
}

TEST(GraphTest, CsrOffsetsConsistent) {
  const Graph g = GenerateErdosRenyi(50, 120, /*seed=*/3);
  EXPECT_EQ(g.offsets().size(), 51u);
  EXPECT_EQ(g.offsets().front(), 0);
  EXPECT_EQ(g.offsets().back(), 2 * g.num_edges());
  EXPECT_TRUE(std::is_sorted(g.offsets().begin(), g.offsets().end()));
}

}  // namespace
}  // namespace gputc
