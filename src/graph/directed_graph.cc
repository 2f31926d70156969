#include "graph/directed_graph.h"

#include <algorithm>

#include "graph/permutation.h"
#include "util/logging.h"

namespace gputc {

namespace {

/// Edge {u, v} points u -> v. Ties in rank are broken by vertex id so the
/// order is strict and the orientation acyclic even if a caller passes
/// duplicate ranks. Bitwise, so that counting out-degrees does not branch
/// on what is a coin flip to the predictor.
bool PointsOut(const std::vector<VertexId>& rank, VertexId u, VertexId v) {
  return (rank[u] < rank[v]) | ((rank[u] == rank[v]) & (u < v));
}

}  // namespace

std::vector<EdgeCount> DirectedGraph::OutDegreesFromRank(
    const Graph& g, const std::vector<VertexId>& rank) {
  GPUTC_CHECK_EQ(rank.size(), static_cast<size_t>(g.num_vertices()));
  std::vector<EdgeCount> out_degrees(g.num_vertices(), 0);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      out_degrees[u] += PointsOut(rank, u, v);
    }
  }
  return out_degrees;
}

DirectedGraph DirectedGraph::FromRank(const Graph& g,
                                      const std::vector<VertexId>& rank) {
  return FromRank(g, rank, OutDegreesFromRank(g, rank),
                  IdentityPermutation(g.num_vertices()));
}

DirectedGraph DirectedGraph::FromRank(const Graph& g,
                                      const std::vector<VertexId>& rank,
                                      std::vector<EdgeCount> out_degrees,
                                      const std::vector<VertexId>& perm) {
  const VertexId n = g.num_vertices();
  GPUTC_CHECK_EQ(rank.size(), static_cast<size_t>(n));
  GPUTC_CHECK_EQ(out_degrees.size(), static_cast<size_t>(n));
  GPUTC_CHECK_EQ(perm.size(), static_cast<size_t>(n));
  DirectedGraph d;
  d.num_edges_ = g.num_edges();
  d.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u) d.offsets_[perm[u] + 1] = out_degrees[u];
  out_degrees = {};
  for (size_t i = 1; i < d.offsets_.size(); ++i) {
    d.offsets_[i] += d.offsets_[i - 1];
  }
  GPUTC_CHECK_EQ(d.offsets_.back(), g.num_edges());
  d.adj_.resize(static_cast<size_t>(g.num_edges()));
  {
    // Walk targets in new-id order: arc u -> v lands in row perm[u] as
    // perm[v], so every row fills in ascending order. offsets_[r] serves as
    // row r's fill cursor and ends at row r's end, i.e. offsets_[r + 1].
    const Permutation inverse = InversePermutation(perm);
    for (VertexId j = 0; j < n; ++j) {
      const VertexId v = inverse[j];
      for (VertexId u : g.neighbors(v)) {
        if (PointsOut(rank, u, v)) {
          d.adj_[static_cast<size_t>(d.offsets_[perm[u]]++)] = j;
        }
      }
    }
  }
  std::move_backward(d.offsets_.begin(), d.offsets_.end() - 1,
                     d.offsets_.end());
  d.offsets_.front() = 0;
  return d;
}

DirectedGraph DirectedGraph::FromParts(std::vector<EdgeCount> offsets,
                                       std::vector<VertexId> adj) {
  GPUTC_CHECK(!offsets.empty());
  GPUTC_CHECK_EQ(offsets.front(), 0);
  GPUTC_CHECK_EQ(offsets.back(), static_cast<EdgeCount>(adj.size()));
  DirectedGraph d;
  d.num_edges_ = static_cast<EdgeCount>(adj.size());
  d.offsets_ = std::move(offsets);
  d.adj_ = std::move(adj);
  return d;
}

bool DirectedGraph::HasArc(VertexId u, VertexId v) const {
  const auto nbrs = out_neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double DirectedGraph::AverageOutDegree() const {
  if (num_vertices() == 0) return 0.0;
  return static_cast<double>(num_edges_) / static_cast<double>(num_vertices());
}

EdgeCount DirectedGraph::MaxOutDegree() const {
  EdgeCount max_d = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    max_d = std::max(max_d, out_degree(v));
  }
  return max_d;
}

std::vector<EdgeCount> DirectedGraph::OutDegrees() const {
  std::vector<EdgeCount> degs(num_vertices());
  for (VertexId v = 0; v < num_vertices(); ++v) degs[v] = out_degree(v);
  return degs;
}

}  // namespace gputc
