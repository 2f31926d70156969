#ifndef GPUTC_GRAPH_GRAPH_H_
#define GPUTC_GRAPH_GRAPH_H_

#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"
#include "util/status.h"

namespace gputc {

/// Immutable undirected graph in CSR form.
///
/// Adjacency lists are sorted by neighbor id and contain each neighbor once
/// (simple graph: no self loops, no multi-edges). num_edges() counts each
/// undirected edge once; the CSR stores both endpoints, so the adjacency
/// array has 2 * num_edges() entries.
class Graph {
 public:
  Graph() = default;

  /// Builds the CSR from an edge list. The list is normalized internally;
  /// callers may pass raw generator output.
  static Graph FromEdgeList(EdgeList edges);

  /// Adopts CSR arrays as they are (n = offsets.size() - 1, m =
  /// adj.size() / 2), without a rebuild. The arrays must pass
  /// GraphDoctor::CheckCsr and GraphDoctor::FindNonCanonical, which this
  /// runs, so no unchecked CSR becomes a Graph. kDataLoss otherwise.
  static StatusOr<Graph> FromCsr(std::vector<EdgeCount> offsets,
                                 std::vector<VertexId> adj);

  VertexId num_vertices() const {
    return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  EdgeCount num_edges() const { return num_edges_; }

  EdgeCount degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {adj_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  /// True if (u, v) is an edge; binary search over the smaller endpoint list.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Average degree 2|E|/|V|; this equals twice the paper's d~_avg = |E|/|V|.
  double AverageDegree() const;

  /// Maximum vertex degree (0 for an empty graph).
  EdgeCount MaxDegree() const;

  /// Recovers a normalized edge list (u < v per edge), e.g. for relabeling.
  EdgeList ToEdgeList() const;

  const std::vector<EdgeCount>& offsets() const { return offsets_; }
  const std::vector<VertexId>& adjacency() const { return adj_; }

 private:
  EdgeCount num_edges_ = 0;
  std::vector<EdgeCount> offsets_ = {0};
  std::vector<VertexId> adj_;
};

}  // namespace gputc

#endif  // GPUTC_GRAPH_GRAPH_H_
