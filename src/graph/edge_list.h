#ifndef GPUTC_GRAPH_EDGE_LIST_H_
#define GPUTC_GRAPH_EDGE_LIST_H_

#include <vector>

#include "graph/types.h"

namespace gputc {

/// Mutable list of undirected edges; the staging format every generator and
/// loader produces before a CSR Graph is built.
///
/// An EdgeList may temporarily contain self loops, duplicates, and edges in
/// either endpoint order; Normalize() canonicalizes it. num_vertices is the
/// declared vertex-universe size and may exceed the largest endpoint (dense
/// ids are required, isolated vertices are allowed).
class EdgeList {
 public:
  EdgeList() = default;
  explicit EdgeList(VertexId num_vertices) : num_vertices_(num_vertices) {}
  EdgeList(VertexId num_vertices, std::vector<Edge> edges)
      : num_vertices_(num_vertices), edges_(std::move(edges)) {}

  /// Appends edge (u, v). Grows the vertex universe if needed.
  void Add(VertexId u, VertexId v);

  /// Removes self loops, orders endpoints as u < v, sorts, and deduplicates.
  /// Idempotent, and O(m) when the list is already canonical. Otherwise a
  /// counting sort in O(m + n): histogram the non-loop edges on both
  /// endpoints and prefix-sum the counts into bucket starts, bucket each
  /// smaller endpoint under its larger one, then walk those buckets in
  /// order and scatter every edge into its smaller endpoint's row, which
  /// leaves each row sorted; adjacent duplicates are dropped last. The
  /// temporaries (4 bytes per edge plus 16 per vertex) are freed before it
  /// returns, so Graph::FromEdgeList's peak memory does not rise.
  void Normalize();

  /// True if Normalize() would be a no-op (canonical form).
  bool IsNormalized() const;

  VertexId num_vertices() const { return num_vertices_; }
  void set_num_vertices(VertexId n);
  EdgeCount num_edges() const { return static_cast<EdgeCount>(edges_.size()); }

  const std::vector<Edge>& edges() const { return edges_; }
  std::vector<Edge>& mutable_edges() { return edges_; }

 private:
  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace gputc

#endif  // GPUTC_GRAPH_EDGE_LIST_H_
