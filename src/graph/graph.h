#ifndef GPUTC_GRAPH_GRAPH_H_
#define GPUTC_GRAPH_GRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"
#include "util/status.h"

namespace gputc {

/// The CSR section CRC32Cs of a Graph: Crc32c over offsets() and over
/// adjacency(), the same values the v2 binary format frames the sections
/// with. Two graphs with equal counts and equal digests are, short of a
/// CRC collision, the same CSR; the prep cache keys artifacts by it.
struct GraphDigest {
  uint32_t offsets_crc = 0;
  uint32_t adj_crc = 0;

  bool operator==(const GraphDigest&) const = default;
};

/// The digest of CSR arrays: one CRC32C pass over each.
GraphDigest DigestCsr(std::span<const EdgeCount> offsets,
                      std::span<const VertexId> adj);

/// Immutable undirected graph in CSR form.
///
/// Adjacency lists are sorted by neighbor id and contain each neighbor once
/// (simple graph: no self loops, no multi-edges). num_edges() counts each
/// undirected edge once; the CSR stores both endpoints, so the adjacency
/// array has 2 * num_edges() entries.
///
/// Every Graph is canonical and digested by construction: FromEdgeList
/// normalizes its input, FromCsr and LoadBinary refuse a CSR that fails the
/// structural and canonical checks, so no unchecked CSR becomes a Graph.
/// Each path sets digest() once, and nothing mutates the arrays after, so
/// consumers neither re-validate the CSR nor re-CRC it.
class Graph {
 public:
  /// The empty graph: no vertices, offsets {0}.
  Graph();

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

  /// DigestCsr(offsets(), adjacency()), computed when the graph was built;
  /// reading it costs nothing.
  const GraphDigest& digest() const { return digest_; }

 private:
  /// LoadBinary adopts the section CRCs it has just verified.
  friend StatusOr<Graph> LoadBinary(const std::string& path);

  /// FromCsr's checks, then adoption. `verified` is the arrays' digest when
  /// the caller has already checked it against them; otherwise it is
  /// computed here.
  static StatusOr<Graph> AdoptCsr(std::vector<EdgeCount> offsets,
                                  std::vector<VertexId> adj,
                                  std::optional<GraphDigest> verified);

  EdgeCount num_edges_ = 0;
  std::vector<EdgeCount> offsets_ = {0};
  std::vector<VertexId> adj_;
  GraphDigest digest_;
};

}  // namespace gputc

#endif  // GPUTC_GRAPH_GRAPH_H_
