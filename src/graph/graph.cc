#include "graph/graph.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "graph/validate.h"
#include "util/durable_file.h"
#include "util/logging.h"

namespace gputc {

GraphDigest DigestCsr(std::span<const EdgeCount> offsets,
                      std::span<const VertexId> adj) {
  return {Crc32c(offsets.data(), offsets.size_bytes()),
          Crc32c(adj.data(), adj.size_bytes())};
}

Graph::Graph() : digest_(DigestCsr(offsets_, adj_)) {}

Graph Graph::FromEdgeList(EdgeList edges) {
  edges.Normalize();
  Graph g;
  const VertexId n = edges.num_vertices();
  g.num_edges_ = edges.num_edges();
  g.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges.edges()) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.adj_.resize(static_cast<size_t>(2) * static_cast<size_t>(g.num_edges_));
  std::vector<EdgeCount> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges.edges()) {
    g.adj_[static_cast<size_t>(cursor[e.u]++)] = e.v;
    g.adj_[static_cast<size_t>(cursor[e.v]++)] = e.u;
  }
  // No per-row sort is needed: normalized input is sorted by (u, v) with
  // u < v, so row x first receives its smaller neighbors u (from edges
  // (u, x), all of which precede the edges (x, v)) in ascending order, then
  // its larger neighbors v in ascending order.
  g.digest_ = DigestCsr(g.offsets_, g.adj_);
  return g;
}

StatusOr<Graph> Graph::FromCsr(std::vector<EdgeCount> offsets,
                               std::vector<VertexId> adj) {
  return AdoptCsr(std::move(offsets), std::move(adj), std::nullopt);
}

StatusOr<Graph> Graph::AdoptCsr(std::vector<EdgeCount> offsets,
                                std::vector<VertexId> adj,
                                std::optional<GraphDigest> verified) {
  const uint64_t n = offsets.empty() ? 0 : offsets.size() - 1;
  GPUTC_RETURN_IF_ERROR(
      GraphDoctor::CheckCsr(n, adj.size() / 2, offsets, adj));
  if (const std::optional<Finding> defect =
          GraphDoctor::FindNonCanonical(offsets, adj)) {
    const bool repairable = FindingIsRepairable(defect->kind);
    return DataLossError(
        std::string("adjacency is not canonical (") +
        FindingKindName(defect->kind) + ": " + defect->detail + "); " +
        (repairable ? "run 'gputc doctor --repair' to fix"
                    : "'gputc doctor --repair' cannot fix it"));
  }
  Graph g;
  g.num_edges_ = static_cast<EdgeCount>(adj.size() / 2);
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  g.digest_ = verified ? *verified : DigestCsr(g.offsets_, g.adj_);
  return g;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double Graph::AverageDegree() const {
  if (num_vertices() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges_) /
         static_cast<double>(num_vertices());
}

EdgeCount Graph::MaxDegree() const {
  EdgeCount max_d = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    max_d = std::max(max_d, degree(v));
  }
  return max_d;
}

EdgeList Graph::ToEdgeList() const {
  EdgeList list(num_vertices());
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (VertexId v : neighbors(u)) {
      if (u < v) list.Add(u, v);
    }
  }
  return list;
}

}  // namespace gputc
