#include "graph/edge_list.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/logging.h"

namespace gputc {

void EdgeList::Add(VertexId u, VertexId v) {
  edges_.push_back(Edge{u, v});
  const VertexId hi = std::max(u, v);
  if (hi >= num_vertices_) num_vertices_ = hi + 1;
}

void EdgeList::Normalize() {
  if (IsNormalized()) return;  // Canonical already, e.g. a lifted CSR.
  // Two stable counting-sort passes, one per endpoint (LSD radix), order
  // the non-loop edges by (smaller, larger) endpoint; a last pass drops
  // duplicates. The histograms are sized by the largest endpoint present,
  // so edges placed beyond num_vertices_ are still bucketed safely.
  VertexId max_id = 0;
  for (const Edge& e : edges_) max_id = std::max({max_id, e.u, e.v});
  const size_t n = static_cast<size_t>(max_id) + 1;
  // After the prefix sums, hi_end[x] (lo_end[x]) is where the bucket of
  // edges whose larger (smaller) endpoint is x starts; a scatter advances
  // it, so each ends as its bucket's end.
  std::vector<size_t> hi_end(n + 1, 0);
  std::vector<size_t> lo_end(n + 1, 0);
  for (const Edge& e : edges_) {
    if (e.u == e.v) continue;
    const auto [lo, hi] = std::minmax(e.u, e.v);
    ++hi_end[hi + size_t{1}];
    ++lo_end[lo + size_t{1}];
  }
  for (size_t x = 1; x <= n; ++x) {
    hi_end[x] += hi_end[x - 1];
    lo_end[x] += lo_end[x - 1];
  }
  // Pass 1: bucket each smaller endpoint under its larger one.
  std::vector<VertexId> lo_by_hi(hi_end[n]);
  for (const Edge& e : edges_) {
    if (e.u == e.v) continue;
    const auto [lo, hi] = std::minmax(e.u, e.v);
    lo_by_hi[hi_end[hi]++] = lo;
  }
  // Pass 2: walk the buckets in increasing larger endpoint and scatter each
  // edge into its smaller endpoint's row, so every row fills in order.
  edges_.resize(lo_by_hi.size());
  size_t i = 0;
  for (size_t hi = 0; hi < n; ++hi) {
    for (; i < hi_end[hi]; ++i) {
      const VertexId lo = lo_by_hi[i];
      edges_[lo_end[lo]++] = Edge{lo, static_cast<VertexId>(hi)};
    }
  }
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
}

bool EdgeList::IsNormalized() const {
  for (size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    if (e.u >= e.v) return false;
    if (i > 0 && !(edges_[i - 1] < e)) return false;
  }
  return true;
}

void EdgeList::set_num_vertices(VertexId n) {
  for (const Edge& e : edges_) {
    GPUTC_CHECK_LT(std::max(e.u, e.v), n)
        << "edge endpoint exceeds requested vertex count";
  }
  num_vertices_ = n;
}

}  // namespace gputc
