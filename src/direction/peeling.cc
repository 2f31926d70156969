#include "direction/peeling.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "obs/trace.h"
#include "util/logging.h"

namespace gputc {
namespace {

enum : uint8_t { kAlive = 0, kQueued = 1, kPeeled = 2 };

}  // namespace

PeelingResult ADirectionPeel(const Graph& g, const PeelingOptions& options) {
  GPUTC_CHECK_GT(options.threshold_growth, 1.0);
  Span span = options.exec != nullptr ? StartSpan(*options.exec, "direction.peel")
                                      : Span();
  const VertexId n = g.num_vertices();
  PeelingResult result;
  result.peel_order.reserve(n);
  if (n == 0) return result;

  std::vector<EdgeCount> residual(n);
  for (VertexId v = 0; v < n; ++v) residual[v] = g.degree(v);
  std::vector<uint8_t> state(n, kAlive);
  // Unpeeled vertices in id order, compacted every round so later rounds
  // never rescan peeled ones.
  std::vector<VertexId> alive(n);
  for (VertexId v = 0; v < n; ++v) alive[v] = v;
  // One round's work list: the sorted frontier, then the vertices it
  // releases, consumed front to back. A round queues each vertex at most
  // once.
  std::vector<VertexId> queue(n);
  // The frontier's counting sort: counts by residual, then start offsets.
  // Residuals never exceed the maximum degree.
  const EdgeCount max_degree = g.MaxDegree();
  std::vector<size_t> bucket_start(static_cast<size_t>(max_degree) + 2);

  // Initial threshold is the paper's d~_avg = |E| / |V| (at least 1 so the
  // first round can make progress on degree-1 fringes).
  double threshold = std::max(
      1.0, static_cast<double>(g.num_edges()) / static_cast<double>(n));

  while (!alive.empty()) {
    // Drop last round's peeled vertices from `alive` and count this round's
    // frontier (unpeeled vertices at or below the threshold) by residual.
    const auto in_frontier = [&](VertexId v) {
      return static_cast<double>(residual[v]) <= threshold;
    };
    const size_t buckets =
        static_cast<size_t>(
            std::min(threshold, static_cast<double>(max_degree))) +
        2;
    std::fill_n(bucket_start.begin(), buckets, 0);
    size_t frontier = 0;
    size_t kept = 0;
    for (const VertexId v : alive) {
      if (state[v] == kPeeled) continue;
      alive[kept++] = v;
      if (in_frontier(v)) {
        ++bucket_start[static_cast<size_t>(residual[v]) + 1];
        ++frontier;
      }
    }
    alive.resize(kept);
    if (alive.empty()) break;
    if (frontier == 0) {
      threshold *= options.threshold_growth;
      ++result.rounds;
      continue;
    }
    // Seed the queue in ascending (residual degree, id) order so edges run
    // from smaller to larger degree, matching Lines 9-11: a stable counting
    // sort, as `alive` is in id order.
    std::partial_sum(bucket_start.begin(), bucket_start.begin() + buckets,
                     bucket_start.begin());
    for (const VertexId v : alive) {
      if (in_frontier(v)) {
        queue[bucket_start[static_cast<size_t>(residual[v])]++] = v;
        state[v] = kQueued;
      }
    }

    size_t tail = frontier;
    for (size_t head = 0; head < tail; ++head) {
      const VertexId v = queue[head];
      state[v] = kPeeled;
      result.peel_degree = std::max(result.peel_degree, residual[v]);
      result.peel_order.push_back(v);
      // Peeling v implicitly orients every still-undirected incident edge
      // away from v; neighbours lose one residual degree and may join the
      // frontier (Lines 12-16).
      for (VertexId nbr : g.neighbors(v)) {
        if (state[nbr] == kPeeled) continue;
        --residual[nbr];
        if (state[nbr] == kAlive &&
            static_cast<double>(residual[nbr]) <= threshold) {
          state[nbr] = kQueued;
          queue[tail++] = nbr;
        }
      }
    }
    threshold *= options.threshold_growth;
    ++result.rounds;
  }
  GPUTC_CHECK_EQ(result.peel_order.size(), static_cast<size_t>(n));
  span.SetAttr("rounds", static_cast<int64_t>(result.rounds));
  span.SetAttr("peel_degree", static_cast<int64_t>(result.peel_degree));
  return result;
}

}  // namespace gputc
