#ifndef GPUTC_DIRECTION_PEELING_H_
#define GPUTC_DIRECTION_PEELING_H_

#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/deadline.h"

namespace gputc {

/// Options of the A-direction peeling algorithm (paper Algorithm 1).
struct PeelingOptions {
  /// Factor by which the peeling threshold grows between rounds (Line 19
  /// doubles it). Exposed for the ablation bench; must be > 1.
  double threshold_growth = 2.0;

  /// Optional execution envelope (not owned; null = untraced). Peeling opens
  /// one "direction.peel" span on its tracer recording rounds and d_peel —
  /// the per-vertex peel loop itself allocates nothing.
  const ExecContext* exec = nullptr;
};

/// Diagnostics of one A-direction run.
struct PeelingResult {
  /// Vertices in peel order: position i was peeled i-th. Orienting every
  /// edge from earlier-peeled to later-peeled realizes A-direction.
  std::vector<VertexId> peel_order;
  /// Number of threshold-doubling rounds executed.
  int rounds = 0;
  /// Residual degree of the last vertex peeled (the paper's d_peel, used by
  /// the Theorem 4.2 upper bound).
  EdgeCount peel_degree = 0;
};

/// Runs the A-direction peeling algorithm.
///
/// Faithful to Algorithm 1 with one tightening: inside a frontier, edges
/// between two frontier vertices follow the *peel (pop) order*, seeded by
/// ascending (residual degree, id). The printed pseudocode leaves
/// equal-degree frontier edges ambiguous, which can create a directed
/// 3-cycle; ordering by pop time is a strict total order, so the orientation
/// is acyclic while preserving the paper's small-degree -> large-degree
/// intent (see DESIGN.md, "A-direction acyclicity").
///
/// Sort-free: each frontier is ordered by a stable counting sort over the
/// residuals at or below the threshold, and every round scans only the
/// vertices still unpeeled. That is O(|E| + d_max + sum_r |V_r|), with V_r
/// the vertices alive at round r: at most O(|E| + |V| * R) for R rounds,
/// and close to O(|E| + |V|) when, as on skewed graphs, most vertices go in
/// the first rounds.
PeelingResult ADirectionPeel(const Graph& g, const PeelingOptions& options = {});

}  // namespace gputc

#endif  // GPUTC_DIRECTION_PEELING_H_
