#ifndef GPUTC_ORDER_ORDERING_H_
#define GPUTC_ORDER_ORDERING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/directed_graph.h"
#include "graph/graph.h"
#include "graph/permutation.h"
#include "order/aorder.h"
#include "order/resource_model.h"

namespace gputc {

/// Vertex (re)ordering strategies evaluated in the paper (Section 6.4).
enum class OrderingStrategy {
  kOriginal,   // Keep input ids ("Origin").
  kDegree,     // Degree-descending ("D-order"), the negative baseline.
  kAOrder,     // The paper's analytic-model ordering (Algorithm 2).
  kDfs,        // DFS discovery order.
  kBfsR,       // Recursive BFS bisection.
  kSlashBurn,  // Hub removal ordering.
  kGro,        // Greedy compactness ordering.
  kBfs,        // Plain BFS discovery order (locality baseline).
  kRcm,        // Reverse Cuthill-McKee (bandwidth-minimizing baseline).
  kRandom,     // Uniform random (ablation).
};

/// Human-readable name matching the paper's tables ("Origin", "D-order",
/// "A-order", "DFS", "BFS-R", "SlashBurn", "GRO", "random").
std::string ToString(OrderingStrategy strategy);

/// A computed ordering and its Eq. 3 cost.
struct OrderingResult {
  Permutation perm;  // old id -> new id.
  /// OrderingImbalanceCost of `perm` under the model and bucket size the
  /// ordering ran with; A-order reports the cost its packing computed.
  double imbalance_cost = 0.0;
};

/// Computes the permutation (old id -> new id) for `strategy`.
///
/// `undirected` is the graph being preprocessed; `out_degrees` are the
/// out-degrees of its orientation (DirectedGraph::OutDegreesFromRank),
/// which feed A-order's intensity functions and the Eq. 3 cost; no oriented
/// graph is needed. `model` supplies F_c / F_m / lambda; `aorder_options`
/// the bucket size (which must be positive). `seed` only affects kRandom.
OrderingResult ComputeOrdering(const Graph& undirected,
                               const std::vector<EdgeCount>& out_degrees,
                               OrderingStrategy strategy,
                               const ResourceModel& model,
                               const AOrderOptions& aorder_options = {},
                               uint64_t seed = 1);

/// The permutation alone, with the out-degrees read from `directed`, the
/// oriented version of `undirected`.
Permutation ComputeOrdering(const Graph& undirected,
                            const DirectedGraph& directed,
                            OrderingStrategy strategy,
                            const ResourceModel& model,
                            const AOrderOptions& aorder_options = {},
                            uint64_t seed = 1);

}  // namespace gputc

#endif  // GPUTC_ORDER_ORDERING_H_
