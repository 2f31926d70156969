#ifndef GPUTC_APPS_CLUSTERING_H_
#define GPUTC_APPS_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace gputc {

// Clustering-coefficient analysis (Watts & Strogatz) — one of the three
// triangle-counting applications motivating the paper. Built on the same
// oriented-wedge counting substrate as the kernels.

/// Number of triangles incident to each vertex. Every triangle contributes
/// one to each of its three corners. O(m^(3/2)). Fatally aborts on a graph
/// that fails validation.
std::vector<int64_t> PerVertexTriangleCounts(const Graph& g);

/// PerVertexTriangleCounts behind the validated front door: GraphDoctor
/// refuses a graph over its caps or at risk of overflowing the counts with
/// a Status instead of corrupting them.
StatusOr<std::vector<int64_t>> TryPerVertexTriangleCounts(const Graph& g);

/// Local clustering coefficient of every vertex:
/// 2 * triangles(v) / (d(v) * (d(v) - 1)); 0 for degree < 2.
std::vector<double> LocalClusteringCoefficients(const Graph& g);

/// Global clustering coefficient (transitivity): 3 * triangles / wedges,
/// where wedges = sum over v of C(d(v), 2). 0 for wedge-free graphs.
/// Fatally aborts on validation failure or wedge-count overflow.
double GlobalClusteringCoefficient(const Graph& g);

/// GlobalClusteringCoefficient with validation and overflow-checked wedge
/// accumulation: d * (d - 1) / 2 summed over hub-heavy graphs can exceed
/// int64, which surfaces as OutOfRange instead of wrapping into a bogus
/// coefficient.
StatusOr<double> TryGlobalClusteringCoefficient(const Graph& g);

/// Average of the local coefficients over vertices with degree >= 2
/// (the Watts-Strogatz network average; 0 if no such vertex).
double AverageClusteringCoefficient(const Graph& g);

}  // namespace gputc

#endif  // GPUTC_APPS_CLUSTERING_H_
