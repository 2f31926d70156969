#ifndef GPUTC_APPS_RECOMMENDATION_H_
#define GPUTC_APPS_RECOMMENDATION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace gputc {

// Triangle-based link recommendation (Tsourakakis et al.) — the third
// application from the paper's introduction: score candidate links by the
// number of triangles they would close (common-neighbor count).

/// One recommended link.
struct Recommendation {
  VertexId u = 0;
  VertexId v = 0;        // u < v.
  int64_t score = 0;     // Common neighbors == triangles the link closes.

  friend bool operator==(const Recommendation&,
                         const Recommendation&) = default;
};

/// Options bounding the candidate search (two-hop pairs can be quadratic in
/// hub degree, so the scan is capped).
struct RecommendationOptions {
  /// Number of recommendations to return.
  int64_t top_k = 10;
  /// Wedge centers scanned, highest degree first (0 = all).
  int64_t max_centers = 256;
  /// Candidate pairs examined per center.
  int64_t max_pairs_per_center = 1024;
};

/// Returns the top-k non-adjacent pairs with the highest common-neighbor
/// count, deduplicated, sorted by (score desc, pair asc). Fatally aborts on
/// a graph that fails validation.
std::vector<Recommendation> RecommendLinks(
    const Graph& g, const RecommendationOptions& options = {});

/// RecommendLinks behind the validated front door: GraphDoctor refuses a
/// graph over its caps or at risk of wedge overflow with a Status.
StatusOr<std::vector<Recommendation>> TryRecommendLinks(
    const Graph& g, const RecommendationOptions& options = {});

/// Common-neighbor score of one candidate pair (0 for adjacent or invalid
/// pairs as well — callers filter).
int64_t CommonNeighborScore(const Graph& g, VertexId u, VertexId v);

}  // namespace gputc

#endif  // GPUTC_APPS_RECOMMENDATION_H_
