#ifndef GPUTC_TC_CPU_COUNTERS_H_
#define GPUTC_TC_CPU_COUNTERS_H_

#include <cstdint>

#include "graph/directed_graph.h"
#include "graph/graph.h"
#include "util/deadline.h"
#include "util/status.h"

namespace gputc {

// Exact host-side triangle counting. TryCountTrianglesDirected is the one
// counting engine: every simulated GPU counter prices its kernel from
// out-degrees and takes its triangle count from it, and the forward
// counters below are orientation + engine. The node-iterator shares no code
// with it and is the independent oracle the tests compare against.

/// Node-iterator [Alon et al.]: for every vertex, test all neighbor pairs.
/// O(sum d(v)^2). Exact.
int64_t CountTrianglesNodeIterator(const Graph& g);

/// The exact counting engine: sum over arcs (u, v) of |N+(u) ∩ N+(v)|.
/// With an acyclic orientation this is the triangle count of the underlying
/// undirected graph. Vertex-major: marks N+(u) in a byte bitmap, probes
/// every N+(v) against it, then unmarks. Polls `ctx` every 256 source
/// vertices; a sum past ctx.count_limit is OutOfRange.
StatusOr<int64_t> TryCountTrianglesDirected(const DirectedGraph& g,
                                            const ExecContext& ctx);

/// Unconstrained TryCountTrianglesDirected; CHECK-aborts on error.
int64_t CountTrianglesDirected(const DirectedGraph& g);

/// Forward algorithm [Schank & Wagner]: orient by degree, then count with
/// the engine — the standard O(m^(3/2)) counter. Exact.
int64_t CountTrianglesForward(const Graph& g);

/// Forward algorithm under an execution envelope: injects at fail point
/// "tc.cpu", then orients and counts with the engine under `ctx`. The
/// executor's last-resort fallback stage.
StatusOr<int64_t> TryCountTrianglesForward(const Graph& g,
                                           const ExecContext& ctx);

}  // namespace gputc

#endif  // GPUTC_TC_CPU_COUNTERS_H_
