#ifndef HOSTBENCH_ORACLE_H_
#define HOSTBENCH_ORACLE_H_

// The benchmark's own triangle counter. It shares no code with src/tc, so a
// rewrite of the counting engine is checked against an answer it did not
// produce.

#include <cstdint>
#include <span>

namespace hostbench {

/// Exact triangle count of the simple undirected graph given as a symmetric
/// CSR (`offsets` has n + 1 entries, `adjacency` lists both directions of
/// every edge). Orients each edge towards the endpoint of higher
/// (degree, id) and counts, for every arc u -> v, the out-neighbours of v
/// that are also out-neighbours of u, using a marker array.
int64_t OracleTriangles(std::span<const int64_t> offsets,
                        std::span<const uint32_t> adjacency);

}  // namespace hostbench

#endif  // HOSTBENCH_ORACLE_H_
