#include "oracle.h"

#include <vector>

namespace hostbench {

int64_t OracleTriangles(std::span<const int64_t> offsets,
                        std::span<const uint32_t> adjacency) {
  if (offsets.size() < 2) return 0;
  const size_t n = offsets.size() - 1;
  const auto degree = [&](uint32_t v) { return offsets[v + 1] - offsets[v]; };
  const auto before = [&](uint32_t a, uint32_t b) {
    return degree(a) != degree(b) ? degree(a) < degree(b) : a < b;
  };

  // Forward adjacency: each edge kept once, at its lower-ranked endpoint.
  std::vector<int64_t> out_offsets(n + 1, 0);
  for (uint32_t u = 0; u < n; ++u) {
    for (int64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      if (before(u, adjacency[i])) ++out_offsets[u + 1];
    }
  }
  for (size_t u = 0; u < n; ++u) out_offsets[u + 1] += out_offsets[u];
  std::vector<uint32_t> out(static_cast<size_t>(out_offsets[n]));
  for (uint32_t u = 0; u < n; ++u) {
    int64_t pos = out_offsets[u];
    for (int64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      if (before(u, adjacency[i])) out[pos++] = adjacency[i];
    }
  }

  std::vector<uint32_t> mark(n, UINT32_MAX);
  int64_t triangles = 0;
  for (uint32_t u = 0; u < n; ++u) {
    for (int64_t i = out_offsets[u]; i < out_offsets[u + 1]; ++i) {
      mark[out[i]] = u;
    }
    for (int64_t i = out_offsets[u]; i < out_offsets[u + 1]; ++i) {
      const uint32_t v = out[i];
      for (int64_t j = out_offsets[v]; j < out_offsets[v + 1]; ++j) {
        if (mark[out[j]] == u) ++triangles;
      }
    }
  }
  return triangles;
}

}  // namespace hostbench
