#ifndef GPUTC_TC_INTERSECT_H_
#define GPUTC_TC_INTERSECT_H_

#include <cstdint>
#include <span>

#include "graph/types.h"

namespace gputc {

/// Size of the intersection of two sorted id spans (merge). Exact; used by
/// the applications (k-truss supports, link recommendation), which need one
/// count per edge or vertex pair. Whole-graph triangle counts come from
/// TryCountTrianglesDirected (tc/cpu_counters.h).
inline int64_t SortedIntersectionSize(std::span<const VertexId> a,
                                      std::span<const VertexId> b) {
  int64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace gputc

#endif  // GPUTC_TC_INTERSECT_H_
