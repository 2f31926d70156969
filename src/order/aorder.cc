#include "order/aorder.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "obs/trace.h"
#include "util/logging.h"

namespace gputc {
namespace {

struct HeapEntry {
  double mem_sup;
  int bucket;
};

// Heap orders in std::push_heap's convention: `lower(a, b)` when a ranks
// below b. Buckets have distinct ids, so the top is always unique.
struct MinFirst {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return a.mem_sup != b.mem_sup ? a.mem_sup > b.mem_sup
                                  : a.bucket > b.bucket;
  }
};

struct MaxFirst {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return a.mem_sup != b.mem_sup ? a.mem_sup < b.mem_sup
                                  : a.bucket > b.bucket;
  }
};

/// Restores `heap` after its top entry was re-keyed, in one sift-down where
/// a pop and a push would cost two passes.
template <typename Lower>
void SiftDownTop(std::vector<HeapEntry>& heap, Lower lower) {
  const HeapEntry moved = heap.front();
  size_t i = 0;
  for (size_t child = 1; child < heap.size(); child = 2 * i + 1) {
    // Add the sibling comparison instead of branching on it: which sibling
    // ranks higher is a coin flip to the predictor.
    child += static_cast<size_t>(child + 1 < heap.size() &&
                                 lower(heap[child], heap[child + 1]));
    if (!lower(moved, heap[child])) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = moved;
}

}  // namespace

AOrderResult AOrder(const std::vector<EdgeCount>& out_degrees,
                    const ResourceModel& model,
                    const AOrderOptions& options) {
  GPUTC_CHECK_GT(options.bucket_size, 0);
  const size_t n = out_degrees.size();
  AOrderResult result;
  result.perm.assign(n, 0);
  if (n == 0) return result;

  const size_t bucket_size = static_cast<size_t>(options.bucket_size);
  const size_t num_buckets = (n + bucket_size - 1) / bucket_size;

  // mem_sup depends on out-degree alone: evaluate it once per distinct
  // degree, then put the distinct degrees in dispatch order.
  std::vector<EdgeCount> degrees = DistinctDegrees(out_degrees);
  const std::vector<double> superiority = TabulateByDegree<double>(
      degrees, [&model](EdgeCount d) { return model.MemorySuperiority(d); });
  // Memory-dominated vertices (Lines 3-4) go first, each side by descending
  // |mem_sup| so the largest contributions land while all buckets still
  // have room.
  const auto sup = [&superiority](EdgeCount d) {
    return superiority[static_cast<size_t>(d)];
  };
  const auto dispatches_before = [&sup](EdgeCount a, EdgeCount b) {
    const bool mem_a = sup(a) > 0.0;
    const bool mem_b = sup(b) > 0.0;
    if (mem_a != mem_b) return mem_a;
    return std::abs(sup(a)) > std::abs(sup(b));
  };
  std::sort(degrees.begin(), degrees.end(), dispatches_before);
  // Degrees whose mem_sup ties share one class, whose vertices dispatch in
  // id order: out-degrees 0 and 1 always tie (both clamp to max(1, d)).
  // A stable counting sort over the classes then yields the dispatch order
  // (|mem_sup| desc, id asc) without comparing vertices.
  std::vector<VertexId> class_of(superiority.size(), 0);
  VertexId num_classes = 0;
  for (size_t i = 0; i < degrees.size(); ++i) {
    if (i > 0 && dispatches_before(degrees[i - 1], degrees[i])) ++num_classes;
    class_of[static_cast<size_t>(degrees[i])] = num_classes;
  }
  std::vector<size_t> class_start(static_cast<size_t>(num_classes) + 2, 0);
  for (EdgeCount d : out_degrees) {
    ++class_start[class_of[static_cast<size_t>(d)] + 1];
  }
  for (size_t c = 1; c < class_start.size(); ++c) {
    class_start[c] += class_start[c - 1];
  }
  std::vector<VertexId> dispatch(n);
  for (VertexId v = 0; v < n; ++v) {
    dispatch[class_start[class_of[static_cast<size_t>(out_degrees[v])]]++] = v;
  }
  class_of = {};
  size_t num_mem = 0;
  while (num_mem < n && sup(out_degrees[dispatch[num_mem]]) > 0.0) ++num_mem;
  const std::span<const VertexId> mem_dominated(dispatch.data(), num_mem);
  const std::span<const VertexId> comp_dominated(dispatch.data() + num_mem,
                                                 n - num_mem);
  result.num_memory_dominated = static_cast<int64_t>(mem_dominated.size());
  result.num_compute_dominated = static_cast<int64_t>(comp_dominated.size());

  // Bucket b holds fill[b] vertices at slots [b * bucket_size, ...).
  std::vector<VertexId> slots(num_buckets * bucket_size);
  std::vector<size_t> fill(num_buckets, 0);
  std::vector<double> bucket_sup(num_buckets, 0.0);
  std::vector<char> placed(n, 0);

  // Stop polling at placement granularity: the deadline/cancellation
  // contract for bucket packing, mirroring the counters' per-block polls.
  int64_t dispatched = 0;
  auto stop_requested = [&options, &dispatched]() {
    constexpr int64_t kPollStride = 1024;
    return options.exec != nullptr && dispatched++ % kPollStride == 0 &&
           options.exec->stop_requested();
  };

  // Places `vertices` in turn into the bucket the heap ranks first, re-keys
  // that bucket in place and drops it once full. Each bucket pass is one
  // span; the per-placement loop only polls, it never touches the tracer.
  auto pack = [&](std::span<const VertexId> vertices, const char* phase,
                  auto lower) {
    Span pass = options.exec != nullptr
                    ? StartSpan(*options.exec, "aorder.pass")
                    : Span();
    pass.SetAttr("phase", phase);
    pass.SetAttr("vertices", static_cast<int64_t>(vertices.size()));
    std::vector<HeapEntry> heap;
    for (size_t b = 0; b < num_buckets; ++b) {
      if (fill[b] < bucket_size) {
        heap.push_back(HeapEntry{bucket_sup[b], static_cast<int>(b)});
      }
    }
    std::make_heap(heap.begin(), heap.end(), lower);
    for (VertexId v : vertices) {
      if (stop_requested()) {
        result.aborted = true;
        return;
      }
      GPUTC_CHECK(!heap.empty());
      const size_t b = static_cast<size_t>(heap.front().bucket);
      slots[b * bucket_size + fill[b]++] = v;
      placed[v] = 1;
      bucket_sup[b] += sup(out_degrees[v]);
      if (fill[b] == bucket_size) {
        std::pop_heap(heap.begin(), heap.end(), lower);
        heap.pop_back();
      } else {
        heap.front().mem_sup = bucket_sup[b];
        SiftDownTop(heap, lower);
      }
    }
  };
  // Phase 1 (Lines 5-9): memory-dominated vertices into the bucket with the
  // least accumulated memory superiority.
  pack(mem_dominated, "memory-dominated", MinFirst{});
  // Phase 2 (Lines 10-15): compute-dominated vertices into the bucket with
  // the largest accumulated memory superiority.
  if (!result.aborted) pack(comp_dominated, "compute-dominated", MaxFirst{});

  // Lines 16-20: consecutive ids within each bucket.
  std::vector<VertexId> sequence;
  sequence.reserve(n);
  for (size_t b = 0; b < num_buckets; ++b) {
    const auto first = slots.begin() + static_cast<ptrdiff_t>(b * bucket_size);
    sequence.insert(sequence.end(), first,
                    first + static_cast<ptrdiff_t>(fill[b]));
  }
  slots = {};
  // An aborted run still yields a valid permutation: unplaced vertices are
  // appended in id order, and the caller decides whether to keep it.
  if (result.aborted) {
    for (VertexId v = 0; v < n; ++v) {
      if (!placed[v]) sequence.push_back(v);
    }
  }
  GPUTC_CHECK_EQ(sequence.size(), n);
  // Degree-sort each aligned id chunk (the positions one block will fetch):
  // chunk membership — and therefore the Eq. 3 objective — is untouched;
  // the sort only makes lock-step warps inside a block as uniform as
  // possible so the balanced mix does not reappear as SIMT divergence.
  if (options.sort_within_bucket) {
    for (size_t chunk = 0; chunk < sequence.size(); chunk += bucket_size) {
      const auto begin =
          sequence.begin() + static_cast<ptrdiff_t>(chunk);
      const auto end =
          sequence.begin() +
          static_cast<ptrdiff_t>(std::min(sequence.size(), chunk + bucket_size));
      std::sort(begin, end, [&out_degrees](VertexId a, VertexId b) {
        return out_degrees[a] != out_degrees[b]
                   ? out_degrees[a] > out_degrees[b]
                   : a < b;
      });
    }
  }
  for (VertexId position = 0; position < n; ++position) {
    result.perm[sequence[position]] = position;
  }

  result.imbalance_cost = OrderingImbalanceCost(
      out_degrees, result.perm, options.bucket_size, model);
  return result;
}

}  // namespace gputc
