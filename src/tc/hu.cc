#include "tc/hu.h"

#include <algorithm>
#include <vector>

#include "obs/trace.h"
#include "sim/block_cost.h"
#include "tc/cost_rules.h"
#include "tc/cpu_counters.h"
#include "tc/work_partition.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace gputc {

StatusOr<TcResult> HuCounter::TryCount(const DirectedGraph& g,
                                       const DeviceSpec& spec,
                                       const ExecContext& ctx) const {
  GPUTC_INJECT_FAULT("tc.hu");
  Span span = StartSpan(ctx, "tc.hu");
  const int threads = spec.threads_per_block();
  const int64_t arcs_per_superstep = threads;

  const std::vector<VertexId> sources = ArcSources(g);
  const std::vector<ArcRange> blocks_arcs =
      VertexBucketArcRanges(g, threads);

  std::vector<BlockCost> blocks;
  blocks.reserve(blocks_arcs.size());
  BlockCostModel model(spec);
  for (const ArcRange& range : blocks_arcs) {
    if (range.size() == 0) {
      blocks.push_back(BlockCost{});
      continue;
    }
    GPUTC_RETURN_IF_ERROR(ctx.CheckContinue("tc.hu"));
    GPUTC_INJECT_FAULT("tc.block");
    model.BeginBlock();
    for (int64_t step_start = range.begin; step_start < range.end;
         step_start += arcs_per_superstep) {
      const int64_t step_end =
          std::min(range.end, step_start + arcs_per_superstep);

      // Copy phase: stage the distinct u-lists this superstep will search
      // into shared memory (coalesced global reads), then __syncthreads().
      int64_t staged_elements = 0;
      {
        VertexId prev_u = g.num_vertices();  // Sentinel.
        for (int64_t i = step_start; i < step_end; ++i) {
          const VertexId u = sources[static_cast<size_t>(i)];
          if (u != prev_u) {
            prev_u = u;
            staged_elements += g.out_degree(u);
          }
        }
      }
      const ThreadWork copy_share =
          CoalescedLoadLaneShare(staged_elements, threads, spec);
      for (int t = 0; t < static_cast<int>(step_end - step_start); ++t) {
        model.AddThreadWork(t, copy_share);
      }
      model.EndSuperstep();

      // Search phase: thread t resolves arc (u, v): streams N+(v) from
      // global memory and binary searches each w in the staged N+(u)
      // (shared-memory pipeline).
      for (int64_t i = step_start; i < step_end; ++i) {
        const VertexId u = sources[static_cast<size_t>(i)];
        const VertexId v = g.adjacency()[static_cast<size_t>(i)];
        const int64_t du = g.out_degree(u);
        const int64_t dv = g.out_degree(v);
        ThreadWork work = SequentialScan(dv, spec);
        work += BinarySearchBatch(dv, du, /*shared=*/true, spec);
        model.AddThreadWork(static_cast<int>(i - step_start), work);
      }
      model.EndSuperstep();
    }
    blocks.push_back(model.Finish());
  }

  TcResult result;
  GPUTC_ASSIGN_OR_RETURN(result.triangles, TryCountTrianglesDirected(g, ctx));
  result.kernel = KernelLauncher(spec).Launch(blocks);
  span.SetAttr("triangles", result.triangles);
  span.SetAttr("blocks", static_cast<int64_t>(blocks.size()));
  return result;
}

}  // namespace gputc
