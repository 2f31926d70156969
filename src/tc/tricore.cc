#include "tc/tricore.h"

#include <algorithm>
#include <vector>

#include "obs/trace.h"
#include "sim/block_cost.h"
#include "tc/cost_rules.h"
#include "tc/cpu_counters.h"
#include "tc/work_partition.h"
#include "util/failpoint.h"

namespace gputc {

StatusOr<TcResult> TriCoreCounter::TryCount(const DirectedGraph& g,
                                            const DeviceSpec& spec,
                                            const ExecContext& ctx) const {
  GPUTC_INJECT_FAULT("tc.tricore");
  Span span = StartSpan(ctx, "tc.tricore");
  const int lanes = spec.warp_size;

  const std::vector<VertexId> sources = ArcSources(g);
  const std::vector<ArcRange> blocks_arcs =
      VertexBucketArcRanges(g, spec.threads_per_block());

  std::vector<BlockCost> blocks;
  blocks.reserve(blocks_arcs.size());
  BlockCostModel model(spec);
  for (const ArcRange& range : blocks_arcs) {
    if (range.size() == 0) {
      blocks.push_back(BlockCost{});
      continue;
    }
    GPUTC_RETURN_IF_ERROR(ctx.CheckContinue("tc.tricore"));
    GPUTC_INJECT_FAULT("tc.block");
    model.BeginBlock();
    // Grid-stride over the block's arcs: warp w takes arcs w, w+W, ...
    for (int64_t i = range.begin; i < range.end; ++i) {
      const VertexId u = sources[static_cast<size_t>(i)];
      const VertexId v = g.adjacency()[static_cast<size_t>(i)];
      const int warp =
          static_cast<int>((i - range.begin) % spec.warps_per_block);
      const int64_t du = g.out_degree(u);
      const int64_t dv = g.out_degree(v);
      if (strategy_ == IntersectStrategy::kSortMerge) {
        // Merge-path: each lane locates its segment boundary by binary
        // search, then merges its (du + dv) / lanes slice.
        if (du + dv > 0) {
          ThreadWork lane_work = BinarySearchBatch(
              /*keys=*/1, std::max(du, dv), /*shared=*/false, spec);
          const int64_t slice = (du + dv + lanes - 1) / lanes;
          const ThreadWork merge = SortMerge(slice, 0, spec);
          lane_work += merge;
          for (int lane = 0; lane < lanes; ++lane) {
            model.AddThreadWork(warp * lanes + lane, lane_work);
          }
        }
        continue;
      }
      // Keys are streamed from N+(v) in chunks of `lanes`; each active lane
      // searches one key in N+(u). Full chunks are identical, so they are
      // charged in one shot.
      const int64_t full_chunks = dv / lanes;
      if (full_chunks > 0) {
        ThreadWork chunk_work = CoalescedLoadLaneShare(lanes, lanes, spec);
        chunk_work += WarpSearchLaneShare(du, lanes, spec);
        const ThreadWork lane_work{
            chunk_work.compute_ops * static_cast<double>(full_chunks),
            chunk_work.mem_transactions * static_cast<double>(full_chunks),
            chunk_work.shared_transactions * static_cast<double>(full_chunks)};
        for (int lane = 0; lane < lanes; ++lane) {
          model.AddThreadWork(warp * lanes + lane, lane_work);
        }
      }
      const int remainder = static_cast<int>(dv % lanes);
      if (remainder > 0) {
        ThreadWork lane_work =
            CoalescedLoadLaneShare(remainder, remainder, spec);
        lane_work += WarpSearchLaneShare(du, remainder, spec);
        for (int lane = 0; lane < remainder; ++lane) {
          model.AddThreadWork(warp * lanes + lane, lane_work);
        }
      }
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
