#include "tc/polak.h"

#include <algorithm>
#include <vector>

#include "obs/trace.h"
#include "sim/block_cost.h"
#include "tc/cost_rules.h"
#include "tc/cpu_counters.h"
#include "tc/work_partition.h"
#include "util/failpoint.h"

namespace gputc {

StatusOr<TcResult> PolakCounter::TryCount(const DirectedGraph& g,
                                          const DeviceSpec& spec,
                                          const ExecContext& ctx) const {
  GPUTC_INJECT_FAULT("tc.polak");
  Span span = StartSpan(ctx, "tc.polak");
  const int threads = spec.threads_per_block();

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
    GPUTC_RETURN_IF_ERROR(ctx.CheckContinue("tc.polak"));
    GPUTC_INJECT_FAULT("tc.block");
    model.BeginBlock();
    // Grid-stride within the block: thread t handles arcs t, t+T, t+2T, ...
    for (int64_t i = range.begin; i < range.end; ++i) {
      const VertexId u = sources[static_cast<size_t>(i)];
      const VertexId v = g.adjacency()[static_cast<size_t>(i)];
      const int64_t du = g.out_degree(u);
      const int64_t dv = g.out_degree(v);
      ThreadWork work = SequentialScan(dv, spec);
      work += BinarySearchBatch(dv, du, /*shared=*/false, spec);
      model.AddThreadWork(static_cast<int>((i - range.begin) % threads), work);
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
