#include "tc/bisson.h"

#include <algorithm>
#include <vector>

#include "obs/trace.h"
#include "sim/block_cost.h"
#include "tc/cost_rules.h"
#include "tc/cpu_counters.h"
#include "util/failpoint.h"

namespace gputc {

StatusOr<TcResult> BissonCounter::TryCount(const DirectedGraph& g,
                                           const DeviceSpec& spec,
                                           const ExecContext& ctx) const {
  GPUTC_INJECT_FAULT("tc.bisson");
  Span span = StartSpan(ctx, "tc.bisson");
  const int threads = spec.threads_per_block();

  std::vector<BlockCost> blocks;
  blocks.reserve(g.num_vertices());
  BlockCostModel model(spec);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.out_neighbors(v);
    if (nbrs.empty()) continue;  // The kernel skips leaf blocks immediately.
    GPUTC_RETURN_IF_ERROR(ctx.CheckContinue("tc.bisson"));
    GPUTC_INJECT_FAULT("tc.block");
    model.BeginBlock();

    // Superstep 0: cooperatively set a bitmap bit per element of N+(v)
    // (scattered global writes), then synchronize.
    const ThreadWork set_bit = BitmapAccess(spec);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      ThreadWork w = set_bit;
      model.AddThreadWork(static_cast<int>(i % static_cast<size_t>(threads)),
                          w);
    }
    model.EndSuperstep();

    // Groups of `threads` neighbors: thread t scans N+(u_t) start to end,
    // probing the bitmap for every element.
    for (size_t group = 0; group < nbrs.size();
         group += static_cast<size_t>(threads)) {
      const size_t group_end =
          std::min(nbrs.size(), group + static_cast<size_t>(threads));
      for (size_t i = group; i < group_end; ++i) {
        const VertexId u = nbrs[i];
        const int64_t du = g.out_degree(u);
        ThreadWork work = SequentialScan(du, spec);
        const ThreadWork probe = BitmapAccess(spec);
        work.compute_ops += probe.compute_ops * static_cast<double>(du);
        work.mem_transactions +=
            probe.mem_transactions * static_cast<double>(du);
        model.AddThreadWork(static_cast<int>(i - group), work);
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
