#include "tc/fox.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "order/aorder.h"
#include "sim/block_cost.h"
#include "sim/memory.h"
#include "tc/cost_rules.h"
#include "tc/cpu_counters.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace gputc {
namespace {

/// Bins whose arcs stream at least this many keys (2^bin level) run one
/// warp per arc; lighter bins run one thread per arc.
constexpr int64_t kWarpThreshold = 128;

struct Arc {
  VertexId u;
  VertexId v;
};

std::vector<Arc> CollectArcs(const DirectedGraph& g) {
  std::vector<Arc> arcs;
  arcs.reserve(static_cast<size_t>(g.num_edges()));
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.out_neighbors(u)) arcs.push_back(Arc{u, v});
  }
  return arcs;
}

int64_t WorkEstimate(const DirectedGraph& g, const Arc& arc) {
  // Even an arc with no keys to search costs its setup; clamp to 1 so the
  // lightest bin is well defined.
  return std::max<int64_t>(
      1, g.out_degree(arc.v) *
             std::max(1, ProbesForBinarySearch(g.out_degree(arc.u))));
}

int RadixBin(int64_t work) {
  int bin = 0;
  while (work > 1) {
    work >>= 1;
    ++bin;
  }
  return bin;
}

}  // namespace

std::vector<int64_t> FoxCounter::ArcWorkEstimates(const DirectedGraph& g) {
  const std::vector<Arc> arcs = CollectArcs(g);
  std::vector<int64_t> work(arcs.size());
  for (size_t i = 0; i < arcs.size(); ++i) work[i] = WorkEstimate(g, arcs[i]);
  return work;
}

std::vector<int64_t> FoxCounter::AOrderedEdgeOrder(
    const DirectedGraph& g, const ResourceModel& model,
    const DeviceSpec& spec) const {
  const std::vector<Arc> arcs = CollectArcs(g);
  constexpr int kMaxBins = 48;
  std::vector<std::vector<int64_t>> bins(kMaxBins);
  for (int64_t pos = 0; pos < static_cast<int64_t>(arcs.size()); ++pos) {
    const int64_t volume = g.out_degree(arcs[static_cast<size_t>(pos)].v) + 1;
    bins[static_cast<size_t>(std::min(kMaxBins - 1, RadixBin(volume)))]
        .push_back(pos);
  }
  std::vector<int64_t> order;
  order.reserve(arcs.size());
  for (size_t bin_idx = 0; bin_idx < bins.size(); ++bin_idx) {
    const auto& bin = bins[bin_idx];
    if (bin.empty()) continue;
    const bool warp_per_arc =
        (int64_t{1} << std::min<size_t>(bin_idx, 62)) >= kWarpThreshold;
    const int tasks_per_block =
        warp_per_arc ? spec.warps_per_block : spec.threads_per_block();
    if (bin.size() <= static_cast<size_t>(tasks_per_block)) {
      order.insert(order.end(), bin.begin(), bin.end());
      continue;
    }
    // Pack this bin's arcs so every block (tasks_per_block consecutive
    // tasks) gets a balanced mix of searched-list lengths.
    std::vector<EdgeCount> search_lengths(bin.size());
    for (size_t i = 0; i < bin.size(); ++i) {
      search_lengths[i] =
          g.out_degree(arcs[static_cast<size_t>(bin[i])].u);
    }
    AOrderOptions options;
    options.bucket_size = tasks_per_block;
    const AOrderResult packed = AOrder(search_lengths, model, options);
    std::vector<int64_t> bin_order(bin.size());
    for (size_t i = 0; i < bin.size(); ++i) {
      bin_order[packed.perm[i]] = bin[i];
    }
    order.insert(order.end(), bin_order.begin(), bin_order.end());
  }
  return order;
}

StatusOr<TcResult> FoxCounter::TryCount(const DirectedGraph& g,
                                        const DeviceSpec& spec,
                                        const ExecContext& ctx) const {
  std::vector<int64_t> identity(static_cast<size_t>(g.num_edges()));
  std::iota(identity.begin(), identity.end(), int64_t{0});
  return TryCountWithEdgeOrder(g, spec, identity, ctx);
}

TcResult FoxCounter::CountWithEdgeOrder(
    const DirectedGraph& g, const DeviceSpec& spec,
    const std::vector<int64_t>& edge_order) const {
  StatusOr<TcResult> result =
      TryCountWithEdgeOrder(g, spec, edge_order, ExecContext{});
  GPUTC_CHECK(result.ok()) << "Fox::CountWithEdgeOrder failed: "
                           << result.status().ToString();
  return *std::move(result);
}

StatusOr<TcResult> FoxCounter::TryCountWithEdgeOrder(
    const DirectedGraph& g, const DeviceSpec& spec,
    const std::vector<int64_t>& edge_order, const ExecContext& ctx) const {
  GPUTC_INJECT_FAULT("tc.fox");
  const std::vector<Arc> arcs = CollectArcs(g);
  if (edge_order.size() != arcs.size()) {
    return InvalidArgumentError(
        "edge order has " + std::to_string(edge_order.size()) +
        " entries but the graph has " + std::to_string(arcs.size()) + " arcs");
  }
  Span span = StartSpan(ctx, "tc.fox");
  const int lanes = spec.warp_size;

  // Stable log-radix binning in the caller's order. Arcs are binned by
  // their work *volume* (keys streamed, d~(v)) — the quantity the adaptive
  // granularity needs — while the searched-list length d~(u), which sets an
  // arc's compute/memory character, still varies freely inside a bin.
  // That residual diversity is exactly what an edge reordering can balance
  // across blocks (Section 6.4 / Figure 15).
  constexpr int kMaxBins = 48;
  std::vector<std::vector<int64_t>> bins(kMaxBins);
  std::vector<bool> seen(arcs.size(), false);
  for (size_t i = 0; i < edge_order.size(); ++i) {
    const int64_t pos = edge_order[i];
    if (pos < 0 || pos >= static_cast<int64_t>(arcs.size())) {
      return InvalidArgumentError("edge order entry " + std::to_string(pos) +
                                  " is outside [0, " +
                                  std::to_string(arcs.size()) + ")");
    }
    if (seen[static_cast<size_t>(pos)]) {
      return InvalidArgumentError(
          "edge order is not a permutation: position " + std::to_string(pos) +
          " repeats at entry " + std::to_string(i));
    }
    seen[static_cast<size_t>(pos)] = true;
    const int64_t volume =
        g.out_degree(arcs[static_cast<size_t>(pos)].v) + 1;
    bins[static_cast<size_t>(std::min(kMaxBins - 1, RadixBin(volume)))]
        .push_back(pos);
  }

  std::vector<BlockCost> blocks;
  BlockCostModel model(spec);
  for (size_t bin_idx = 0; bin_idx < bins.size(); ++bin_idx) {
    const auto& bin = bins[bin_idx];
    if (bin.empty()) continue;
    // One granularity per bin, a pure function of the bin's radix level
    // (every arc in the bin streams ~2^level keys): cooperative warps once
    // a warp's worth of keys amortizes.
    const bool warp_per_arc =
        (int64_t{1} << std::min<size_t>(bin_idx, 62)) >= kWarpThreshold;
    const size_t tasks_per_block =
        warp_per_arc ? static_cast<size_t>(spec.warps_per_block)
                     : static_cast<size_t>(spec.threads_per_block());
    for (size_t block_start = 0; block_start < bin.size();
         block_start += tasks_per_block) {
      GPUTC_RETURN_IF_ERROR(ctx.CheckContinue("tc.fox"));
      GPUTC_INJECT_FAULT("tc.block");
      model.BeginBlock();
      const size_t block_end =
          std::min(bin.size(), block_start + tasks_per_block);
      for (size_t i = block_start; i < block_end; ++i) {
        const Arc arc = arcs[static_cast<size_t>(bin[i])];
        const int64_t du = g.out_degree(arc.u);
        const int64_t dv = g.out_degree(arc.v);
        const int task = static_cast<int>(i - block_start);
        if (warp_per_arc) {
          // Lanes cooperate exactly like TriCore's warp search.
          const int64_t full_chunks = dv / lanes;
          if (full_chunks > 0) {
            ThreadWork chunk = CoalescedLoadLaneShare(lanes, lanes, spec);
            chunk += WarpSearchLaneShare(du, lanes, spec);
            const ThreadWork lane_work{
                chunk.compute_ops * static_cast<double>(full_chunks),
                chunk.mem_transactions * static_cast<double>(full_chunks)};
            for (int lane = 0; lane < lanes; ++lane) {
              model.AddThreadWork(task * lanes + lane, lane_work);
            }
          }
          const int remainder = static_cast<int>(dv % lanes);
          if (remainder > 0) {
            ThreadWork lane_work =
                CoalescedLoadLaneShare(remainder, remainder, spec);
            lane_work += WarpSearchLaneShare(du, remainder, spec);
            for (int lane = 0; lane < remainder; ++lane) {
              model.AddThreadWork(task * lanes + lane, lane_work);
            }
          }
        } else {
          ThreadWork work = SequentialScan(dv, spec);
          work += BinarySearchBatch(dv, du, /*shared=*/false, spec);
          model.AddThreadWork(task, work);
        }
      }
      blocks.push_back(model.Finish());
    }
  }

  TcResult result;
  GPUTC_ASSIGN_OR_RETURN(result.triangles, TryCountTrianglesDirected(g, ctx));
  result.kernel = KernelLauncher(spec).Launch(blocks);
  span.SetAttr("triangles", result.triangles);
  span.SetAttr("blocks", static_cast<int64_t>(blocks.size()));
  return result;
}

}  // namespace gputc
