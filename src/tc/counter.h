#ifndef GPUTC_TC_COUNTER_H_
#define GPUTC_TC_COUNTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "graph/directed_graph.h"
#include "sim/device.h"
#include "sim/kernel.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/status.h"

namespace gputc {

/// Result of one (simulated) triangle-counting run: the exact triangle count
/// plus the modelled kernel cost.
struct TcResult {
  int64_t triangles = 0;
  KernelStats kernel;
};

/// Work-distribution unit a kernel reorders by (Section 6.4): Hu, TriCore
/// and Gunrock consume vertex orderings; Fox consumes edge orderings.
enum class ReorderUnit { kVertex, kEdge };

/// Interface of the simulated GPU triangle counters.
///
/// Implementations price a kernel from out-degrees alone: they walk the
/// directed graph's arcs on the host and charge every primitive operation
/// (searches, scans, bitmap probes, synchronizations) to the block cost
/// model exactly as the corresponding CUDA kernel would distribute it over
/// blocks, warps and threads. The returned KernelStats is the modelled
/// kernel time. The triangle count is not part of the pricing: after it,
/// every counter takes the count from the one exact engine,
/// TryCountTrianglesDirected (tc/cpu_counters.h).
///
/// The input graph must already be preprocessed: oriented by the desired
/// direction strategy and relabeled by the desired ordering — blocks take
/// work for consecutive vertex ids (or edges in CSR order), which is exactly
/// how preprocessing steers the kernels without changing them.
class SimTriangleCounter {
 public:
  virtual ~SimTriangleCounter() = default;

  /// Algorithm name as used in the paper ("Hu", "TriCore", ...).
  virtual std::string name() const = 0;

  /// Counts triangles of `g` on the simulated device under the execution
  /// envelope `ctx`. Implementations poll ctx at block granularity, so a
  /// cancellation or deadline expiry is observed within one block's work;
  /// a triangle accumulation past ctx.count_limit surfaces as OutOfRange.
  /// Fail-point sites "tc.<algo>" (entry) and "tc.block" (per block) make
  /// every counter fault-injectable.
  virtual StatusOr<TcResult> TryCount(const DirectedGraph& g,
                                      const DeviceSpec& spec,
                                      const ExecContext& ctx) const = 0;

  /// Unconstrained convenience entry point: TryCount under an infinite
  /// context. The benches and oracle tests use this; with no deadline, no
  /// cancellation and no armed fail points it cannot fail, so an error here
  /// CHECK-aborts.
  TcResult Count(const DirectedGraph& g, const DeviceSpec& spec) const {
    StatusOr<TcResult> result = TryCount(g, spec, ExecContext{});
    GPUTC_CHECK(result.ok())
        << name() << "::Count failed: " << result.status().ToString();
    return *std::move(result);
  }

  /// True if the kernel uses intra-block synchronization — the algorithms
  /// A-direction's BSP analysis applies to (Bisson, Hu).
  virtual bool uses_intra_block_sync() const = 0;

  /// True if the kernel intersects lists by binary search — the algorithms
  /// A-order's diversity analysis applies to (all but Bisson's bitmap).
  virtual bool uses_binary_search() const = 0;

  virtual ReorderUnit reorder_unit() const { return ReorderUnit::kVertex; }
};

}  // namespace gputc

#endif  // GPUTC_TC_COUNTER_H_
