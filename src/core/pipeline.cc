#include "core/pipeline.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "order/calibration.h"
#include "sim/profiler.h"
#include "tc/fox.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gputc {
namespace {

void RecordCountStage(TcAlgorithm algorithm, double ms) {
  MetricsRegistry::Global()
      .GetHistogram("gputc_stage_duration_ms",
                    "Host wall-clock of one pipeline stage in milliseconds",
                    0.0, 1000.0, 20, {{"stage", "count"}})
      .Observe(ms);
  MetricsRegistry::Global()
      .GetCounter("gputc_counts_total", "Completed counting-kernel runs",
                  {{"algorithm", ToString(algorithm)}})
      .Increment();
}

}  // namespace

RunResult RunTriangleCount(const Graph& g, TcAlgorithm algorithm,
                           const DeviceSpec& spec,
                           const PreprocessOptions& options) {
  StatusOr<RunResult> result =
      RunTriangleCountWithContext(g, algorithm, spec, options, ExecContext{});
  GPUTC_CHECK(result.ok()) << "RunTriangleCount failed: "
                           << result.status().ToString();
  return *std::move(result);
}

StatusOr<RunResult> RunTriangleCountWithContext(const Graph& g,
                                                TcAlgorithm algorithm,
                                                const DeviceSpec& spec,
                                                const PreprocessOptions& options,
                                                const ExecContext& ctx) {
  RunResult result;
  if (algorithm == TcAlgorithm::kFox &&
      options.ordering == OrderingStrategy::kAOrder) {
    // Fox reorders edges, not vertices: orient and keep vertex ids, then
    // hand the kernel an A-ordered arc sequence.
    PreprocessOptions vertex_options = options;
    vertex_options.ordering = OrderingStrategy::kOriginal;
    GPUTC_ASSIGN_OR_RETURN(result.preprocess,
                           TryPreprocess(g, spec, vertex_options, ctx));

    ResourceModel model = ResourceModel::Default();
    if (options.calibrate) {
      GPUTC_ASSIGN_OR_RETURN(model, TryCalibratedResourceModel(spec));
    }
    Timer edge_timer;
    const FoxCounter fox_for_order;
    std::vector<int64_t> edge_order;
    {
      Span order_span = StartSpan(ctx, "order");
      order_span.SetAttr("strategy", "A-order(edges)");
      edge_order =
          fox_for_order.AOrderedEdgeOrder(result.preprocess.graph, model, spec);
      order_span.SetAttr("arcs", static_cast<int64_t>(edge_order.size()));
    }
    GPUTC_RETURN_IF_ERROR(ctx.CheckContinue("pipeline.edge_order"));
    result.preprocess.ordering_ms = edge_timer.ElapsedMillis();
    result.preprocess.total_ms =
        result.preprocess.direction_ms + result.preprocess.ordering_ms;

    Timer count_timer;
    Span count_span = StartSpan(ctx, "count");
    count_span.SetAttr("algorithm", ToString(algorithm));
    GPUTC_ASSIGN_OR_RETURN(
        const TcResult tc,
        fox_for_order.TryCountWithEdgeOrder(result.preprocess.graph, spec,
                                            edge_order,
                                            WithSpan(ctx, count_span)));
    result.triangles = tc.triangles;
    result.kernel = tc.kernel;
    count_span.SetAttr("triangles", result.triangles);
    AnnotateSpanWithKernel(count_span, result.kernel);
    count_span.Finish();
    RecordCountStage(algorithm, count_timer.ElapsedMillis());
    return result;
  }

  GPUTC_ASSIGN_OR_RETURN(result.preprocess,
                         TryPreprocess(g, spec, options, ctx));
  Timer count_timer;
  Span count_span = StartSpan(ctx, "count");
  count_span.SetAttr("algorithm", ToString(algorithm));
  GPUTC_ASSIGN_OR_RETURN(
      const TcResult tc,
      MakeCounter(algorithm)->TryCount(result.preprocess.graph, spec,
                                       WithSpan(ctx, count_span)));
  result.triangles = tc.triangles;
  result.kernel = tc.kernel;
  count_span.SetAttr("triangles", result.triangles);
  AnnotateSpanWithKernel(count_span, result.kernel);
  count_span.Finish();
  RecordCountStage(algorithm, count_timer.ElapsedMillis());
  return result;
}

StatusOr<RunResult> TryRunTriangleCount(const Graph& g, TcAlgorithm algorithm,
                                        const DeviceSpec& spec,
                                        const PreprocessOptions& options) {
  const ValidationReport report = GraphDoctor().Examine(g);
  if (!report.clean()) {
    return report.ToStatus().WithContext(
        "TryRunTriangleCount: input graph failed validation");
  }
  return RunTriangleCountWithContext(g, algorithm, spec, options,
                                     ExecContext{});
}

int64_t CountTriangles(const Graph& g) {
  StatusOr<RunResult> result =
      TryRunTriangleCount(g, TcAlgorithm::kHu, DeviceSpec::TitanXpLike());
  GPUTC_CHECK(result.ok()) << "CountTriangles failed: "
                           << result.status().ToString();
  return result->triangles;
}

}  // namespace gputc
