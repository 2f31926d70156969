// Differential harness: every simulated counter, across direction and
// ordering strategies, must agree with the exact brute-force count on a
// corpus of structurally diverse graphs. This is the paper's core
// correctness claim (preprocessing never changes the triangle count, and
// all seven kernel models count the same set), checked exhaustively.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/trace.h"
#include "tc/cpu_counters.h"
#include "tc/registry.h"
#include "test_corpus.h"

namespace gputc {
namespace {

constexpr TcAlgorithm kAllAlgorithms[] = {
    TcAlgorithm::kGunrockBinarySearch, TcAlgorithm::kGunrockSortMerge,
    TcAlgorithm::kTriCore,             TcAlgorithm::kFox,
    TcAlgorithm::kBisson,              TcAlgorithm::kHu,
    TcAlgorithm::kPolak};

TEST(DifferentialTest, AllCountersAllStrategiesAgreeWithBruteForce) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  for (const CorpusEntry& entry : Corpus()) {
    const int64_t expected = CountTrianglesNodeIterator(entry.graph);
    for (TcAlgorithm algorithm : kAllAlgorithms) {
      for (DirectionStrategy direction :
           {DirectionStrategy::kIdBased, DirectionStrategy::kADirection}) {
        for (OrderingStrategy ordering :
             {OrderingStrategy::kOriginal, OrderingStrategy::kAOrder,
              OrderingStrategy::kDegree, OrderingStrategy::kRandom}) {
          PreprocessOptions options;
          options.direction = direction;
          options.ordering = ordering;
          options.calibrate = false;  // Keep the 7x2x4 sweep fast.
          const RunResult run =
              RunTriangleCount(entry.graph, algorithm, spec, options);
          EXPECT_EQ(run.triangles, expected)
              << entry.name << " / " << ToString(algorithm) << " / "
              << ToString(direction) << " / " << ToString(ordering);
        }
      }
    }
  }
}

TEST(DifferentialTest, BruteForceCountersAgreeOnCorpus) {
  for (const CorpusEntry& entry : Corpus()) {
    const int64_t node_it = CountTrianglesNodeIterator(entry.graph);
    EXPECT_EQ(CountTrianglesForward(entry.graph), node_it) << entry.name;
  }
}

// Attaching a tracer must not perturb any count: instrumentation observes
// the pipeline, it never participates in it.
TEST(DifferentialTest, TracedRunsMatchUntracedRuns) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const Graph g = GeneratePowerLawConfiguration(300, 2.3, 2, 40, 11);
  const int64_t expected = CountTrianglesNodeIterator(g);
  for (TcAlgorithm algorithm : kAllAlgorithms) {
    Tracer tracer;
    ExecContext ctx;
    ctx.tracer = &tracer;
    ctx.trace_id = tracer.NewTraceId();
    PreprocessOptions options;
    options.calibrate = false;
    const StatusOr<RunResult> run =
        RunTriangleCountWithContext(g, algorithm, spec, options, ctx);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->triangles, expected) << ToString(algorithm);
    // The run must have left stage spans behind (direct, order, count, and
    // the counter's own span at minimum).
    EXPECT_GE(tracer.size(), 4u) << ToString(algorithm);
  }
}

}  // namespace
}  // namespace gputc
