#include <gtest/gtest.h>

#include "direction/direction.h"
#include "graph/generators.h"
#include "tc/cpu_counters.h"

namespace gputc {
namespace {

TEST(CpuCountersTest, KnownFixtureCounts) {
  EXPECT_EQ(CountTrianglesNodeIterator(CompleteGraph(5)), 10);
  EXPECT_EQ(CountTrianglesForward(CompleteGraph(5)), 10);

  EXPECT_EQ(CountTrianglesNodeIterator(WheelGraph(8)), 7);
  EXPECT_EQ(CountTrianglesForward(CycleGraph(10)), 0);
}

TEST(CpuCountersTest, EmptyAndTinyGraphs) {
  const Graph empty = Graph::FromEdgeList(EdgeList{});
  EXPECT_EQ(CountTrianglesNodeIterator(empty), 0);
  EXPECT_EQ(CountTrianglesForward(empty), 0);
  EXPECT_EQ(CountTrianglesForward(PathGraph(2)), 0);
}

class CpuAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CpuAgreementTest, AllCountersAgreeOnRandomGraphs) {
  const uint64_t seed = GetParam();
  for (const Graph& g :
       {GenerateErdosRenyi(300, 2000, seed),
        GeneratePowerLawConfiguration(400, 2.0, 2, 80, seed),
        GenerateRmat(8, 8, seed), GenerateWattsStrogatz(300, 6, 0.2, seed)}) {
    const int64_t expected = CountTrianglesNodeIterator(g);
    EXPECT_EQ(CountTrianglesForward(g), expected);
    // The engine's sum is orientation-invariant for every acyclic scheme.
    for (DirectionStrategy strategy : AllDirectionStrategies()) {
      const StatusOr<int64_t> engine =
          TryCountTrianglesDirected(Orient(g, strategy), ExecContext{});
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ(*engine, expected) << ToString(strategy);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuAgreementTest,
                         ::testing::Values(1, 7, 42, 123));

TEST(CpuCountersTest, DenseSmallWorldHasManyTriangles) {
  // Ring lattice k=6 without rewiring: each vertex participates in
  // triangles with its near neighbors.
  const Graph g = GenerateWattsStrogatz(500, 6, 0.0, 9);
  EXPECT_GT(CountTrianglesForward(g), 900);
}

TEST(CpuCountersTest, EngineRefusesToPassCountLimit) {
  ExecContext ctx;
  ctx.count_limit = 5;
  const StatusOr<int64_t> count = TryCountTrianglesDirected(
      Orient(CompleteGraph(5), DirectionStrategy::kDegreeBased), ctx);
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kOutOfRange);
}

TEST(CpuCountersTest, EngineObservesPreCancelledContext) {
  ExecContext ctx;
  ctx.cancel.Cancel("cancelled before counting");
  const StatusOr<int64_t> count = TryCountTrianglesDirected(
      Orient(CompleteGraph(5), DirectionStrategy::kDegreeBased), ctx);
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace gputc
