// Golden snapshot of every simulated counter: the triangle count and all
// twelve KernelStats fields, for each counter x direction x ordering over
// the differential corpus plus one multi-block graph. Doubles are printed
// with %a, so a match is bit-exact. Any refactor of the counters must leave
// every line unchanged; a mismatch prints the actual line.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/preprocess.h"
#include "graph/generators.h"
#include "tc/registry.h"
#include "tc/tricore.h"
#include "test_corpus.h"

namespace gputc {
namespace {

// One "<case> <triangles> <KernelStats...>" line per case.
constexpr const char* kGolden[] = {
#include "tc_golden_data.inc"
};

std::string Line(const std::string& key, int64_t triangles,
                 const KernelStats& k) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s %" PRId64 " %a %a %" PRId64 " %" PRId64
                " %a %a %a %a %a %a %a %a",
                key.c_str(), triangles, k.cycles, k.millis, k.num_blocks,
                k.supersteps, k.total_ops, k.total_transactions,
                k.total_shared_transactions, k.compute_cycles,
                k.memory_cycles, k.shared_cycles, k.sync_cycles,
                k.sm_utilization);
  return buf;
}

std::string Key(const std::string& graph, const std::string& counter,
                const PreprocessOptions& options) {
  return graph + "/" + counter + "/" + ToString(options.direction) + "/" +
         ToString(options.ordering) + "/calibrate=" +
         (options.calibrate ? "1" : "0");
}

/// Every registry counter through the pipeline, plus TriCore's sort-merge
/// variant (not in the registry) on the preprocessed graph.
void AppendLines(const std::string& name, const Graph& g,
                 const PreprocessOptions& options,
                 std::vector<std::string>* lines) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  for (TcAlgorithm algorithm :
       {TcAlgorithm::kGunrockBinarySearch, TcAlgorithm::kGunrockSortMerge,
        TcAlgorithm::kTriCore, TcAlgorithm::kFox, TcAlgorithm::kBisson,
        TcAlgorithm::kHu, TcAlgorithm::kPolak}) {
    const RunResult run = RunTriangleCount(g, algorithm, spec, options);
    lines->push_back(Line(Key(name, ToString(algorithm), options),
                          run.triangles, run.kernel));
  }
  const PreprocessResult prep = Preprocess(g, spec, options);
  const TcResult sm = TriCoreCounter(IntersectStrategy::kSortMerge)
                          .Count(prep.graph, spec);
  lines->push_back(Line(Key(name, "TriCore-sm", options), sm.triangles,
                        sm.kernel));
}

std::vector<std::string> ActualLines() {
  std::vector<CorpusEntry> graphs = Corpus();
  // Several thousand vertices: every vertex-bucketed counter spans many
  // blocks, and Fox fills both its thread and warp bins.
  graphs.push_back({"rmat-11", GenerateRmat(11, 8, 5)});
  std::vector<std::string> lines;
  for (const CorpusEntry& entry : graphs) {
    for (DirectionStrategy direction :
         {DirectionStrategy::kIdBased, DirectionStrategy::kDegreeBased,
          DirectionStrategy::kADirection}) {
      for (OrderingStrategy ordering :
           {OrderingStrategy::kOriginal, OrderingStrategy::kAOrder,
            OrderingStrategy::kDegree, OrderingStrategy::kRandom}) {
        PreprocessOptions options;
        options.direction = direction;
        options.ordering = ordering;
        options.calibrate = false;
        AppendLines(entry.name, entry.graph, options, &lines);
      }
    }
  }
  // Default options (calibrated A-direction + A-order; Fox takes its
  // edge-A-order path) on the multi-block graph.
  AppendLines(graphs.back().name, graphs.back().graph, PreprocessOptions{},
              &lines);
  return lines;
}

TEST(TcGoldenTest, CountersMatchSnapshotBitForBit) {
  std::map<std::string, std::string> golden;
  for (const char* line : kGolden) {
    const std::string s(line);
    golden.emplace(s.substr(0, s.find(' ')), s);
  }
  const std::vector<std::string> actual = ActualLines();
  EXPECT_EQ(golden.size(), actual.size());
  for (const std::string& line : actual) {
    const auto it = golden.find(line.substr(0, line.find(' ')));
    if (it == golden.end() || it->second != line) {
      ADD_FAILURE() << "actual: " << line;
    }
  }
}

}  // namespace
}  // namespace gputc
