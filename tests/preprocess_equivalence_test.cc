// Differential test of the linear-time preprocessing path against the
// sort-based implementations it replaced, kept here as oracles: the deque
// A-direction peel, the comparison-sort A-order, per-vertex Eq. 3 pricing
// and orient-then-relabel (FromRank, then ApplyPermutation). Permutations,
// CSR arrays and the bits of both model costs must match exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/preprocess.h"
#include "direction/cost_model.h"
#include "direction/direction.h"
#include "direction/peeling.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "order/aorder.h"
#include "order/calibration.h"
#include "order/classic_orders.h"
#include "order/ordering.h"
#include "order/resource_model.h"
#include "test_corpus.h"
#include "util/random.h"

namespace gputc {
namespace {

// ------------------------------------------------------------------ oracles

PeelingResult OraclePeel(const Graph& g, double threshold_growth = 2.0) {
  const VertexId n = g.num_vertices();
  PeelingResult result;
  if (n == 0) return result;
  std::vector<EdgeCount> residual(n);
  for (VertexId v = 0; v < n; ++v) residual[v] = g.degree(v);
  std::vector<bool> peeled(n, false);
  std::vector<bool> queued(n, false);
  double threshold = std::max(
      1.0, static_cast<double>(g.num_edges()) / static_cast<double>(n));
  VertexId remaining = n;
  while (remaining > 0) {
    std::vector<VertexId> frontier;
    for (VertexId v = 0; v < n; ++v) {
      if (!peeled[v] && static_cast<double>(residual[v]) <= threshold) {
        frontier.push_back(v);
      }
    }
    if (frontier.empty()) {
      threshold *= threshold_growth;
      ++result.rounds;
      continue;
    }
    std::sort(frontier.begin(), frontier.end(), [&](VertexId a, VertexId b) {
      return residual[a] != residual[b] ? residual[a] < residual[b] : a < b;
    });
    std::deque<VertexId> queue(frontier.begin(), frontier.end());
    for (VertexId v : frontier) queued[v] = true;
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop_front();
      peeled[v] = true;
      --remaining;
      result.peel_degree = std::max(result.peel_degree, residual[v]);
      result.peel_order.push_back(v);
      for (VertexId nbr : g.neighbors(v)) {
        if (peeled[nbr]) continue;
        --residual[nbr];
        if (!queued[nbr] && static_cast<double>(residual[nbr]) <= threshold) {
          queued[nbr] = true;
          queue.push_back(nbr);
        }
      }
    }
    threshold *= threshold_growth;
    ++result.rounds;
  }
  return result;
}

double OracleImbalanceCost(const std::vector<EdgeCount>& out_degrees,
                           const Permutation& perm, int bucket_size,
                           const ResourceModel& model) {
  const size_t n = out_degrees.size();
  const size_t size = static_cast<size_t>(bucket_size);
  std::vector<BucketCost> costs((n + size - 1) / size);
  for (VertexId v = 0; v < n; ++v) {
    costs[perm[v] / size].compute += model.ComputeIntensity(out_degrees[v]);
    costs[perm[v] / size].memory += model.MemoryIntensity(out_degrees[v]);
  }
  double total = 0.0;
  for (const BucketCost& b : costs) {
    total += std::abs(model.lambda() * b.compute - b.memory);
  }
  return total;
}

struct HeapEntry {
  double mem_sup;
  int bucket;
};

AOrderResult OracleAOrder(const std::vector<EdgeCount>& out_degrees,
                          const ResourceModel& model,
                          const AOrderOptions& options) {
  const size_t n = out_degrees.size();
  AOrderResult result;
  result.perm.assign(n, 0);
  if (n == 0) return result;
  const size_t bucket_size = static_cast<size_t>(options.bucket_size);
  const size_t num_buckets = (n + bucket_size - 1) / bucket_size;
  std::vector<VertexId> mem_dominated;
  std::vector<VertexId> comp_dominated;
  std::vector<double> superiority(n);
  for (VertexId v = 0; v < n; ++v) {
    superiority[v] = model.MemorySuperiority(out_degrees[v]);
    (superiority[v] > 0.0 ? mem_dominated : comp_dominated).push_back(v);
  }
  result.num_memory_dominated = static_cast<int64_t>(mem_dominated.size());
  result.num_compute_dominated = static_cast<int64_t>(comp_dominated.size());
  auto by_abs_desc = [&superiority](VertexId a, VertexId b) {
    const double sa = std::abs(superiority[a]);
    const double sb = std::abs(superiority[b]);
    return sa != sb ? sa > sb : a < b;
  };
  std::sort(mem_dominated.begin(), mem_dominated.end(), by_abs_desc);
  std::sort(comp_dominated.begin(), comp_dominated.end(), by_abs_desc);

  std::vector<std::vector<VertexId>> buckets(num_buckets);
  std::vector<double> bucket_sup(num_buckets, 0.0);
  std::vector<char> placed(n, 0);
  int64_t dispatched = 0;
  auto stop_requested = [&options, &dispatched]() {
    return options.exec != nullptr && dispatched++ % 1024 == 0 &&
           options.exec->stop_requested();
  };
  // `min_first` selects phase 1's min-heap, else phase 2's max-heap; both
  // break ties toward the lower bucket index.
  auto pack = [&](const std::vector<VertexId>& vertices, bool min_first) {
    auto cmp = [min_first](const HeapEntry& a, const HeapEntry& b) {
      if (a.mem_sup != b.mem_sup) {
        return min_first ? a.mem_sup > b.mem_sup : a.mem_sup < b.mem_sup;
      }
      return a.bucket > b.bucket;
    };
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(cmp)> heap(
        cmp);
    for (size_t b = 0; b < num_buckets; ++b) {
      if (buckets[b].size() < bucket_size) {
        heap.push(HeapEntry{bucket_sup[b], static_cast<int>(b)});
      }
    }
    for (VertexId v : vertices) {
      if (stop_requested()) {
        result.aborted = true;
        return;
      }
      const HeapEntry top = heap.top();
      heap.pop();
      const size_t b = static_cast<size_t>(top.bucket);
      buckets[b].push_back(v);
      placed[v] = 1;
      bucket_sup[b] += superiority[v];
      if (buckets[b].size() < bucket_size) {
        heap.push(HeapEntry{bucket_sup[b], top.bucket});
      }
    }
  };
  pack(mem_dominated, true);
  if (!result.aborted) pack(comp_dominated, false);

  std::vector<VertexId> sequence;
  for (const auto& bucket : buckets) {
    sequence.insert(sequence.end(), bucket.begin(), bucket.end());
  }
  if (result.aborted) {
    for (VertexId v = 0; v < n; ++v) {
      if (!placed[v]) sequence.push_back(v);
    }
  }
  if (options.sort_within_bucket) {
    for (size_t chunk = 0; chunk < n; chunk += bucket_size) {
      std::sort(sequence.begin() + static_cast<ptrdiff_t>(chunk),
                sequence.begin() +
                    static_cast<ptrdiff_t>(std::min(n, chunk + bucket_size)),
                [&out_degrees](VertexId a, VertexId b) {
                  return out_degrees[a] != out_degrees[b]
                             ? out_degrees[a] > out_degrees[b]
                             : a < b;
                });
    }
  }
  for (VertexId position = 0; position < n; ++position) {
    result.perm[sequence[position]] = position;
  }
  result.imbalance_cost = OracleImbalanceCost(out_degrees, result.perm,
                                              options.bucket_size, model);
  return result;
}

/// The two-pass orientation: count, prefix-sum, fill with a cursor array.
DirectedGraph OracleFromRank(const Graph& g,
                             const std::vector<VertexId>& rank) {
  const VertexId n = g.num_vertices();
  auto points_out = [&rank](VertexId u, VertexId v) {
    return rank[u] < rank[v] || (rank[u] == rank[v] && u < v);
  };
  std::vector<EdgeCount> offsets(static_cast<size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (points_out(u, v)) ++offsets[u + 1];
    }
  }
  for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<VertexId> adj(static_cast<size_t>(offsets.back()));
  std::vector<EdgeCount> cursor(offsets.begin(), offsets.end() - 1);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (points_out(u, v)) adj[static_cast<size_t>(cursor[u]++)] = v;
    }
  }
  return DirectedGraph::FromParts(std::move(offsets), std::move(adj));
}

/// TryPreprocess as it was: orient, order on the oriented copy, relabel it.
PreprocessResult OraclePreprocess(const Graph& g, const DeviceSpec& spec,
                                  const PreprocessOptions& options) {
  const ResourceModel model = options.calibrate
                                  ? CalibratedResourceModel(spec)
                                  : ResourceModel::Default();
  const std::vector<VertexId> rank =
      options.direction == DirectionStrategy::kADirection
          ? PermutationFromSequence(OraclePeel(g).peel_order)
          : DirectionRank(g, options.direction, options.seed);
  const DirectedGraph directed = OracleFromRank(g, rank);
  AOrderOptions aorder = options.aorder;
  if (aorder.bucket_size <= 0) aorder.bucket_size = spec.threads_per_block();
  PreprocessResult result;
  result.direction_cost = DirectionCost(directed);
  result.vertex_perm =
      options.ordering == OrderingStrategy::kAOrder
          ? OracleAOrder(directed.OutDegrees(), model, aorder).perm
          : ComputeOrdering(g, directed, options.ordering, model, aorder,
                            options.seed);
  result.graph = ApplyPermutation(directed, result.vertex_perm);
  result.ordering_cost = OracleImbalanceCost(
      directed.OutDegrees(), result.vertex_perm, aorder.bucket_size, model);
  return result;
}

// ------------------------------------------------------------------ helpers

std::string Hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

void ExpectSameAOrder(const AOrderResult& got, const AOrderResult& want) {
  EXPECT_EQ(got.perm, want.perm);
  EXPECT_EQ(got.num_memory_dominated, want.num_memory_dominated);
  EXPECT_EQ(got.num_compute_dominated, want.num_compute_dominated);
  EXPECT_EQ(got.aborted, want.aborted);
  EXPECT_EQ(Hex(got.imbalance_cost), Hex(want.imbalance_cost));
}

constexpr OrderingStrategy kAllOrderings[] = {
    OrderingStrategy::kOriginal, OrderingStrategy::kDegree,
    OrderingStrategy::kAOrder,   OrderingStrategy::kDfs,
    OrderingStrategy::kBfsR,     OrderingStrategy::kSlashBurn,
    OrderingStrategy::kGro,      OrderingStrategy::kBfs,
    OrderingStrategy::kRcm,      OrderingStrategy::kRandom};

/// A perfect matching {2k, 2k+1} plus a few hubs: under ID-based
/// orientation the matched vertices alternate out-degree 1, 0, 1, 0, ...
/// by id — the two degrees that clamp to the same A-order class.
Graph InterleavedZeroOneDegrees() {
  EdgeList list(1030);
  for (VertexId v = 0; v + 1 < 1000; v += 2) list.Add(v, v + 1);
  for (VertexId hub = 1000; hub < 1030; ++hub) {
    for (VertexId v = hub % 7; v < 1000; v += 3) list.Add(hub, v);
  }
  list.Normalize();
  return Graph::FromEdgeList(std::move(list));
}

/// Two small communities and many isolated vertices, n = 777.
Graph MostlyIsolated() {
  EdgeList list(777);
  for (VertexId u = 0; u < 12; ++u) {
    for (VertexId v = u + 1; v < 12; ++v) list.Add(u, v);
  }
  for (VertexId v = 401; v < 450; ++v) list.Add(400, v);
  list.Normalize();
  return Graph::FromEdgeList(std::move(list));
}

std::vector<CorpusEntry> EquivalenceGraphs() {
  std::vector<CorpusEntry> graphs = Corpus();
  graphs.push_back({"one-vertex", Graph::FromEdgeList(EdgeList(1))});
  graphs.push_back({"interleaved-0-1", InterleavedZeroOneDegrees()});
  graphs.push_back({"mostly-isolated", MostlyIsolated()});
  for (const uint64_t seed : {3u, 4u}) {
    const std::string tag = "-s" + std::to_string(seed);
    graphs.push_back({"er-1000" + tag, GenerateErdosRenyi(1000, 5000, seed)});
    graphs.push_back({"power-law-1500" + tag,
                      GeneratePowerLawConfiguration(1500, 2.05, 1, 400, seed)});
    graphs.push_back({"rmat-10" + tag, GenerateRmat(10, 8, seed)});
    graphs.push_back(
        {"watts-strogatz-900" + tag, GenerateWattsStrogatz(900, 6, 0.1, seed)});
    graphs.push_back(
        {"barabasi-albert-1100" + tag, GenerateBarabasiAlbert(1100, 3, seed)});
  }
  return graphs;
}

// -------------------------------------------------------------------- tests

TEST(PreprocessEquivalenceTest, PeelMatchesDequeOracle) {
  for (const CorpusEntry& entry : EquivalenceGraphs()) {
    for (const double growth : {1.25, 2.0, 4.0}) {
      SCOPED_TRACE(entry.name + " growth=" + std::to_string(growth));
      PeelingOptions options;
      options.threshold_growth = growth;
      const PeelingResult got = ADirectionPeel(entry.graph, options);
      const PeelingResult want = OraclePeel(entry.graph, growth);
      EXPECT_EQ(got.peel_order, want.peel_order);
      EXPECT_EQ(got.rounds, want.rounds);
      EXPECT_EQ(got.peel_degree, want.peel_degree);
    }
  }
}

TEST(PreprocessEquivalenceTest, FusedBuildMatchesOrientThenRelabel) {
  for (const CorpusEntry& entry : EquivalenceGraphs()) {
    SCOPED_TRACE(entry.name);
    const Graph& g = entry.graph;
    const VertexId n = g.num_vertices();
    Rng rng(n + 17);
    // Duplicate ranks exercise the id tie-break.
    std::vector<VertexId> coarse_rank(n);
    for (VertexId& r : coarse_rank) {
      r = static_cast<VertexId>(rng.NextBounded(5));
    }
    for (DirectionStrategy direction : AllDirectionStrategies()) {
      for (const std::vector<VertexId>& rank :
           {DirectionRank(g, direction, 9), coarse_rank}) {
        const DirectedGraph oriented = OracleFromRank(g, rank);
        const DirectedGraph from_rank = DirectedGraph::FromRank(g, rank);
        EXPECT_EQ(from_rank.offsets(), oriented.offsets());
        EXPECT_EQ(from_rank.adjacency(), oriented.adjacency());
        EXPECT_EQ(DirectedGraph::OutDegreesFromRank(g, rank),
                  oriented.OutDegrees());
        const Permutation perm = RandomOrder(n, n + 5);
        const DirectedGraph fused = DirectedGraph::FromRank(
            g, rank, DirectedGraph::OutDegreesFromRank(g, rank), perm);
        const DirectedGraph relabeled = ApplyPermutation(oriented, perm);
        EXPECT_EQ(fused.offsets(), relabeled.offsets());
        EXPECT_EQ(fused.adjacency(), relabeled.adjacency());
        EXPECT_EQ(fused.num_edges(), g.num_edges());
      }
    }
  }
}

TEST(PreprocessEquivalenceTest, AOrderMatchesSortOracle) {
  const ResourceModel calibrated =
      CalibratedResourceModel(DeviceSpec::TitanXpLike());
  const ResourceModel published = ResourceModel::Default();
  std::vector<std::pair<std::string, std::vector<EdgeCount>>> inputs;
  for (const CorpusEntry& entry : EquivalenceGraphs()) {
    inputs.push_back(
        {entry.name, Orient(entry.graph, DirectionStrategy::kADirection)
                         .OutDegrees()});
  }
  // Out-degrees 0 and 1 interleaved by id, plus long lists: the class that
  // two degrees share must dispatch in id order.
  std::vector<EdgeCount> interleaved;
  for (int i = 0; i < 700; ++i) {
    interleaved.push_back(i % 3 == 0 ? 0 : (i % 3 == 1 ? 1 : 2 + i % 50));
    if (i % 37 == 0) interleaved.push_back(3000 + i);
  }
  inputs.push_back({"interleaved", interleaved});
  // Fox's arc units: d~(u) repeated once per out-arc of u.
  std::vector<EdgeCount> arcs;
  const DirectedGraph fox_graph = Orient(
      GeneratePowerLawConfiguration(600, 2.1, 1, 120, 8),
      DirectionStrategy::kADirection);
  for (VertexId u = 0; u < fox_graph.num_vertices(); ++u) {
    for (EdgeCount i = 0; i < fox_graph.out_degree(u); ++i) {
      arcs.push_back(fox_graph.out_degree(u));
    }
  }
  inputs.push_back({"fox-arcs", arcs});
  inputs.push_back({"one", {0}});

  for (const auto& [name, degrees] : inputs) {
    for (const ResourceModel* model : {&calibrated, &published}) {
      for (const int bucket : {1, 7, 64, 256}) {
        for (const bool sort_within : {true, false}) {
          SCOPED_TRACE(name + " bucket=" + std::to_string(bucket) +
                       " sort=" + std::to_string(sort_within));
          AOrderOptions options;
          options.bucket_size = bucket;
          options.sort_within_bucket = sort_within;
          ExpectSameAOrder(AOrder(degrees, *model, options),
                           OracleAOrder(degrees, *model, options));
          const Permutation identity =
              IdentityPermutation(static_cast<VertexId>(degrees.size()));
          EXPECT_EQ(
              Hex(OrderingImbalanceCost(degrees, identity, bucket, *model)),
              Hex(OracleImbalanceCost(degrees, identity, bucket, *model)));
        }
      }
    }
  }
}

TEST(PreprocessEquivalenceTest, CancelledAOrderAbortsIdentically) {
  const ResourceModel model =
      CalibratedResourceModel(DeviceSpec::TitanXpLike());
  const std::vector<EdgeCount> degrees =
      Orient(GeneratePowerLawConfiguration(3000, 2.1, 1, 300, 6),
             DirectionStrategy::kADirection)
          .OutDegrees();
  ExecContext cancelled;
  cancelled.cancel.Cancel("stop before packing");
  AOrderOptions options;
  options.bucket_size = 256;
  options.exec = &cancelled;
  const AOrderResult got = AOrder(degrees, model, options);
  EXPECT_TRUE(got.aborted);
  ExpectSameAOrder(got, OracleAOrder(degrees, model, options));

  // Through the pipeline the stop surfaces as the same Status as before,
  // whatever the strategies.
  const Graph g = GenerateErdosRenyi(500, 2000, 2);
  for (DirectionStrategy direction : AllDirectionStrategies()) {
    PreprocessOptions prep;
    prep.direction = direction;
    const StatusOr<PreprocessResult> result =
        TryPreprocess(g, DeviceSpec::TitanXpLike(), prep, cancelled);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().ToString(),
              CancelledError("stop before packing")
                  .WithContext("preprocess")
                  .ToString());
  }
}

TEST(PreprocessEquivalenceTest, PipelineMatchesOracleForEveryStrategy) {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  for (const CorpusEntry& entry : EquivalenceGraphs()) {
    for (DirectionStrategy direction : AllDirectionStrategies()) {
      for (OrderingStrategy ordering : kAllOrderings) {
        SCOPED_TRACE(entry.name + " " + ToString(direction) + " " +
                     ToString(ordering));
        PreprocessOptions options;
        options.direction = direction;
        options.ordering = ordering;
        options.seed = 7;
        // Vary the model by graph, and the bucket between the device
        // default (256) and 100, neither of which need divide n.
        options.calibrate = entry.graph.num_vertices() % 2 == 0;
        options.aorder.bucket_size =
            direction == DirectionStrategy::kRandom ? 100 : 0;
        const StatusOr<PreprocessResult> got =
            TryPreprocess(entry.graph, spec, options, ExecContext{});
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const PreprocessResult want =
            OraclePreprocess(entry.graph, spec, options);
        EXPECT_EQ(got->vertex_perm, want.vertex_perm);
        EXPECT_EQ(got->graph.offsets(), want.graph.offsets());
        EXPECT_EQ(got->graph.adjacency(), want.graph.adjacency());
        EXPECT_EQ(Hex(got->direction_cost), Hex(want.direction_cost));
        EXPECT_EQ(Hex(got->ordering_cost), Hex(want.ordering_cost));
      }
    }
  }
}

}  // namespace
}  // namespace gputc
