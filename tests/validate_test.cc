#include "graph/validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "util/random.h"

namespace gputc {
namespace {

bool HasKind(const ValidationReport& report, FindingKind kind) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [kind](const Finding& f) { return f.kind == kind; });
}

const Finding& Get(const ValidationReport& report, FindingKind kind) {
  for (const Finding& f : report.findings) {
    if (f.kind == kind) return f;
  }
  ADD_FAILURE() << "finding " << FindingKindName(kind) << " not present in: "
                << report.Summary();
  static const Finding kMissing{};
  return kMissing;
}

TEST(GraphDoctorTest, CleanEdgeListIsClean) {
  EdgeList list;
  list.Add(0, 1);
  list.Add(0, 2);
  list.Add(1, 2);
  const ValidationReport report = GraphDoctor().Examine(list);
  EXPECT_TRUE(report.clean()) << report.Summary();
  EXPECT_TRUE(report.ToStatus().ok());
  EXPECT_EQ(report.Summary(), "no defects found");
}

TEST(GraphDoctorTest, DetectsSelfLoops) {
  EdgeList list;
  list.Add(0, 1);
  list.Add(2, 2);
  list.Add(3, 3);
  const ValidationReport report = GraphDoctor().Examine(list);
  const Finding& f = Get(report, FindingKind::kSelfLoop);
  EXPECT_EQ(f.count, 2);
  EXPECT_NE(f.detail.find("edge 1"), std::string::npos);
  EXPECT_NE(f.detail.find("(2, 2)"), std::string::npos);
  EXPECT_TRUE(FindingIsRepairable(FindingKind::kSelfLoop));
  EXPECT_FALSE(report.HasStructuralDamage());
}

TEST(GraphDoctorTest, DetectsDuplicatesIncludingReversed) {
  EdgeList list;
  list.Add(0, 1);
  list.Add(1, 0);  // Same undirected edge, reversed.
  list.Add(0, 1);  // Exact repeat.
  const ValidationReport report = GraphDoctor().Examine(list);
  EXPECT_EQ(Get(report, FindingKind::kDuplicateEdge).count, 2);
  EXPECT_TRUE(HasKind(report, FindingKind::kUnsortedEdges));
  EXPECT_FALSE(report.HasStructuralDamage());
  EXPECT_EQ(report.ToStatus().code(), StatusCode::kInvalidArgument);
}

TEST(GraphDoctorTest, DetectsEndpointBeyondDeclaredUniverse) {
  EdgeList list;
  list.Add(0, 1);
  // Tamper directly: the normal API grows the universe, a corrupt loader
  // might not.
  list.mutable_edges().push_back(Edge{0, 7});
  const ValidationReport report = GraphDoctor().Examine(list);
  const Finding& f = Get(report, FindingKind::kEndpointOutOfRange);
  EXPECT_EQ(f.count, 1);
  EXPECT_NE(f.detail.find("(0, 7)"), std::string::npos);
  EXPECT_TRUE(report.HasStructuralDamage());
  EXPECT_EQ(report.ToStatus().code(), StatusCode::kDataLoss);
}

TEST(GraphDoctorTest, CapsFlagOversizedEdgeLists) {
  GraphDoctor::Options options;
  options.max_edges = 2;
  const GraphDoctor doctor(options);
  EdgeList list;
  list.Add(0, 1);
  list.Add(1, 2);
  list.Add(2, 3);
  const ValidationReport report = doctor.Examine(list);
  EXPECT_TRUE(HasKind(report, FindingKind::kEdgeCountOverflow));
  EXPECT_TRUE(report.HasStructuralDamage());
}

TEST(GraphDoctorTest, CheckCountsRejectsHugeHeaders) {
  const GraphDoctor doctor;
  EXPECT_TRUE(doctor.CheckCounts(100, 100).ok());
  const Status huge_n = doctor.CheckCounts(1ull << 40, 10);
  EXPECT_EQ(huge_n.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(huge_n.message().find("vertex count"), std::string::npos);
  const Status huge_m = doctor.CheckCounts(10, 1ull << 40);
  EXPECT_EQ(huge_m.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(huge_m.message().find("edge count"), std::string::npos);
}

TEST(GraphDoctorTest, CheckCsrAcceptsRealGraph) {
  const Graph g = GenerateErdosRenyi(50, 120, /*seed=*/3);
  EXPECT_TRUE(GraphDoctor::CheckCsr(g.num_vertices(),
                                    static_cast<uint64_t>(g.num_edges()),
                                    g.offsets(), g.adjacency())
                  .ok());
}

TEST(GraphDoctorTest, CheckCsrRejectsNonMonotonicOffsets) {
  const std::vector<EdgeCount> offsets = {0, 3, 2, 4};
  const std::vector<VertexId> adj = {1, 2, 0, 0};
  const Status s = GraphDoctor::CheckCsr(3, 2, offsets, adj);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.message().find("not monotonic"), std::string::npos);
  EXPECT_NE(s.message().find("offsets[2]"), std::string::npos);
}

TEST(GraphDoctorTest, CheckCsrRejectsBadTotal) {
  const std::vector<EdgeCount> offsets = {0, 1, 2, 3};  // offsets[n] != 2m.
  const std::vector<VertexId> adj = {1, 0, 1};
  const Status s = GraphDoctor::CheckCsr(3, 2, offsets, adj);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.message().find("2*m"), std::string::npos);
}

TEST(GraphDoctorTest, CheckCsrRejectsOutOfRangeNeighbor) {
  const std::vector<EdgeCount> offsets = {0, 1, 2};
  const std::vector<VertexId> adj = {1, 9};
  const Status s = GraphDoctor::CheckCsr(2, 1, offsets, adj);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.message().find("adjacency[1]"), std::string::npos);
}

TEST(GraphDoctorTest, ExamineGraphCleanOnLibraryOutput) {
  const Graph g = GenerateRmat(8, 4, /*seed=*/5);
  const ValidationReport report = GraphDoctor().Examine(g);
  EXPECT_TRUE(report.clean()) << report.Summary();
}

// Construction proves the CSR canonical but not that it fits a doctor's
// caps: Examine(const Graph&) still enforces them.
TEST(GraphDoctorTest, ExamineGraphReportsCountsOverLoweredCaps) {
  const Graph g = GenerateErdosRenyi(50, 120, /*seed=*/3);
  ASSERT_EQ(g.num_vertices(), 50u);
  ASSERT_EQ(g.num_edges(), 120);
  {
    GraphDoctor::Options caps;
    caps.max_vertices = 49;
    const ValidationReport report = GraphDoctor(caps).Examine(g);
    ASSERT_EQ(report.findings.size(), 1u) << report.Summary();
    EXPECT_NE(Get(report, FindingKind::kVertexCountOverflow)
                  .detail.find("vertex count 50 exceeds the configured cap 49"),
              std::string::npos);
    EXPECT_EQ(report.ToStatus().code(), StatusCode::kDataLoss);
  }
  {
    GraphDoctor::Options caps;
    caps.max_edges = 119;
    const ValidationReport report = GraphDoctor(caps).Examine(g);
    ASSERT_EQ(report.findings.size(), 1u) << report.Summary();
    EXPECT_NE(Get(report, FindingKind::kEdgeCountOverflow)
                  .detail.find("edge count 120 exceeds the configured cap 119"),
              std::string::npos);
    EXPECT_EQ(report.ToStatus().code(), StatusCode::kDataLoss);
  }
  {
    GraphDoctor::Options caps;
    caps.max_vertices = 50;
    caps.max_edges = 120;
    EXPECT_TRUE(GraphDoctor(caps).Examine(g).clean());
  }
}

// -- canonical-CSR check ----------------------------------------------------

using Rows = std::vector<std::vector<VertexId>>;

Rows RowsOf(const Graph& g) {
  Rows rows(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    rows[u].assign(g.neighbors(u).begin(), g.neighbors(u).end());
  }
  return rows;
}

struct Csr {
  std::vector<EdgeCount> offsets{0};
  std::vector<VertexId> adj;
};

Csr CsrOf(const Rows& rows) {
  Csr csr;
  for (const std::vector<VertexId>& row : rows) {
    csr.adj.insert(csr.adj.end(), row.begin(), row.end());
    csr.offsets.push_back(static_cast<EdgeCount>(csr.adj.size()));
  }
  return csr;
}

/// Oracle: the per-row scan Examine(const Graph&) ran before the linear
/// check (a binary search per arc), over raw arrays. One finding per defect
/// kind, each with the first instance in row-major order. That scan asked
/// Graph::HasEdge(v, u), which searches the shorter of the two rows and so
/// passed a missing mirror whenever row v was the longer one; the oracle
/// searches row v itself.
std::vector<Finding> PerRowScan(const Csr& csr) {
  const VertexId n = static_cast<VertexId>(csr.offsets.size() - 1);
  const auto row = [&](VertexId v) {
    return std::span<const VertexId>(
        csr.adj.data() + csr.offsets[v],
        static_cast<size_t>(csr.offsets[v + 1] - csr.offsets[v]));
  };
  const auto lists = [&](VertexId u, VertexId v) {
    return std::binary_search(row(u).begin(), row(u).end(), v);
  };
  int64_t loops = 0, unsorted = 0, dups = 0, asym = 0;
  std::string first_loop, first_unsorted, first_dup, first_asym;
  for (VertexId u = 0; u < n; ++u) {
    const auto nbrs = row(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == u && loops++ == 0) {
        first_loop = "vertex " + std::to_string(u) + " lists itself";
      }
      if (i > 0 && nbrs[i] < nbrs[i - 1] && unsorted++ == 0) {
        first_unsorted = "row of vertex " + std::to_string(u) +
                         " is not sorted at position " + std::to_string(i);
      }
      if (i > 0 && nbrs[i] == nbrs[i - 1] && dups++ == 0) {
        first_dup = "vertex " + std::to_string(u) + " lists neighbor " +
                    std::to_string(nbrs[i]) + " twice";
      }
      if (nbrs[i] != u && !lists(nbrs[i], u) && asym++ == 0) {
        first_asym = "edge (" + std::to_string(u) + ", " +
                     std::to_string(nbrs[i]) + ") has no mirror entry";
      }
    }
  }
  std::vector<Finding> found;
  if (loops > 0) found.push_back({FindingKind::kSelfLoop, loops, first_loop});
  if (unsorted > 0) {
    found.push_back({FindingKind::kAdjacencyUnsorted, unsorted,
                     first_unsorted});
  }
  if (dups > 0) found.push_back({FindingKind::kDuplicateEdge, dups, first_dup});
  if (asym > 0) {
    found.push_back({FindingKind::kAsymmetricAdjacency, asym, first_asym});
  }
  return found;
}

void InsertSorted(std::vector<VertexId>& row, VertexId v) {
  row.insert(std::upper_bound(row.begin(), row.end(), v), v);
}

/// Plants at most one defect of the five classes (or none) in `rows`.
std::string PlantDefect(Rows& rows, Rng& rng) {
  const VertexId n = static_cast<VertexId>(rows.size());
  const auto nonempty_row = [&]() {
    for (;;) {
      const VertexId u = rng.NextU32(n);
      if (!rows[u].empty()) return u;
    }
  };
  switch (rng.NextU32(6)) {
    case 0: {  // Drop one mirror, add an entry elsewhere: total stays 2m.
      const VertexId u = nonempty_row();
      const VertexId v = rows[u][rng.NextU32(
          static_cast<uint32_t>(rows[u].size()))];
      std::erase(rows[v], u);
      InsertSorted(rows[rng.NextU32(n)], rng.NextU32(n));
      return "drop mirror of (" + std::to_string(u) + ", " +
             std::to_string(v) + ") + add";
    }
    case 1: {  // Swap two adjacent entries.
      VertexId u = nonempty_row();
      while (rows[u].size() < 2) u = nonempty_row();
      const size_t i = rng.NextU32(static_cast<uint32_t>(rows[u].size() - 1));
      std::swap(rows[u][i], rows[u][i + 1]);
      return "swap in row " + std::to_string(u);
    }
    case 2: {  // Duplicate an entry in place.
      const VertexId u = nonempty_row();
      const size_t i = rng.NextU32(static_cast<uint32_t>(rows[u].size()));
      rows[u].insert(rows[u].begin() + static_cast<ptrdiff_t>(i), rows[u][i]);
      return "duplicate in row " + std::to_string(u);
    }
    case 3: {  // Self loop.
      const VertexId u = rng.NextU32(n);
      InsertSorted(rows[u], u);
      return "self loop at " + std::to_string(u);
    }
    case 4: {  // Move an entry to another row, keeping both rows sorted.
      const VertexId u = nonempty_row();
      const size_t i = rng.NextU32(static_cast<uint32_t>(rows[u].size()));
      const VertexId v = rows[u][i];
      rows[u].erase(rows[u].begin() + static_cast<ptrdiff_t>(i));
      InsertSorted(rows[rng.NextU32(n)], v);
      return "move entry " + std::to_string(v) + " out of row " +
             std::to_string(u);
    }
    default:
      return "none";
  }
}

TEST(CanonicalCsrTest, AgreesWithPerRowScanOnPlantedDefects) {
  const std::vector<Graph> graphs = {
      GenerateErdosRenyi(60, 200, /*seed=*/1),
      GenerateRmat(7, 6, /*seed=*/2),
      GenerateBarabasiAlbert(80, 3, /*seed=*/3),
      GenerateWattsStrogatz(50, 4, 0.2, /*seed=*/4),
      StarGraph(12),
      CompleteGraph(6),
  };
  Rng rng(11);
  int defective = 0;
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    for (int trial = 0; trial < 400; ++trial) {
      Rows rows = RowsOf(graphs[gi]);
      const std::string planted = PlantDefect(rows, rng);
      const Csr csr = CsrOf(rows);
      const VertexId n = static_cast<VertexId>(rows.size());
      // Offsets stay monotonic with in-range ids; a plant that adds one
      // entry leaves an odd total, which only CheckCsr's 2m rule refuses.
      if (csr.adj.size() % 2 == 0) {
        ASSERT_TRUE(GraphDoctor::CheckCsr(n, csr.adj.size() / 2, csr.offsets,
                                          csr.adj)
                        .ok());
      }
      const std::vector<Finding> oracle = PerRowScan(csr);
      const std::optional<Finding> got =
          GraphDoctor::FindNonCanonical(csr.offsets, csr.adj);
      const std::string where =
          "graph " + std::to_string(gi) + ", trial " + std::to_string(trial) +
          ", planted " + planted;
      ASSERT_EQ(got.has_value(), !oracle.empty())
          << where << (got ? ": got " + got->detail : ": oracle " +
                                                          oracle[0].detail);
      if (!got) continue;
      ++defective;
      EXPECT_EQ(got->count, 1) << where;
      const bool only_asymmetric =
          oracle.size() == 1 &&
          oracle[0].kind == FindingKind::kAsymmetricAdjacency;
      if (got->kind == FindingKind::kAsymmetricAdjacency) {
        // Rows are canonical, so the named arc is a real unmirrored one.
        ASSERT_TRUE(only_asymmetric) << where << ": " << got->detail;
        unsigned a = 0, b = 0;
        ASSERT_EQ(std::sscanf(got->detail.c_str(),
                              "edge (%u, %u) has no mirror entry", &a, &b),
                  2)
            << got->detail;
        EXPECT_TRUE(std::binary_search(rows[a].begin(), rows[a].end(), b))
            << where << ": " << got->detail;
        EXPECT_FALSE(std::binary_search(rows[b].begin(), rows[b].end(), a))
            << where << ": " << got->detail;
        continue;
      }
      // A row defect: the first one in row-major order, as the scan saw it.
      ASSERT_FALSE(only_asymmetric) << where << ": " << got->detail;
      const auto same = std::find_if(
          oracle.begin(), oracle.end(),
          [&](const Finding& f) { return f.kind == got->kind; });
      ASSERT_NE(same, oracle.end()) << where << ": " << got->detail;
      EXPECT_EQ(got->detail, same->detail) << where;
    }
  }
  EXPECT_GT(defective, 1000);  // Most plants are defects, not no-ops.
}

TEST(CanonicalCsrTest, NamesEachDefectKind) {
  const auto check = [](std::vector<EdgeCount> offsets,
                        std::vector<VertexId> adj, FindingKind kind,
                        const std::string& detail) {
    const std::optional<Finding> got =
        GraphDoctor::FindNonCanonical(offsets, adj);
    ASSERT_TRUE(got.has_value()) << detail;
    EXPECT_EQ(got->kind, kind) << got->detail;
    EXPECT_EQ(got->detail, detail);
  };
  // Row 1 empty, row 2 = [0]: the entry (0, 1) has no mirror.
  check({0, 1, 1, 2}, {1, 0}, FindingKind::kAsymmetricAdjacency,
        "edge (0, 1) has no mirror entry");
  // Row 0 = [2, 1] is symmetric but unsorted.
  check({0, 2, 3, 4}, {2, 1, 0, 0}, FindingKind::kAdjacencyUnsorted,
        "row of vertex 0 is not sorted at position 1");
  check({0, 2, 4}, {1, 1, 0, 0}, FindingKind::kDuplicateEdge,
        "vertex 0 lists neighbor 1 twice");
  check({0, 1, 3}, {1, 0, 1}, FindingKind::kSelfLoop, "vertex 1 lists itself");
  // An unsorted row 2 = [1, 0] makes row 0's mirror look missing; the row
  // defect is what gets reported.
  check({0, 1, 2, 4}, {2, 2, 1, 0}, FindingKind::kAdjacencyUnsorted,
        "row of vertex 2 is not sorted at position 1");
  EXPECT_FALSE(GraphDoctor::FindNonCanonical(std::vector<EdgeCount>{0},
                                             std::vector<VertexId>{})
                   .has_value());
}

TEST(GraphDoctorTest, BuildGraphRejectPolicyFailsOnLoops) {
  EdgeList list;
  list.Add(0, 1);
  list.Add(1, 1);
  const StatusOr<Graph> g =
      GraphDoctor().BuildGraph(list, RepairPolicy::kReject);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(g.status().message().find("self-loop"), std::string::npos);
}

TEST(GraphDoctorTest, BuildGraphRepairPolicyNormalizes) {
  EdgeList list;
  list.Add(0, 1);
  list.Add(1, 0);  // Duplicate of (0, 1).
  list.Add(1, 1);  // Self loop.
  list.Add(1, 2);
  ValidationReport report;
  const StatusOr<Graph> g =
      GraphDoctor().BuildGraph(list, RepairPolicy::kRepair, &report);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 2);  // (0,1) and (1,2).
  EXPECT_TRUE(HasKind(report, FindingKind::kSelfLoop));
  EXPECT_TRUE(HasKind(report, FindingKind::kDuplicateEdge));
}

TEST(GraphDoctorTest, BuildGraphRepairCannotFixStructuralDamage) {
  EdgeList list;
  list.Add(0, 1);
  list.mutable_edges().push_back(Edge{0, 9});  // Beyond the universe.
  const StatusOr<Graph> g =
      GraphDoctor().BuildGraph(list, RepairPolicy::kRepair);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
}

TEST(GraphDoctorTest, BuildGraphCleanInputPassesRejectPolicy) {
  EdgeList list;
  list.Add(0, 1);
  list.Add(0, 2);
  const StatusOr<Graph> g =
      GraphDoctor().BuildGraph(list, RepairPolicy::kReject);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_edges(), 2);
}

TEST(ValidationReportTest, SummaryNamesEveryFinding) {
  EdgeList list;
  list.Add(0, 0);
  list.Add(1, 2);
  list.Add(2, 1);
  const ValidationReport report = GraphDoctor().Examine(list);
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("self-loop"), std::string::npos);
  EXPECT_NE(summary.find("duplicate-edge"), std::string::npos);
}

}  // namespace
}  // namespace gputc
