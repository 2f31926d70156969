#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "util/durable_file.h"

namespace gputc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SnapTextTest, ParsesCommentsAndWhitespace) {
  std::istringstream in(
      "# comment line\n"
      "% another comment\n"
      "0\t1\n"
      "1 2\n"
      "\n"
      "2   0\n");
  const auto g = ReadSnapText(in);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 3);
}

TEST(SnapTextTest, RemapsSparseIdsDensely) {
  std::istringstream in("1000000 2000000\n2000000 5\n");
  const auto g = ReadSnapText(in);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 2);
}

TEST(SnapTextTest, MalformedLineFails) {
  std::istringstream in("0 1\nnot numbers\n");
  EXPECT_FALSE(ReadSnapText(in).has_value());
}

TEST(SnapTextTest, RoundTrip) {
  const Graph g = GenerateErdosRenyi(80, 200, /*seed=*/1);
  std::ostringstream out;
  WriteSnapText(g, out);
  std::istringstream in(out.str());
  const auto h = ReadSnapText(in);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->num_vertices(), g.num_vertices());
  EXPECT_EQ(h->num_edges(), g.num_edges());
  // Writer emits edges in id order, so the reader's dense remap may relabel;
  // compare degree multisets.
  std::vector<EdgeCount> dg, dh;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    dg.push_back(g.degree(v));
    dh.push_back(h->degree(v));
  }
  std::sort(dg.begin(), dg.end());
  std::sort(dh.begin(), dh.end());
  EXPECT_EQ(dg, dh);
}

TEST(SnapTextTest, FileRoundTrip) {
  const Graph g = GenerateRmat(6, 4, /*seed=*/9);
  const std::string path = TempPath("snap_roundtrip.txt");
  ASSERT_TRUE(SaveSnapText(g, path));
  const auto h = LoadSnapText(path);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->num_edges(), g.num_edges());
  std::remove(path.c_str());
}

TEST(SnapTextTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(LoadSnapText("/nonexistent/path/graph.txt").has_value());
}

// -- SNAP syntax table --------------------------------------------------------
//
// Pins the exact accepted syntax of ReadSnapEdgeList: each token is read the
// way `istream >> uint64_t` reads it in the C locale, '#'/'%' only mark a
// comment in column 0, and an error names its line and quotes it. Edges are
// the raw first-seen-remapped pairs, before any normalization.

struct SnapSyntaxRow {
  const char* name;
  std::string input;
  int error_line;  // 0: parses; otherwise the DataLoss line number.
  std::vector<Edge> edges;
  VertexId num_vertices;
};

std::string ExpectedLineError(int line, const std::string& text) {
  return "line " + std::to_string(line) + ": expected 'u v' pair, got \"" +
         text + "\"";
}

TEST(SnapSyntaxTableTest, EveryRowMatchesItsPinnedOutcome) {
  using namespace std::string_literals;
  const std::vector<SnapSyntaxRow> rows = {
      {"plus_sign", "+3 4\n", 0, {{0, 1}}, 2},
      {"minus_sign", "-1 2\n", 0, {{0, 1}}, 2},
      // '-' negates modulo 2^64: -1 and 2^64-1 are the same raw id.
      {"minus_wraps", "-1 18446744073709551615\n-0 0\n", 0, {{0, 0}, {1, 1}},
       2},
      {"u64_max", "18446744073709551615 1\n", 0, {{0, 1}}, 2},
      {"u64_overflow", "0 1\n18446744073709551616 1\n", 2, {}, 0},
      {"vt_ff_whitespace", "\v1\f2\n", 0, {{0, 1}}, 2},
      {"crlf", "# c\r\n1 2\r\n2 3\r\n", 0, {{0, 1}, {1, 2}}, 3},
      {"crlf_blank_line", "1 2\r\n\r\n3 4\r\n", 2, {}, 0},
      {"no_final_newline", "1 2\n3 4", 0, {{0, 1}, {2, 3}}, 4},
      {"blank_and_comments", "\n\n# a\n%b\n\n", 0, {}, 0},
      {"empty", "", 0, {}, 0},
      {"space_before_hash", " # x\n", 1, {}, 0},
      {"trailing_token", "1 2 3\n", 0, {{0, 1}}, 2},
      {"comma", "1,2\n", 1, {}, 0},
      {"glued_letters", "12abc 3\n", 1, {}, 0},
      {"sign_without_digits", "- 1\n", 1, {}, 0},
      {"missing_endpoint", "0 1\n5\n", 2, {}, 0},
      {"embedded_nul_between", "1\0 2\n"s, 1, {}, 0},
      {"embedded_nul_trailing", "1 2\0x\n"s, 0, {{0, 1}}, 2},
      {"loops_and_duplicates", "7 7\n7 8\n8 7\n", 0, {{0, 0}, {0, 1}, {1, 0}},
       2},
  };
  for (const SnapSyntaxRow& row : rows) {
    SCOPED_TRACE(row.name);
    std::istringstream in(row.input);
    const StatusOr<EdgeList> list = ReadSnapEdgeList(in);
    if (row.error_line == 0) {
      ASSERT_TRUE(list.ok()) << list.status().ToString();
      EXPECT_EQ(list->edges(), row.edges);
      EXPECT_EQ(list->num_vertices(), row.num_vertices);
      continue;
    }
    ASSERT_FALSE(list.ok());
    EXPECT_EQ(list.status().code(), StatusCode::kDataLoss);
    // The quoted text is the whole line without its '\n', CR and NUL kept.
    std::string line = row.input;
    for (int i = 1; i < row.error_line; ++i) {
      line.erase(0, line.find('\n') + 1);
    }
    line = line.substr(0, line.find('\n'));
    EXPECT_EQ(list.status().message(),
              ExpectedLineError(row.error_line, line));
  }
}

TEST(SnapSyntaxTableTest, LineLongerThanAnyReadChunk) {
  // 300 KB of blanks inside one edge line, then a 300 KB comment line.
  const std::string input = "1" + std::string(300'000, ' ') + "2\n#" +
                            std::string(300'000, 'c') + "\n3 4\n";
  std::istringstream in(input);
  const StatusOr<EdgeList> list = ReadSnapEdgeList(in);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list->edges(), (std::vector<Edge>{{0, 1}, {2, 3}}));
}

TEST(SnapSyntaxTableTest, LongMalformedLineIsQuotedTruncated) {
  const std::string bad = "9 x" + std::string(300'000, 'y');
  std::istringstream in("0 1\n1 2\n" + bad + "\n");
  const StatusOr<EdgeList> list = ReadSnapEdgeList(in);
  ASSERT_FALSE(list.ok());
  EXPECT_EQ(list.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(list.status().message(),
            ExpectedLineError(3, bad.substr(0, 60) + "..."));
}

TEST(SnapSyntaxTableTest, LineStraddlingAChunkBoundary) {
  // A comment pads the stream so that edge line "123456 654321" spans byte
  // 2^18: every power-of-two chunk size up to 256 KiB splits it. Regular
  // edge lines follow until the stream is well past two chunks.
  constexpr size_t kBoundary = size_t{1} << 18;
  const std::string straddler = "123456 654321\n";
  std::string input = "#" + std::string(kBoundary - 5 - 2, '-') + "\n";
  ASSERT_EQ(input.size() + 5, kBoundary);
  input += straddler;
  std::vector<Edge> expected = {{0, 1}};
  VertexId next = 2;
  while (input.size() < 3 * kBoundary) {
    input += std::to_string(next) + " " + std::to_string(next + 1) + "\n";
    expected.push_back({next, next + 1});
    next += 2;
  }
  const int bad_line = 2 + static_cast<int>(expected.size());
  input += "oops\n";
  {
    std::istringstream in(input.substr(0, input.size() - 5));
    const StatusOr<EdgeList> list = ReadSnapEdgeList(in);
    ASSERT_TRUE(list.ok()) << list.status().ToString();
    EXPECT_EQ(list->edges(), expected);
    EXPECT_EQ(list->num_vertices(), next);
  }
  std::istringstream in(input);
  const StatusOr<EdgeList> list = ReadSnapEdgeList(in);
  ASSERT_FALSE(list.ok());
  EXPECT_EQ(list.status().message(), ExpectedLineError(bad_line, "oops"));
}

TEST(BinaryTest, RoundTripExact) {
  const Graph g = GenerateErdosRenyi(120, 500, /*seed=*/13);
  const std::string path = TempPath("graph.bin");
  ASSERT_TRUE(SaveBinary(g, path));
  const auto h = LoadBinary(path);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->num_vertices(), g.num_vertices());
  EXPECT_EQ(h->num_edges(), g.num_edges());
  EXPECT_EQ(h->offsets(), g.offsets());
  EXPECT_EQ(h->adjacency(), g.adjacency());
  std::remove(path.c_str());
}

TEST(BinaryTest, RejectsWrongMagic) {
  const std::string path = TempPath("not_a_graph.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage data that is not a graph";
  }
  EXPECT_FALSE(LoadBinary(path).has_value());
  std::remove(path.c_str());
}

TEST(BinaryTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(LoadBinary("/nonexistent/graph.bin").has_value());
}

// Property test: the v2 binary format round-trips bit-identically over a
// corpus spanning every generator family plus the degenerate shapes that
// historically break binary formats (empty, single vertex, edgeless,
// star hubs, zero-degree tails).
TEST(BinaryV2PropertyTest, RoundTripsBitIdenticallyOverCorpus) {
  std::vector<std::pair<std::string, Graph>> corpus;
  corpus.emplace_back("empty", Graph());
  corpus.emplace_back("single-vertex",
                      Graph::FromEdgeList(EdgeList(/*num_vertices=*/1)));
  corpus.emplace_back("edgeless-100",
                      Graph::FromEdgeList(EdgeList(/*num_vertices=*/100)));
  corpus.emplace_back("star-64", StarGraph(64));
  corpus.emplace_back("complete-8", CompleteGraph(8));
  corpus.emplace_back("cycle-10", CycleGraph(10));
  corpus.emplace_back("path-5", PathGraph(5));
  corpus.emplace_back("wheel-12", WheelGraph(12));
  corpus.emplace_back("bipartite-3x7", CompleteBipartiteGraph(3, 7));
  corpus.emplace_back("er", GenerateErdosRenyi(120, 500, /*seed=*/13));
  corpus.emplace_back("rmat", GenerateRmat(7, 8, /*seed=*/21));
  corpus.emplace_back("ws", GenerateWattsStrogatz(100, 4, 0.1, /*seed=*/5));
  corpus.emplace_back("powerlaw",
                      GeneratePowerLawConfiguration(200, 2.3, /*min_degree=*/1,
                                                    /*max_degree=*/30,
                                                    /*seed=*/11));
  corpus.emplace_back("ba", GenerateBarabasiAlbert(150, 3, /*seed=*/17));

  for (const auto& [name, g] : corpus) {
    const std::string path = TempPath("v2_prop_" + name + ".bin");
    ASSERT_TRUE(SaveBinaryDurable(g, path).ok()) << name;
    StatusOr<Graph> h = LoadBinary(path);
    ASSERT_TRUE(h.ok()) << name << ": " << h.status().ToString();
    EXPECT_EQ(h->num_vertices(), g.num_vertices()) << name;
    EXPECT_EQ(h->num_edges(), g.num_edges()) << name;
    EXPECT_EQ(h->offsets(), g.offsets()) << name;
    EXPECT_EQ(h->adjacency(), g.adjacency()) << name;
    // Saving the reloaded graph reproduces the file byte for byte — the
    // format has a single canonical encoding per graph.
    const std::string resaved = TempPath("v2_prop_" + name + "_resaved.bin");
    ASSERT_TRUE(SaveBinaryDurable(*h, resaved).ok()) << name;
    std::ifstream a(path, std::ios::binary), b(resaved, std::ios::binary);
    std::ostringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str()) << name;
    std::remove(path.c_str());
    std::remove(resaved.c_str());
  }
}

// -- graph digest -------------------------------------------------------------
//
// Graph::digest() is set once, by whichever path built the graph, and keys
// the prep cache. Each path must yield the CRC32Cs of the arrays the graph
// holds, and copies and moves must carry them along.

void ExpectDigestOfArrays(const Graph& g, const std::string& label) {
  const GraphDigest want{
      Crc32c(g.offsets().data(), g.offsets().size() * sizeof(EdgeCount)),
      Crc32c(g.adjacency().data(), g.adjacency().size() * sizeof(VertexId))};
  EXPECT_EQ(g.digest(), want) << label;
  const Graph copy = g;
  EXPECT_EQ(copy.digest(), want) << label << " (copy)";
  Graph source = g;
  const Graph moved = std::move(source);
  EXPECT_EQ(moved.digest(), want) << label << " (move)";
  Graph assigned;
  assigned = moved;
  EXPECT_EQ(assigned.digest(), want) << label << " (copy-assigned)";
}

/// Writes `g` in the legacy v1 layout: {magic, n, m}, offsets, adjacency.
void WriteV1(const Graph& g, const std::string& path) {
  const uint64_t header[3] = {0x43545550'47525048ull, g.num_vertices(),
                              static_cast<uint64_t>(g.num_edges())};
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(g.offsets().data()),
            static_cast<std::streamsize>(g.offsets().size() *
                                         sizeof(EdgeCount)));
  out.write(reinterpret_cast<const char*>(g.adjacency().data()),
            static_cast<std::streamsize>(g.adjacency().size() *
                                         sizeof(VertexId)));
}

TEST(GraphDigestTest, InMemoryConstructionsDigestTheirArrays) {
  ExpectDigestOfArrays(Graph(), "default");
  ExpectDigestOfArrays(Graph::FromEdgeList(EdgeList{}), "FromEdgeList(empty)");
  ExpectDigestOfArrays(Graph::FromEdgeList(EdgeList(7)), "edgeless");
  const Graph g = GenerateErdosRenyi(120, 500, /*seed=*/13);
  ExpectDigestOfArrays(g, "FromEdgeList");
  // The empty graph built either way is one CSR, so one digest.
  EXPECT_EQ(Graph().digest(), Graph::FromEdgeList(EdgeList{}).digest());

  StatusOr<Graph> adopted = Graph::FromCsr(g.offsets(), g.adjacency());
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  ExpectDigestOfArrays(*adopted, "FromCsr");
  EXPECT_EQ(adopted->digest(), g.digest());
}

TEST(GraphDigestTest, LoadedGraphsDigestTheirArrays) {
  const Graph g = GenerateErdosRenyi(120, 500, /*seed=*/13);

  const std::string v2 = TempPath("digest_v2.bin");
  ASSERT_TRUE(SaveBinaryDurable(g, v2).ok());
  const StatusOr<Graph> from_v2 = LoadBinary(v2);
  ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
  ExpectDigestOfArrays(*from_v2, "LoadBinary(v2)");
  EXPECT_EQ(from_v2->digest(), g.digest());

  const std::string v1 = TempPath("digest_v1.bin");
  WriteV1(g, v1);
  const StatusOr<Graph> from_v1 = LoadBinary(v1);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  ExpectDigestOfArrays(*from_v1, "LoadBinary(v1)");
  EXPECT_EQ(from_v1->digest(), g.digest());

  const std::string text = TempPath("digest.txt");
  ASSERT_TRUE(SaveSnapTextDurable(g, text).ok());
  const StatusOr<Graph> from_text = LoadSnapText(text);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  ExpectDigestOfArrays(*from_text, "LoadSnapText");

  std::remove(v2.c_str());
  std::remove(v1.c_str());
  std::remove(text.c_str());
}

}  // namespace
}  // namespace gputc
