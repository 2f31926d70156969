// The differential corpus: small, structurally diverse graphs that every
// counter must agree on (differential_test) and whose per-counter results
// are pinned bit for bit (tc_golden_test).

#ifndef GPUTC_TESTS_TEST_CORPUS_H_
#define GPUTC_TESTS_TEST_CORPUS_H_

#include <string>
#include <utility>
#include <vector>

#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace gputc {

struct CorpusEntry {
  std::string name;
  Graph graph;
};

inline Graph StarOn64() {
  EdgeList list(64);
  for (VertexId leaf = 1; leaf < 64; ++leaf) list.Add(0, leaf);
  list.Normalize();
  return Graph::FromEdgeList(std::move(list));
}

/// Five 5-cliques chained by a bridge edge between consecutive cliques:
/// dense pockets (every counter's triangle-heavy path) joined by
/// triangle-free bridges.
inline Graph CliqueChain() {
  EdgeList list(25);
  for (VertexId clique = 0; clique < 5; ++clique) {
    const VertexId base = clique * 5;
    for (VertexId i = 0; i < 5; ++i) {
      for (VertexId j = i + 1; j < 5; ++j) {
        list.Add(base + i, base + j);
      }
    }
    if (clique > 0) list.Add(base - 1, base);
  }
  list.Normalize();
  return Graph::FromEdgeList(std::move(list));
}

inline Graph SingleEdge() {
  EdgeList list(2);
  list.Add(0, 1);
  return Graph::FromEdgeList(std::move(list));
}

inline std::vector<CorpusEntry> Corpus() {
  std::vector<CorpusEntry> corpus;
  corpus.push_back(
      {"power-law", GeneratePowerLawConfiguration(300, 2.3, 2, 40, 11)});
  corpus.push_back({"uniform", GenerateErdosRenyi(200, 800, 12)});
  corpus.push_back({"star", StarOn64()});
  corpus.push_back({"clique-chain", CliqueChain()});
  corpus.push_back({"empty", Graph::FromEdgeList(EdgeList(0))});
  corpus.push_back({"edgeless", Graph::FromEdgeList(EdgeList(50))});
  corpus.push_back({"single-edge", SingleEdge()});
  return corpus;
}

}  // namespace gputc

#endif  // GPUTC_TESTS_TEST_CORPUS_H_
