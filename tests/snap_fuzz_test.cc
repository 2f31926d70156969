// Seeded, bounded differential fuzz of the SNAP text parser. The reference
// is a line-at-a-time `getline` + `istringstream` reader, the most direct
// statement of the accepted syntax; on every input both must agree on the
// status code, the message (and with it the line number) and the raw edge
// list.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/edge_list.h"
#include "graph/io.h"
#include "util/random.h"

namespace gputc {
namespace {

/// Reference parser. Caps are omitted: no fuzz input comes near them.
StatusOr<EdgeList> ReferenceReadSnap(std::istream& in) {
  EdgeList list;
  std::unordered_map<uint64_t, VertexId> remap;
  auto dense_id = [&remap](uint64_t raw) {
    return remap.emplace(raw, static_cast<VertexId>(remap.size()))
        .first->second;
  };
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t a = 0, b = 0;
    if (!(ls >> a >> b)) {
      const std::string quoted =
          line.size() <= 60 ? line : line.substr(0, 60) + "...";
      return DataLossError("line " + std::to_string(line_number) +
                           ": expected 'u v' pair, got \"" + quoted + "\"");
    }
    const VertexId u = dense_id(a);
    const VertexId v = dense_id(b);
    list.Add(u, v);
  }
  list.set_num_vertices(static_cast<VertexId>(remap.size()));
  return list;
}

void ExpectSameParse(const std::string& input) {
  std::istringstream in(input), ref_in(input);
  const StatusOr<EdgeList> got = ReadSnapEdgeList(in);
  const StatusOr<EdgeList> want = ReferenceReadSnap(ref_in);
  ASSERT_EQ(got.status().code(), want.status().code());
  ASSERT_EQ(got.status().message(), want.status().message());
  if (!want.ok()) return;
  ASSERT_EQ(got->edges(), want->edges());
  ASSERT_EQ(got->num_vertices(), want->num_vertices());
}

/// Tokens near the edges of what `>> uint64_t` accepts.
const char* const kTokens[] = {
    "0",  "-0", "+0", "1", "-1", "+", "-", "007", "18446744073709551615",
    "18446744073709551616", "-18446744073709551615", "-18446744073709551616",
    "99999999999999999999", "4294967295", "4294967296", "#", "%", "x1", "1x",
};

std::string RandomShortInput(Rng& rng) {
  static const std::string kAlphabet("0123456789 \t\r\n\v\f#%+-x\0", 23);
  std::string s;
  const size_t length = rng.NextBounded(40);
  if (rng.NextBounded(4) != 0) {  // Raw characters.
    for (size_t i = 0; i < length; ++i) {
      s += kAlphabet[rng.NextBounded(kAlphabet.size())];
    }
    return s;
  }
  // Boundary tokens joined by random separators.
  const char* const kSeparators[] = {" ", "\t", "\n", "\r\n", "  ", "\v", ""};
  for (size_t i = 0; i < length / 4; ++i) {
    s += kTokens[rng.NextBounded(std::size(kTokens))];
    s += kSeparators[rng.NextBounded(std::size(kSeparators))];
  }
  return s;
}

TEST(SnapFuzzTest, ShortInputsMatchReference) {
  Rng rng(/*seed=*/20261017);
  for (int i = 0; i < 100'000; ++i) {
    const std::string input = RandomShortInput(rng);
    SCOPED_TRACE(testing::PrintToString(input));
    ExpectSameParse(input);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(SnapFuzzTest, MultiChunkInputsMatchReference) {
  // Mostly valid lines over a small id range, so the remap sees repeats, with
  // a rare defect that ends the parse at a line far past the first chunk.
  Rng rng(/*seed=*/7);
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE(round);
    std::string input;
    while (input.size() < (size_t{600} << 10)) {
      switch (rng.NextBounded(64)) {
        case 0:
          input += "# comment\r\n";
          break;
        case 1:
          if (round % 2 == 1) input += RandomShortInput(rng) + "\n";
          break;
        default:
          input += std::to_string(rng.NextBounded(5000)) + " " +
                   std::to_string(rng.NextBounded(5000)) + "\n";
      }
    }
    ExpectSameParse(input);
    if (testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace gputc
