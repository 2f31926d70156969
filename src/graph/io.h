#ifndef GPUTC_GRAPH_IO_H_
#define GPUTC_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "graph/edge_list.h"
#include "graph/graph.h"
#include "util/status.h"

namespace gputc {

// All loaders return StatusOr so every failure carries a code and a
// context-bearing message (file, line or byte offset, expected vs actual).
// StatusOr mirrors std::optional's accessors, so legacy optional-style call
// sites (`has_value()`, `*`, `->`) keep working; new code should branch on
// ok() and report status().message().

// SNAP-style text format: '#'/'%' comment lines, then one "u<ws>v" pair per
// line. Vertex ids are remapped to a dense [0, n) range in first-seen order,
// matching how the paper's datasets are consumed.

/// Parses a SNAP edge-list stream into a normalized Graph. Self loops and
/// duplicate pairs are silently canonicalized away (use ReadSnapEdgeList +
/// GraphDoctor to detect them). Errors name the offending line.
StatusOr<Graph> ReadSnapText(std::istream& in);

/// Loads a SNAP edge-list file. kNotFound if the file cannot be opened;
/// parse errors are annotated with the path.
StatusOr<Graph> LoadSnapText(const std::string& path);

/// Parses a SNAP stream into the raw staging EdgeList, *preserving* self
/// loops and duplicate edges so GraphDoctor can report or repair them.
///
/// Accepted syntax, line by line (a line ends at '\n' or at end of stream):
///   - an empty line, or one whose first byte is '#' or '%', is skipped;
///     a comment marker after leading blanks is not a comment;
///   - any other line must start with two tokens, each read exactly as
///     `istream >> uint64_t` reads it in the C locale: skip ' ' and
///     '\t'..'\r' (so a trailing '\r' is harmless), an optional '+' or '-'
///     ('-' negates modulo 2^64), then one or more decimal digits, failing
///     on overflow past 2^64 - 1. Whatever follows the second token is
///     ignored.
/// A line that does not hold two tokens is kDataLoss naming the line and
/// quoting it (truncated to 60 bytes); passing the GraphDoctor ingestion
/// caps is kResourceExhausted. Raw ids map to dense ids in first-seen order,
/// the first token of a line before the second. The stream is read in
/// fixed-size chunks and never held whole: memory is the edge list, the id
/// map and one chunk.
StatusOr<EdgeList> ReadSnapEdgeList(std::istream& in);

/// Writes a graph in SNAP text format (one undirected edge per line, u < v).
void WriteSnapText(const Graph& g, std::ostream& out);

/// Saves SNAP text atomically (write temp, fsync, rename): a crash mid-save
/// never leaves a torn file under `path`.
Status SaveSnapTextDurable(const Graph& g, const std::string& path);

/// Legacy bool wrapper around SaveSnapTextDurable.
bool SaveSnapText(const Graph& g, const std::string& path);

// Binary format v2 (what SaveBinary writes): a little-endian header
// {magic, version, flags, n, m, offsets CRC32C, adjacency CRC32C, header
// CRC32C} followed by the CSR offsets and adjacency. The finalized flag and
// the three checksums let LoadBinary reject torn or bit-rotted files with a
// precise Status instead of silently loading garbage, and the writer goes
// through the atomic temp -> fsync -> rename protocol, so a crash mid-save
// never leaves a half-written graph under the target path. Legacy v1 files
// ({magic, n, m}, no checksums) still load, with a deprecation warning.

/// Saves in the native binary format (v2, checksummed, written atomically).
Status SaveBinaryDurable(const Graph& g, const std::string& path);

/// Legacy bool wrapper around SaveBinaryDurable.
bool SaveBinary(const Graph& g, const std::string& path);

/// Loads the native binary format with full structural validation: the
/// header is checked against the physical file size and allocation caps
/// *before* any payload-sized buffer is allocated, offsets must be monotonic
/// with offsets[n] == 2m, and every adjacency id must be in range. The CSR
/// must be canonical: every row sorted strictly ascending (so no
/// duplicates), no self loops, and symmetric. The arrays read are adopted
/// as the Graph without a rebuild (Graph::FromCsr's linear check), and a v2
/// file's verified section CRCs become its digest() without a second pass;
/// a v1 file is digested once. A non-canonical file is kDataLoss "not
/// canonical", never silently sorted or reassembled. Use LoadBinaryEdgeList
/// + GraphDoctor for repairable inputs.
StatusOr<Graph> LoadBinary(const std::string& path);

/// Binary loader that stops after structural validation and returns the raw
/// edge list (the upper-triangle entries, self loops and in-row duplicates
/// preserved) for GraphDoctor. An asymmetric CSR — upper entries (u, v) and
/// mirrored lower entries (v, u) differ as multisets — is kDataLoss
/// "asymmetric adjacency": no repair can tell which side is right.
StatusOr<EdgeList> LoadBinaryEdgeList(const std::string& path);

// Extension-dispatching conveniences used by the CLI: ".bin" selects the
// binary format, anything else SNAP text.

/// Loads a graph from `path` by extension.
StatusOr<Graph> LoadGraph(const std::string& path);

/// Loads the raw edge list from `path` by extension.
StatusOr<EdgeList> LoadEdgeList(const std::string& path);

/// Saves `g` to `path` by extension, reporting failures as Status.
Status SaveGraph(const Graph& g, const std::string& path);

}  // namespace gputc

#endif  // GPUTC_GRAPH_IO_H_
