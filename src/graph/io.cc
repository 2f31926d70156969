#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/validate.h"
#include "util/durable_file.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace gputc {
namespace {

constexpr uint64_t kBinaryMagic = 0x43545550'47525048ull;  // v1, "GPUTCGRPH".
constexpr uint64_t kHeaderBytes = 3 * sizeof(uint64_t);    // v1: magic, n, m.

// v2 header layout (all little-endian):
//   u64 magic      kBinaryMagicV2
//   u32 version    2
//   u32 flags      bit 0 = finalized (writer completed the payload)
//   u64 n, u64 m
//   u32 offsets_crc   CRC32C of the offsets section
//   u32 adj_crc       CRC32C of the adjacency section
//   u32 reserved      0
//   u32 header_crc    CRC32C of the 44 preceding header bytes
constexpr uint64_t kBinaryMagicV2 = 0x32564752'47525048ull;  // "GPUTCGRV2".
constexpr uint32_t kBinaryVersion = 2;
constexpr uint32_t kFlagFinalized = 1u << 0;
constexpr uint64_t kHeaderBytesV2 = 48;
constexpr uint64_t kHeaderCrcCoverage = kHeaderBytesV2 - sizeof(uint32_t);

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

template <typename T>
void AppendScalar(std::string* out, T value) {
  AppendRaw(out, &value, sizeof(value));
}

template <typename T>
T ReadScalar(const char* p) {
  T value;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

std::string Truncate(const std::string& s, size_t limit = 60) {
  if (s.size() <= limit) return s;
  return s.substr(0, limit) + "...";
}

std::string HexU64(uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

/// Reads `count` elements into `out`, reporting how many bytes were missing
/// on short reads. The caller has already verified the physical file size,
/// so a failure here means the file changed underfoot or the stream broke.
template <typename T>
Status ReadArray(std::istream& in, std::vector<T>& out, size_t count,
                 const char* what) {
  out.resize(count);
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  if (!in) {
    std::ostringstream msg;
    msg << "short read in " << what << ": wanted " << count * sizeof(T)
        << " bytes, got " << in.gcount();
    return DataLossError(msg.str());
  }
  return OkStatus();
}

/// Bytes per `read` of SNAP text: large enough to amortize the call, small
/// enough that concurrent loads keep a flat footprint.
constexpr size_t kSnapChunkBytes = size_t{64} << 10;

/// Reads one token from [p, end) exactly as `istream >> uint64_t` does in
/// the C locale: skips ' ' and '\t'..'\r', takes an optional '+' or '-' ('-'
/// negates modulo 2^64), then at least one decimal digit. Fails on a missing
/// digit or on overflow. On success p points just past the last digit.
bool ParseU64(const char*& p, const char* end, uint64_t* out) {
  while (p != end && (*p == ' ' || (*p >= '\t' && *p <= '\r'))) ++p;
  const bool negative = p != end && *p == '-';
  if (p != end && (*p == '+' || *p == '-')) ++p;
  const char* const digits = p;
  uint64_t value = 0;
  bool overflow = false;
  for (; p != end; ++p) {
    const unsigned digit = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (digit > 9) break;
    overflow |= __builtin_mul_overflow(value, 10u, &value);
    overflow |= __builtin_add_overflow(value, digit, &value);
  }
  if (p == digits || overflow) return false;
  *out = negative ? 0 - value : value;
  return true;
}

/// Maps raw SNAP ids to dense ids in first-seen order: linear probing over a
/// power-of-two table of {raw, id} slots kept at most three quarters full.
class DenseIdMap {
 public:
  DenseIdMap() { Rehash(10); }

  VertexId size() const { return size_; }

  /// Returns the dense id of `raw`, assigning the next one if it is new.
  VertexId Intern(uint64_t raw) {
    if (4 * (static_cast<size_t>(size_) + 1) > 3 * slots_.size()) {
      Rehash(log2_slots_ + 1);
    }
    for (size_t i = Home(raw);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& slot = slots_[i];
      if (slot.id == kEmpty) {
        slot = {raw, size_};
        return size_++;
      }
      if (slot.raw == raw) return slot.id;
    }
  }

 private:
  static constexpr VertexId kEmpty = ~VertexId{0};
  struct Slot {
    uint64_t raw = 0;
    VertexId id = kEmpty;
  };

  /// Fibonacci hashing: the top bits of raw * 2^64/phi.
  size_t Home(uint64_t raw) const {
    return static_cast<size_t>((raw * 0x9E3779B97F4A7C15ull) >>
                               (64 - log2_slots_));
  }

  void Rehash(int log2_slots) {
    std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(size_t{1} << log2_slots));
    log2_slots_ = log2_slots;
    for (const Slot& slot : old) {
      if (slot.id == kEmpty) continue;
      size_t i = Home(slot.raw);
      while (slots_[i].id != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  int log2_slots_ = 0;
  VertexId size_ = 0;
};

}  // namespace

StatusOr<EdgeList> ReadSnapEdgeList(std::istream& in) {
  const GraphDoctor doctor;
  EdgeList list;
  DenseIdMap ids;
  int64_t line_number = 0;
  // Handles one line, [begin, end) without its '\n'.
  const auto parse_line = [&](const char* begin, const char* end) -> Status {
    ++line_number;
    if (begin == end || *begin == '#' || *begin == '%') return OkStatus();
    const char* p = begin;
    uint64_t a = 0, b = 0;
    if (!ParseU64(p, end, &a) || !ParseU64(p, end, &b)) {
      std::ostringstream msg;
      msg << "line " << line_number << ": expected 'u v' pair, got \""
          << Truncate(std::string(begin, end)) << "\"";
      return DataLossError(msg.str());
    }
    // Sequence the two lookups explicitly: argument evaluation order is
    // unspecified, and first-seen-order remapping must be deterministic.
    const VertexId u = ids.Intern(a);
    const VertexId v = ids.Intern(b);
    list.Add(u, v);
    if (ids.size() > doctor.options().max_vertices ||
        list.num_edges() > doctor.options().max_edges) {
      std::ostringstream msg;
      msg << "line " << line_number << ": graph exceeds the ingestion caps ("
          << ids.size() << " vertices, " << list.num_edges() << " edges)";
      return ResourceExhaustedError(msg.str());
    }
    return OkStatus();
  };

  const auto chunk = std::make_unique_for_overwrite<char[]>(kSnapChunkBytes);
  std::string partial;  // The line cut off by the end of the last chunk.
  while (in.read(chunk.get(), kSnapChunkBytes) || in.gcount() > 0) {
    const char* p = chunk.get();
    const char* const end = p + in.gcount();
    while (const char* nl = static_cast<const char*>(
               std::memchr(p, '\n', static_cast<size_t>(end - p)))) {
      if (partial.empty()) {
        GPUTC_RETURN_IF_ERROR(parse_line(p, nl));
      } else {
        partial.append(p, nl);
        GPUTC_RETURN_IF_ERROR(
            parse_line(partial.data(), partial.data() + partial.size()));
        partial.clear();
      }
      p = nl + 1;
    }
    partial.append(p, end);
  }
  if (in.bad()) return DataLossError("stream failed while reading edge list");
  if (!partial.empty()) {  // A last line with no '\n'.
    GPUTC_RETURN_IF_ERROR(
        parse_line(partial.data(), partial.data() + partial.size()));
  }
  list.set_num_vertices(ids.size());
  return list;
}

StatusOr<Graph> ReadSnapText(std::istream& in) {
  GPUTC_ASSIGN_OR_RETURN(EdgeList list, ReadSnapEdgeList(in));
  return Graph::FromEdgeList(std::move(list));
}

StatusOr<Graph> LoadSnapText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  StatusOr<Graph> g = ReadSnapText(in);
  if (!g.ok()) return g.status().WithContext("LoadSnapText('" + path + "')");
  return g;
}

void WriteSnapText(const Graph& g, std::ostream& out) {
  out << "# gputc graph: " << g.num_vertices() << " vertices, "
      << g.num_edges() << " undirected edges\n";
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) out << u << '\t' << v << '\n';
    }
  }
}

Status SaveSnapTextDurable(const Graph& g, const std::string& path) {
  std::ostringstream out;
  WriteSnapText(g, out);
  const Status saved = WriteFileAtomic(path, out.str());
  if (!saved.ok()) return saved.WithContext("SaveSnapText('" + path + "')");
  return saved;
}

bool SaveSnapText(const Graph& g, const std::string& path) {
  return SaveSnapTextDurable(g, path).ok();
}

Status SaveBinaryDurable(const Graph& g, const std::string& path) {
  const uint64_t n = g.num_vertices();
  const uint64_t m = static_cast<uint64_t>(g.num_edges());
  const char* offsets_bytes =
      reinterpret_cast<const char*>(g.offsets().data());
  const size_t offsets_size = g.offsets().size() * sizeof(EdgeCount);
  const char* adj_bytes = reinterpret_cast<const char*>(g.adjacency().data());
  const size_t adj_size = g.adjacency().size() * sizeof(VertexId);

  std::string header;
  header.reserve(kHeaderBytesV2);
  AppendScalar<uint64_t>(&header, kBinaryMagicV2);
  AppendScalar<uint32_t>(&header, kBinaryVersion);
  AppendScalar<uint32_t>(&header, kFlagFinalized);
  AppendScalar<uint64_t>(&header, n);
  AppendScalar<uint64_t>(&header, m);
  AppendScalar<uint32_t>(&header, g.digest().offsets_crc);
  AppendScalar<uint32_t>(&header, g.digest().adj_crc);
  AppendScalar<uint32_t>(&header, 0);  // Reserved.
  AppendScalar<uint32_t>(&header, Crc32c(header.data(), header.size()));

  const auto save = [&]() -> Status {
    GPUTC_ASSIGN_OR_RETURN(AtomicFileWriter out,
                           AtomicFileWriter::Create(path));
    GPUTC_RETURN_IF_ERROR(out.Append(header));
    GPUTC_RETURN_IF_ERROR(out.Append(offsets_bytes, offsets_size));
    GPUTC_RETURN_IF_ERROR(out.Append(adj_bytes, adj_size));
    return out.Commit();
  };
  const Status saved = save();
  if (!saved.ok()) return saved.WithContext("SaveBinary('" + path + "')");
  return saved;
}

bool SaveBinary(const Graph& g, const std::string& path) {
  return SaveBinaryDurable(g, path).ok();
}

namespace {

/// Validates the header counts and the implied payload size against the
/// physical file *before* allocating anything the header controls (the caps
/// bound n and m, so the byte arithmetic cannot overflow uint64), then reads
/// the offsets and adjacency sections that follow the header.
Status ReadSections(std::istream& in, uint64_t file_size,
                    uint64_t header_bytes, uint64_t n, uint64_t m,
                    std::vector<EdgeCount>* offsets,
                    std::vector<VertexId>* adj) {
  GPUTC_RETURN_IF_ERROR(
      GraphDoctor().CheckCounts(n, m).WithContext("header"));
  const uint64_t expected_size = header_bytes + (n + 1) * sizeof(EdgeCount) +
                                 2 * m * sizeof(VertexId);
  if (file_size != expected_size) {
    std::ostringstream msg;
    msg << "header claims n = " << n << ", m = " << m << " implying "
        << expected_size << " bytes, but the file is " << file_size
        << " bytes";
    return DataLossError(msg.str());
  }
  GPUTC_RETURN_IF_ERROR(
      ReadArray(in, *offsets, static_cast<size_t>(n) + 1, "CSR offsets"));
  return ReadArray(in, *adj, static_cast<size_t>(2 * m), "CSR adjacency");
}

/// v1 {magic, n, m} path: no checksums to verify, so only the structural
/// checks stand between a bit flip and a wrong count. Kept loadable for
/// existing corpora; the warning nudges toward a re-save.
Status ReadBinaryV1(std::istream& in, uint64_t file_size,
                    const std::string& path,
                    std::vector<EdgeCount>* offsets,
                    std::vector<VertexId>* adj) {
  uint64_t dummy_magic = 0, n = 0, m = 0;
  in.read(reinterpret_cast<char*>(&dummy_magic), sizeof(dummy_magic));
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in) return DataLossError("cannot read header");
  GPUTC_LOG(Warning) << "'" << path
                     << "' is a v1 binary graph (no checksums); re-save with "
                        "'gputc convert' to upgrade to the checksummed v2 "
                        "format";

  return ReadSections(in, file_size, kHeaderBytes, n, m, offsets, adj);
}

/// v2 path: header CRC, finalized flag, and per-section CRCs are all
/// verified before the structural checks, each failure with its own
/// precise message — a torn save, a bit flip in the payload, and a damaged
/// header are distinguishable in the Status alone. Returns the verified
/// section CRCs.
StatusOr<GraphDigest> ReadBinaryV2(std::istream& in, uint64_t file_size,
                                   std::vector<EdgeCount>* offsets,
                                   std::vector<VertexId>* adj) {
  if (file_size < kHeaderBytesV2) {
    std::ostringstream msg;
    msg << "truncated v2 header: file is " << file_size << " bytes, need "
        << kHeaderBytesV2;
    return DataLossError(msg.str());
  }
  char header[kHeaderBytesV2];
  in.read(header, static_cast<std::streamsize>(kHeaderBytesV2));
  if (!in) return DataLossError("cannot read v2 header");

  const uint32_t stored_header_crc =
      ReadScalar<uint32_t>(header + kHeaderCrcCoverage);
  const uint32_t computed_header_crc = Crc32c(header, kHeaderCrcCoverage);
  if (stored_header_crc != computed_header_crc) {
    std::ostringstream msg;
    msg << "header CRC mismatch: stored " << HexU64(stored_header_crc)
        << ", computed " << HexU64(computed_header_crc)
        << " (damaged or truncated header)";
    return DataLossError(msg.str());
  }
  const uint32_t version = ReadScalar<uint32_t>(header + 8);
  if (version != kBinaryVersion) {
    return DataLossError("unsupported binary format version " +
                         std::to_string(version) + " (this build reads 1-" +
                         std::to_string(kBinaryVersion) + ")");
  }
  const uint32_t flags = ReadScalar<uint32_t>(header + 12);
  if ((flags & kFlagFinalized) == 0) {
    return DataLossError(
        "file was never finalized: the writer did not complete its payload "
        "(torn or interrupted save)");
  }
  const uint64_t n = ReadScalar<uint64_t>(header + 16);
  const uint64_t m = ReadScalar<uint64_t>(header + 24);
  const uint32_t stored_offsets_crc = ReadScalar<uint32_t>(header + 32);
  const uint32_t stored_adj_crc = ReadScalar<uint32_t>(header + 36);

  GPUTC_RETURN_IF_ERROR(
      ReadSections(in, file_size, kHeaderBytesV2, n, m, offsets, adj));

  const GraphDigest computed = DigestCsr(*offsets, *adj);
  if (computed.offsets_crc != stored_offsets_crc) {
    std::ostringstream msg;
    msg << "CSR offsets CRC mismatch: stored " << HexU64(stored_offsets_crc)
        << ", computed " << HexU64(computed.offsets_crc) << " (bit rot?)";
    return DataLossError(msg.str());
  }
  if (computed.adj_crc != stored_adj_crc) {
    std::ostringstream msg;
    msg << "CSR adjacency CRC mismatch: stored " << HexU64(stored_adj_crc)
        << ", computed " << HexU64(computed.adj_crc) << " (bit rot?)";
    return DataLossError(msg.str());
  }
  return computed;
}

std::string BinaryContext(const std::string& path) {
  return "LoadBinary('" + path + "')";
}

/// Reads either binary version up to, not including, the CSR checks: the
/// header is checked against the file size and caps before any allocation,
/// and v2 section CRCs are verified. `offsets` gets n+1 entries, `adj` 2m.
/// Returns a v2 file's verified section CRCs; a v1 file has none.
StatusOr<std::optional<GraphDigest>> ReadBinaryCsr(
    const std::string& path, std::vector<EdgeCount>* offsets,
    std::vector<VertexId>* adj) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  const auto read = [&]() -> StatusOr<std::optional<GraphDigest>> {
    in.seekg(0, std::ios::end);
    const auto end_pos = in.tellg();
    in.seekg(0, std::ios::beg);
    if (end_pos < 0) return DataLossError("cannot determine file size");
    const uint64_t file_size = static_cast<uint64_t>(end_pos);
    if (file_size < kHeaderBytes) {
      std::ostringstream msg;
      msg << "truncated header: file is " << file_size << " bytes, need "
          << kHeaderBytes;
      return DataLossError(msg.str());
    }

    uint64_t magic = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    if (!in) return DataLossError("cannot read header");
    in.seekg(0, std::ios::beg);

    if (magic == kBinaryMagicV2) {
      GPUTC_ASSIGN_OR_RETURN(const GraphDigest verified,
                             ReadBinaryV2(in, file_size, offsets, adj));
      return std::optional<GraphDigest>(verified);
    }
    if (magic == kBinaryMagic) {
      GPUTC_RETURN_IF_ERROR(ReadBinaryV1(in, file_size, path, offsets, adj));
      return std::optional<GraphDigest>();
    }
    std::ostringstream msg;
    msg << "bad magic " << HexU64(magic) << ", want "
        << HexU64(kBinaryMagicV2) << " (v2) or " << HexU64(kBinaryMagic)
        << " (v1)";
    return DataLossError(msg.str());
  };
  StatusOr<std::optional<GraphDigest>> digest = read();
  if (!digest.ok()) return digest.status().WithContext(BinaryContext(path));
  return digest;
}

}  // namespace

StatusOr<EdgeList> LoadBinaryEdgeList(const std::string& path) {
  std::vector<EdgeCount> offsets;
  std::vector<VertexId> adj;
  GPUTC_RETURN_IF_ERROR(ReadBinaryCsr(path, &offsets, &adj).status());
  const uint64_t n = offsets.size() - 1;
  GPUTC_RETURN_IF_ERROR(GraphDoctor::CheckCsr(n, adj.size() / 2, offsets, adj)
                            .WithContext(BinaryContext(path)));

  // Structurally sound: lift into the staging edge list, preserving self
  // loops and duplicate entries for GraphDoctor to judge. Upper-triangle
  // entries carry the edges; lower-triangle entries are the mirrors, so the
  // two must agree as multisets or the lift would invent a graph the file
  // does not hold.
  EdgeList list(static_cast<VertexId>(n));
  std::vector<uint64_t> upper, lower;
  for (VertexId u = 0; u < n; ++u) {
    for (EdgeCount i = offsets[u]; i < offsets[u + 1]; ++i) {
      const VertexId v = adj[static_cast<size_t>(i)];
      if (u <= v) list.Add(u, v);
      if (u < v) upper.push_back((uint64_t{u} << 32) | v);
      if (u > v) lower.push_back((uint64_t{v} << 32) | u);
    }
  }
  std::sort(upper.begin(), upper.end());
  std::sort(lower.begin(), lower.end());
  const auto [up, low] =
      std::mismatch(upper.begin(), upper.end(), lower.begin(), lower.end());
  if (up != upper.end() || low != lower.end()) {
    // The smaller key at the first difference is listed more often in one
    // of its two rows than in the other.
    const uint64_t key =
        low == lower.end() || (up != upper.end() && *up < *low) ? *up : *low;
    const std::string a = std::to_string(key >> 32);
    const std::string b = std::to_string(static_cast<VertexId>(key));
    return DataLossError("asymmetric adjacency: rows " + a + " and " + b +
                         " list edge (" + a + ", " + b +
                         ") a different number of times; not repairable")
        .WithContext(BinaryContext(path));
  }
  list.set_num_vertices(static_cast<VertexId>(n));
  return list;
}

StatusOr<Graph> LoadBinary(const std::string& path) {
  std::vector<EdgeCount> offsets;
  std::vector<VertexId> adj;
  GPUTC_ASSIGN_OR_RETURN(const std::optional<GraphDigest> digest,
                         ReadBinaryCsr(path, &offsets, &adj));
  // Adopt the arrays as read: the FromCsr checks run (CheckCsr and the
  // linear canonical check), a canonical CSR is already the Graph, and a v2
  // file's verified section CRCs are already its digest.
  StatusOr<Graph> g =
      Graph::AdoptCsr(std::move(offsets), std::move(adj), digest);
  if (!g.ok()) return g.status().WithContext(BinaryContext(path));
  return g;
}

StatusOr<Graph> LoadGraph(const std::string& path) {
  GPUTC_INJECT_FAULT("io.load");
  return path.ends_with(".bin") ? LoadBinary(path) : LoadSnapText(path);
}

StatusOr<EdgeList> LoadEdgeList(const std::string& path) {
  GPUTC_INJECT_FAULT("io.load");
  if (path.ends_with(".bin")) return LoadBinaryEdgeList(path);
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  StatusOr<EdgeList> list = ReadSnapEdgeList(in);
  if (!list.ok()) {
    return list.status().WithContext("LoadEdgeList('" + path + "')");
  }
  return list;
}

Status SaveGraph(const Graph& g, const std::string& path) {
  return path.ends_with(".bin") ? SaveBinaryDurable(g, path)
                                : SaveSnapTextDurable(g, path);
}

}  // namespace gputc
