// Tests for the crash-safe file primitives: CRC32C against known vectors,
// atomic whole-file replacement, and the append-only segment log including
// torn-tail truncation and mid-file corruption handling.

#include "util/durable_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/random.h"

namespace gputc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class DurableFileTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }
  std::string Path(const std::string& name) {
    const std::string p = TempPath(name);
    cleanup_.push_back(p);
    return p;
  }
  std::vector<std::string> cleanup_;
};

// -- CRC32C -----------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 appendix / universal CRC32C check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // 32 zero bytes, another standard vector.
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, SeedChainsPartialComputations) {
  const std::string data = "the quick brown fox";
  const uint32_t whole = Crc32c(data.data(), data.size());
  const uint32_t chained =
      Crc32c(data.data() + 7, data.size() - 7, Crc32c(data.data(), 7));
  EXPECT_EQ(whole, chained);
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data = "payload under test";
  const uint32_t before = Crc32c(data);
  data[5] ^= 0x01;
  EXPECT_NE(before, Crc32c(data));
}

std::vector<unsigned char> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next64());
  return bytes;
}

// Crc32c may take a hardware path; the table loop is the reference. Every
// length up to 4 KiB at every start offset covers each word/tail split and
// misalignment of the 8-byte loop.
TEST(Crc32cTest, MatchesPortableAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buf = RandomBytes(4096 + 8, /*seed=*/1);
  EXPECT_EQ(Crc32cPortable("123456789", 9), 0xE3069283u);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(Crc32c(buf.data() + offset, len),
                Crc32cPortable(buf.data() + offset, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Crc32cTest, MatchesPortableWithRandomSeeds) {
  Rng rng(2);
  for (int trial = 0; trial < 2000; ++trial) {
    const uint32_t seed = static_cast<uint32_t>(rng.Next64());
    const std::vector<unsigned char> buf =
        RandomBytes(rng.NextBounded(300), rng.Next64());
    ASSERT_EQ(Crc32c(buf.data(), buf.size(), seed),
              Crc32cPortable(buf.data(), buf.size(), seed))
        << "trial " << trial << ", seed " << seed;
  }
}

TEST(Crc32cTest, ChainsAtEverySplit) {
  const std::vector<unsigned char> buf = RandomBytes(1024, /*seed=*/3);
  const uint32_t whole = Crc32cPortable(buf.data(), buf.size());
  ASSERT_EQ(Crc32c(buf.data(), buf.size()), whole);
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32c(buf.data(), split);
    ASSERT_EQ(Crc32c(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
  }
}

// -- atomic whole-file replacement ------------------------------------------

TEST_F(DurableFileTest, WriteFileAtomicCreatesAndReplaces) {
  const std::string path = Path("atomic.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "first\n").ok());
  EXPECT_EQ(Slurp(path), "first\n");
  ASSERT_TRUE(WriteFileAtomic(path, "second\n").ok());
  EXPECT_EQ(Slurp(path), "second\n");
}

TEST_F(DurableFileTest, AbortLeavesTargetUntouched) {
  const std::string path = Path("aborted.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "keep me").ok());
  StatusOr<AtomicFileWriter> writer = AtomicFileWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append("discard me").ok());
  writer->Abort();
  EXPECT_EQ(Slurp(path), "keep me");
}

TEST_F(DurableFileTest, DroppedWriterLeavesTargetUntouched) {
  const std::string path = Path("dropped.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "keep me").ok());
  {
    StatusOr<AtomicFileWriter> writer = AtomicFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("never committed").ok());
    // Destructor without Commit must clean up the temp file.
  }
  EXPECT_EQ(Slurp(path), "keep me");
}

TEST_F(DurableFileTest, CreateInMissingDirectoryFails) {
  StatusOr<AtomicFileWriter> writer =
      AtomicFileWriter::Create(TempPath("no/such/dir/file.txt"));
  ASSERT_FALSE(writer.ok());
  EXPECT_NE(writer.status().message().find("no/such/dir"), std::string::npos);
}

// -- segment log ------------------------------------------------------------

TEST_F(DurableFileTest, SegmentRoundTripsRecords) {
  const std::string path = Path("seg.log");
  const std::vector<std::string> records = {"alpha", "b", "gamma gamma",
                                            std::string(1000, 'x')};
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    for (const std::string& r : records) ASSERT_TRUE(writer->Append(r).ok());
  }
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, records);
  EXPECT_EQ(scan->dropped_bytes, 0u);
}

TEST_F(DurableFileTest, EmptyRecordIsRejected) {
  // An empty record's frame would be eight zero bytes — the same thing a
  // zero-filled crash tail reads back as — so the writer refuses it rather
  // than produce a record the scanner must treat as end-of-log.
  const std::string path = Path("empty.log");
  StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  const Status appended = writer->Append("");
  ASSERT_FALSE(appended.ok());
  EXPECT_EQ(appended.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(writer->Append("real record").ok());
}

TEST_F(DurableFileTest, ZeroFilledTailIsDroppedNotTrusted) {
  // Post-crash state on ext4/XFS: the file length was extended but the data
  // blocks never hit disk, so the tail reads back as zeros. The scan must
  // stop at the zero header instead of decoding an endless run of "valid"
  // empty records.
  const std::string path = Path("zerotail.log");
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("survivor one").ok());
    ASSERT_TRUE(writer->Append("survivor two").ok());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const std::string zeros(128, '\0');
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->dropped_bytes, 128u);
  // Open truncates the zero tail and appends continue from the verified
  // prefix, exactly as with a torn record.
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ(writer->recovered().dropped_bytes, 128u);
    ASSERT_TRUE(writer->Append("after recovery").ok());
  }
  scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[2], "after recovery");
  EXPECT_EQ(scan->dropped_bytes, 0u);
}

TEST_F(DurableFileTest, ConcurrentAppendsDoNotInterleaveFrames) {
  // A frame is written in more than one write(2); without serialization,
  // appenders on different threads interleave mid-frame and every record
  // after the interleave point is silently dropped by recovery.
  const std::string path = Path("concurrent.log");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&writer, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string payload =
              "thread " + std::to_string(t) + " record " + std::to_string(i) +
              " " + std::string(static_cast<size_t>(1 + (i * 7) % 40), 'p');
          ASSERT_TRUE(writer->Append(payload).ok());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(),
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(scan->dropped_bytes, 0u);
}

TEST_F(DurableFileTest, MissingSegmentIsNotFound) {
  StatusOr<SegmentScan> scan = ScanSegment(TempPath("no_such_segment.log"));
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kNotFound);
}

TEST_F(DurableFileTest, TornTailIsDroppedNotTrusted) {
  const std::string path = Path("torn.log");
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("intact one").ok());
    ASSERT_TRUE(writer->Append("intact two").ok());
  }
  const std::string full = Slurp(path);
  // Tear the last record mid-payload, as a crash mid-append would.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size() - 5));
  }
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0], "intact one");
  EXPECT_GT(scan->dropped_bytes, 0u);
}

TEST_F(DurableFileTest, OpenTruncatesTornTailAndAppendsAfterIt) {
  const std::string path = Path("recover.log");
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("survivor").ok());
    ASSERT_TRUE(writer->Append("victim").ok());
  }
  const std::string full = Slurp(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size() - 3));
  }
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_EQ(writer->recovered().records.size(), 1u);
    EXPECT_GT(writer->recovered().dropped_bytes, 0u);
    ASSERT_TRUE(writer->Append("appended after recovery").ok());
  }
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0], "survivor");
  EXPECT_EQ(scan->records[1], "appended after recovery");
  EXPECT_EQ(scan->dropped_bytes, 0u);
}

TEST_F(DurableFileTest, CorruptPayloadStopsTheScan) {
  const std::string path = Path("bitrot.log");
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("good record").ok());
    ASSERT_TRUE(writer->Append("soon to rot").ok());
    ASSERT_TRUE(writer->Append("unreachable").ok());
  }
  std::string bytes = Slurp(path);
  // Flip one bit inside the second record's payload. Frames are
  // 8 bytes of header + payload each.
  const size_t second_payload = 8 + std::string("good record").size() + 8 + 2;
  ASSERT_LT(second_payload, bytes.size());
  bytes[second_payload] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  // Nothing after the first bad frame is trusted — a scan cannot tell
  // bit rot from a tear, and resynchronizing past garbage risks framing
  // on attacker-controlled bytes.
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0], "good record");
  EXPECT_GT(scan->dropped_bytes, 0u);
}

TEST_F(DurableFileTest, GarbageLengthFieldDoesNotAllocate) {
  const std::string path = Path("hugelen.log");
  {
    std::ofstream out(path, std::ios::binary);
    const uint32_t huge_len = 0xFFFFFFFFu;
    const uint32_t crc = 0;
    out.write(reinterpret_cast<const char*>(&huge_len), 4);
    out.write(reinterpret_cast<const char*>(&crc), 4);
    out << "tiny";
  }
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_GT(scan->dropped_bytes, 0u);
}

// -- line log ---------------------------------------------------------------

TEST_F(DurableFileTest, LineLogWritesLinesAndTruncatesOnOpen) {
  const std::string path = Path("lines.jsonl");
  {
    StatusOr<LineLog> log = LineLog::OpenTrunc(path, /*fsync_each=*/true);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->WriteLine("{\"a\":1}").ok());
    ASSERT_TRUE(log->WriteLine("{\"b\":2}").ok());
  }
  EXPECT_EQ(Slurp(path), "{\"a\":1}\n{\"b\":2}\n");
  {
    StatusOr<LineLog> log = LineLog::OpenTrunc(path, /*fsync_each=*/false);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->WriteLine("{\"c\":3}").ok());
  }
  EXPECT_EQ(Slurp(path), "{\"c\":3}\n");
}

}  // namespace
}  // namespace gputc
