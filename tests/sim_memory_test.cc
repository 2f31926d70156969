#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "sim/device.h"
#include "sim/memory.h"

namespace gputc {
namespace {

DeviceSpec Spec() { return DeviceSpec::TitanXpLike(); }

TEST(CoalescingTest, SameSegmentIsOneTransaction) {
  const DeviceSpec spec = Spec();
  // 32 elements of 4 bytes = 128 bytes = exactly one transaction.
  std::vector<int64_t> addrs;
  for (int64_t i = 0; i < 32; ++i) addrs.push_back(i);
  EXPECT_EQ(TransactionsForWarpAccess(addrs, spec), 1);
}

TEST(CoalescingTest, StridedAccessScatters) {
  const DeviceSpec spec = Spec();
  std::vector<int64_t> addrs;
  for (int64_t i = 0; i < 32; ++i) addrs.push_back(i * 1000);
  EXPECT_EQ(TransactionsForWarpAccess(addrs, spec), 32);
}

TEST(CoalescingTest, DuplicateAddressesMerge) {
  const DeviceSpec spec = Spec();
  const std::vector<int64_t> addrs(32, 12345);
  EXPECT_EQ(TransactionsForWarpAccess(addrs, spec), 1);
  EXPECT_EQ(TransactionsForWarpAccess({}, spec), 0);
}

TEST(ProbesTest, LogarithmicGrowth) {
  EXPECT_EQ(ProbesForBinarySearch(0), 0);
  EXPECT_EQ(ProbesForBinarySearch(1), 1);
  EXPECT_EQ(ProbesForBinarySearch(2), 2);
  EXPECT_EQ(ProbesForBinarySearch(1024), 11);
}

// The halving loops the closed forms replaced.
int LoopProbes(int64_t len) {
  if (len <= 0) return 0;
  int probes = 1;
  while (len > 1) {
    len >>= 1;
    ++probes;
  }
  return probes;
}

int64_t LoopThreadTransactions(int64_t len, int64_t per_txn) {
  if (len <= 0) return 0;
  int64_t transactions = 1;
  for (int64_t range = len; range > per_txn; range >>= 1) ++transactions;
  return transactions;
}

TEST(ProbesTest, ClosedFormsMatchHalvingLoopsExhaustively) {
  // Every preset, plus segment widths the presets do not use.
  std::vector<DeviceSpec> specs = {DeviceSpec::TitanXpLike(),
                                   DeviceSpec::MidrangeLike(),
                                   DeviceSpec::Tiny()};
  for (const int transaction_bytes : {4, 32, 96, 256}) {
    DeviceSpec spec;
    spec.transaction_bytes = transaction_bytes;
    specs.push_back(spec);
  }
  for (int64_t len = -2; len <= (int64_t{1} << 20); ++len) {
    ASSERT_EQ(ProbesForBinarySearch(len), LoopProbes(len)) << "len " << len;
  }
  for (const DeviceSpec& spec : specs) {
    const int64_t per_txn = spec.elements_per_transaction();
    for (int64_t len = -2; len <= (int64_t{1} << 20); ++len) {
      ASSERT_EQ(ThreadBinarySearchTransactions(len, spec),
                LoopThreadTransactions(len, per_txn))
          << "len " << len << " per_txn " << per_txn;
    }
  }
  for (const int64_t len : {int64_t{1} << 40, (int64_t{1} << 62) + 7,
                            std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ProbesForBinarySearch(len), LoopProbes(len));
    EXPECT_EQ(ThreadBinarySearchTransactions(len, Spec()),
              LoopThreadTransactions(len, Spec().elements_per_transaction()));
  }
}

TEST(ThreadSearchTest, ShortListIsOneTransaction) {
  const DeviceSpec spec = Spec();
  // Lists within one 32-element segment: a single transaction (Figure 4).
  EXPECT_EQ(ThreadBinarySearchTransactions(1, spec), 1);
  EXPECT_EQ(ThreadBinarySearchTransactions(32, spec), 1);
}

TEST(ThreadSearchTest, LongListsCostMore) {
  const DeviceSpec spec = Spec();
  const int64_t t256 = ThreadBinarySearchTransactions(256, spec);
  const int64_t t4096 = ThreadBinarySearchTransactions(4096, spec);
  EXPECT_GT(t256, 1);
  EXPECT_GT(t4096, t256);
  // Growth is logarithmic, not linear.
  EXPECT_LE(t4096, t256 + 5);
}

TEST(ThreadSearchTest, MonotoneInLength) {
  const DeviceSpec spec = Spec();
  int64_t prev = 0;
  for (int64_t len = 1; len <= (1 << 16); len *= 2) {
    const int64_t t = ThreadBinarySearchTransactions(len, spec);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(WarpSharedSearchTest, CoalescesOnShortLists) {
  const DeviceSpec spec = Spec();
  // Whole list inside one segment: every probe level costs one transaction.
  const int64_t t = WarpSharedListSearchTransactions(16, 32, spec);
  EXPECT_EQ(t, ProbesForBinarySearch(16));
}

TEST(WarpSharedSearchTest, DivergesOnLongLists) {
  const DeviceSpec spec = Spec();
  const int64_t short_list = WarpSharedListSearchTransactions(32, 32, spec);
  const int64_t long_list =
      WarpSharedListSearchTransactions(1 << 14, 32, spec);
  EXPECT_GT(long_list, 4 * short_list);
}

TEST(WarpDistinctListsTest, PacksShortListsPerSegment) {
  const DeviceSpec spec = Spec();
  // Lists of length 4: 8 lists per 32-element segment -> 4 transactions for
  // 32 lanes.
  EXPECT_EQ(WarpDistinctListsTransactionsPerProbe(4, 32, spec), 4);
  // Long lists: one transaction per lane.
  EXPECT_EQ(WarpDistinctListsTransactionsPerProbe(1000, 32, spec), 32);
  EXPECT_EQ(WarpDistinctListsTransactionsPerProbe(0, 32, spec), 0);
}

TEST(BandwidthProfilerTest, BandwidthGrowsWithListLength) {
  const BandwidthProfiler profiler(Spec());
  // The paper's Figure 8: memory bandwidth consumption is positively
  // correlated with adjacency list length (saturating once every lane
  // occupies its own segment).
  double prev = 0.0;
  for (int64_t len = 1; len <= (1 << 12); len *= 2) {
    const double bw = profiler.BandwidthAt(len);
    EXPECT_GE(bw, prev - 1e-9) << "len=" << len;
    prev = bw;
  }
  EXPECT_GT(profiler.BandwidthAt(1 << 12), 1.5 * profiler.BandwidthAt(1));
}

TEST(BandwidthProfilerTest, SweepIsDeterministicAndComplete) {
  const BandwidthProfiler profiler(Spec());
  const auto sweep1 = profiler.Sweep(1024);
  const auto sweep2 = profiler.Sweep(1024);
  ASSERT_EQ(sweep1.size(), 11u);  // 1, 2, 4, ..., 1024.
  for (size_t i = 0; i < sweep1.size(); ++i) {
    EXPECT_EQ(sweep1[i].bytes_per_cycle, sweep2[i].bytes_per_cycle);
    EXPECT_GT(sweep1[i].probes_per_search, 0.0);
  }
}

}  // namespace
}  // namespace gputc
