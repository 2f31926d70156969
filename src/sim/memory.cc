#include "sim/memory.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_set>

#include "util/logging.h"

namespace gputc {

int64_t TransactionsForWarpAccess(std::span<const int64_t> element_indices,
                                  const DeviceSpec& spec) {
  const int per_txn = spec.elements_per_transaction();
  std::unordered_set<int64_t> segments;
  for (int64_t idx : element_indices) {
    segments.insert(idx / per_txn);
  }
  return static_cast<int64_t>(segments.size());
}

int ProbesForBinarySearch(int64_t len) {
  if (len <= 0) return 0;
  return std::bit_width(static_cast<uint64_t>(len));
}

int64_t ThreadBinarySearchTransactions(int64_t len, const DeviceSpec& spec) {
  if (len <= 0) return 0;
  const int64_t per_txn = spec.elements_per_transaction();
  // Each halving step whose active range still spans > 1 segment lands in a
  // fresh segment; once the range fits one segment all remaining probes are
  // free (the paper's Figure 4: 3 transactions on the long list, 1 on the
  // short one). The range len >> k fits once len < (per_txn + 1) * 2^k,
  // i.e. after bit_width(len / (per_txn + 1)) halvings.
  return 1 + std::bit_width(static_cast<uint64_t>(len / (per_txn + 1)));
}

int64_t WarpSharedListSearchTransactions(int64_t len, int active_lanes,
                                         const DeviceSpec& spec) {
  if (len <= 0 || active_lanes <= 0) return 0;
  const int64_t per_txn = spec.elements_per_transaction();
  const int64_t segments =
      (len + per_txn - 1) / per_txn;  // Segments covering the list.
  const int probes = ProbesForBinarySearch(len);
  int64_t total = 0;
  // At probe level L the lanes' positions are confined to 2^L disjoint
  // subranges of the list; distinct transactions are bounded by the lane
  // count, the subrange count, and the number of physical segments.
  for (int level = 0; level < probes; ++level) {
    const int64_t subranges = int64_t{1} << std::min(level, 62);
    total += std::min<int64_t>({active_lanes, subranges, segments});
  }
  return total;
}

int64_t WarpDistinctListsTransactionsPerProbe(int64_t len, int active_lanes,
                                              const DeviceSpec& spec) {
  if (len <= 0 || active_lanes <= 0) return 0;
  const int64_t per_txn = spec.elements_per_transaction();
  // Lanes probe lists laid out consecutively in the CSR; a segment spans
  // per_txn elements, i.e. about per_txn / len adjacent lists.
  const int64_t lanes_per_segment = std::max<int64_t>(1, per_txn / len);
  return (active_lanes + lanes_per_segment - 1) / lanes_per_segment;
}

BandwidthSample BandwidthProfiler::Measure(int64_t list_length) const {
  BandwidthSample sample;
  sample.list_length = list_length;
  if (list_length <= 0) return sample;
  const int lanes = spec_.warp_size;
  const int probes = ProbesForBinarySearch(list_length);
  // Every probe step is one lock-step instruction; transactions follow the
  // workload's coalescing model: a full warp searching `lanes` distinct
  // lists (Hu / thread-per-task kernels) or `lanes` keys in one shared list
  // (TriCore / warp-cooperative kernels).
  const int64_t total_txn =
      workload_ == SearchWorkload::kDistinctLists
          ? WarpDistinctListsTransactionsPerProbe(list_length, lanes, spec_) *
                probes
          : WarpSharedListSearchTransactions(list_length, lanes, spec_);
  const double cycles =
      static_cast<double>(probes) +
      static_cast<double>(total_txn) / spec_.mem_transactions_per_cycle;
  sample.probes_per_search = probes;
  sample.transactions_per_search =
      static_cast<double>(total_txn) / static_cast<double>(lanes);
  sample.bytes_per_cycle =
      static_cast<double>(total_txn) * spec_.transaction_bytes / cycles;
  return sample;
}

std::vector<BandwidthSample> BandwidthProfiler::Sweep(
    int64_t max_length) const {
  std::vector<BandwidthSample> samples;
  for (int64_t len = 1; len <= max_length; len *= 2) {
    samples.push_back(Measure(len));
  }
  return samples;
}

double BandwidthProfiler::BandwidthAt(int64_t list_length) const {
  return Measure(std::max<int64_t>(1, list_length)).bytes_per_cycle;
}

}  // namespace gputc
