#ifndef HOSTBENCH_POOL_H_
#define HOSTBENCH_POOL_H_

// The graphs a workload runs on: generated from the run seed in set-up,
// written to files in both formats, counted by the oracle, and (for the
// warm-cache workload) preprocessed into a disk cache tier.

#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

enum class Family { kPowerLaw, kWattsStrogatz, kErdosRenyi, kRmat };

/// One graph to generate. `size` is the vertex count, or the R-MAT scale.
struct GraphSpec {
  Family family = Family::kPowerLaw;
  int64_t size = 0;
  double param = 0.0;   // gamma (power law), beta (WS), unused otherwise.
  int64_t degree = 0;   // max degree (power law), ring degree (WS),
                        // edges per vertex (ER), edge factor (R-MAT).
  uint64_t seed = 0;
};

/// A generated graph on disk, with what the run checks against.
struct PoolGraph {
  std::string label;      // "<family>-<size>-<index>".
  std::string bin_path;   // Binary v2 copy.
  std::string text_path;  // SNAP text copy (when written).
  int64_t n = 0;
  int64_t m = 0;
  int64_t max_degree = 0;
  int64_t bin_bytes = 0;
  int64_t text_bytes = 0;
  uint32_t crc = 0;       // Crc32c over the CSR offsets, then adjacency.
  int64_t triangles = 0;  // Oracle count.
};

struct Pool {
  std::string dir;
  /// Disk cache tier filled in set-up (empty unless requested).
  std::string cache_dir;
  std::vector<PoolGraph> graphs;
};

/// The graph list of `workload` for `seed`; `tiny` shrinks every graph so
/// the benchmark's own tests finish in seconds. Empty for an unknown name.
std::vector<GraphSpec> PoolSpecs(const std::string& workload, uint64_t seed,
                                 bool tiny);

/// Generates every spec into `dir` (created fresh) as a binary file, and
/// with `text_copies` also as SNAP text, and counts it with the oracle. With
/// `prefill_cache`, also preprocesses each graph with the library's default
/// options into a disk cache tier under `dir`.
Pool BuildPool(const std::vector<GraphSpec>& specs, const std::string& dir,
               bool prefill_cache, bool text_copies);

}  // namespace hostbench

#endif  // HOSTBENCH_POOL_H_
