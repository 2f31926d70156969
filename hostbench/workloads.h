#ifndef HOSTBENCH_WORKLOADS_H_
#define HOSTBENCH_WORKLOADS_H_

// The three seeded workloads and the traced layer probe. Each run sets up
// its graph pool from the seed, warms up, measures for a fixed time, and
// checks every answer against the oracle.

#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Scratch directory for the pool, caches and WALs; removed at the end.
  std::string work_dir;
  /// Shrinks every graph (the benchmark's own tests).
  bool tiny = false;
  /// Adds one to the first graph's oracle count (the benchmark's own tests:
  /// every request on that graph must then be reported as failed).
  bool corrupt_oracle = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct BenchResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Requests behind the latency percentiles (untraced runs).
  int64_t latency_samples = 0;
  std::vector<Metric> metrics;
  /// The first few failures, for the log.
  std::vector<std::string> errors;
  /// One-line JSON object: seed, machine, build, load and every graph.
  std::string provenance;
};

/// The workload names, in the order the documentation lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Throws std::runtime_error when set-up fails or when
/// the run is too short for the percentiles it must report.
BenchResult RunBenchmark(const BenchOptions& options);

}  // namespace hostbench

#endif  // HOSTBENCH_WORKLOADS_H_
