#ifndef HOSTBENCH_MEASURE_H_
#define HOSTBENCH_MEASURE_H_

// Clocks, resource probes and order statistics shared by the workloads.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// CPU time of the calling thread, in ms.
double ThreadCpuMs();

/// User + system CPU time of the whole process (all threads), in ms.
double ProcessCpuMs();

/// Returns free heap memory to the kernel, then resets the process's
/// peak-RSS high-water mark (VmHWM) to its current RSS, so a later
/// PeakRssMb() covers only what ran in between. Returns false when the
/// kernel refuses the reset.
bool ResetPeakRss();

/// VmHWM of the process, in MiB.
double PeakRssMb();

/// Median of `values` (mean of the middle pair for even sizes); 0 when empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it.
double Percentile(std::vector<double> values, double p);

/// How many samples lie strictly after the nearest-rank `p`% position.
int64_t SamplesBeyond(size_t count, double p);

/// Wall and thread-CPU time of one call, recorded under a layer name.
struct LayerSample {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

/// Times `fn` on the calling thread and returns its result, adding the
/// sample to `out`.
template <typename Fn>
auto TimeLayer(std::vector<LayerSample>& out, Fn&& fn) {
  const double cpu0 = ThreadCpuMs();
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  out.push_back({MillisSince(t0), ThreadCpuMs() - cpu0});
  return result;
}

/// Splitmix64 step: derives independent per-graph seeds from the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Recursively deletes `path` if it exists.
void RemoveTree(const std::string& path);

}  // namespace hostbench

#endif  // HOSTBENCH_MEASURE_H_
