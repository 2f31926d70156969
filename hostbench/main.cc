// hostbench: the repository's host-time benchmark.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir DIR] [--tiny] [--corrupt-oracle]
//
// Prints the provenance and the latency sample count as one JSON line, each
// metric as "name value unit" on stderr, and the result as the last stdout
// line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when every answer matched the oracle, 1 when one did not,
// 2 on bad arguments or a failed set-up (no result line then).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "measure.h"
#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "hostbench: " << why << "\n"
            << "usage: hostbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir DIR] [--tiny] [--corrupt-oracle]\n"
            << "workloads:";
  for (const std::string& name : hostbench::WorkloadNames()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  return 2;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ResultJson(const hostbench::BenchResult& result) {
  std::string out = std::string("{\"correct\": ") +
                    (result.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const hostbench::Metric& m = result.metrics[i];
    out += std::string(i == 0 ? "" : ", ") + "\"" + m.name +
           "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  hostbench::BenchOptions options;
  options.work_dir = ".bench_build/work-" + std::to_string(getpid());
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (flag == "--corrupt-oracle") {
      options.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace need valid values");
  }

  hostbench::BenchResult result;
  try {
    result = hostbench::RunBenchmark(options);
  } catch (const std::exception& e) {
    hostbench::RemoveTree(options.work_dir);
    std::cerr << "hostbench: " << e.what() << "\n";
    return 2;
  }
  hostbench::RemoveTree(options.work_dir);

  for (const hostbench::Metric& m : result.metrics) {
    std::cerr << "  " << m.name << " " << m.value << " " << m.unit << "\n";
  }
  for (const std::string& error : result.errors) {
    std::cerr << "FAILED: " << error << "\n";
  }
  std::cout << "{\"provenance\": " << result.provenance
            << ", \"latency_samples\": " << result.latency_samples
            << ", \"samples_beyond_p90\": "
            << hostbench::SamplesBeyond(
                   static_cast<size_t>(result.latency_samples), 90.0)
            << "}\n"
            << ResultJson(result) << std::endl;
  return result.correct ? 0 : 1;
}
