#include "workloads.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/executor.h"
#include "core/prep_cache.h"
#include "core/preprocess.h"
#include "direction/cost_model.h"
#include "direction/direction.h"
#include "graph/directed_graph.h"
#include "graph/io.h"
#include "graph/permutation.h"
#include "graph/validate.h"
#include "measure.h"
#include "obs/trace.h"
#include "order/calibration.h"
#include "order/ordering.h"
#include "order/resource_model.h"
#include "pool.h"
#include "service/batch_service.h"
#include "service/cache_store.h"
#include "service/manifest.h"
#include "service/wal.h"
#include "sim/device.h"
#include "tc/registry.h"
#include "util/durable_file.h"
#include "util/version.h"

namespace hostbench {
namespace {

using gputc::TcAlgorithm;

/// Requests in flight at once on the batch workloads, and their workers.
constexpr int kJobs = 4;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Requests per graph in one batch-bin-warm round.
constexpr int kWarmRepeats = 3;
/// Requests per graph in count-skew's service probe: 112 in all, enough
/// for a p90 with ten samples beyond it.
constexpr int kSkewServiceRepeats = 7;
/// Untimed requests before count-skew's timed phase.
constexpr size_t kSkewWarmup = 4;
/// Fewest requests in count-skew's end-to-end phase, so that its p90 has
/// more than ten samples beyond it even on a slow machine.
constexpr size_t kSkewMinRequests = 110;

struct Counter {
  TcAlgorithm algorithm;
  const char* metric;  // Per-layer metric stem.
};

/// All seven counters; batch-text-cold rotates its requests over them.
constexpr Counter kCounters[] = {
    {TcAlgorithm::kHu, "tc.hu"},
    {TcAlgorithm::kBisson, "tc.bisson"},
    {TcAlgorithm::kTriCore, "tc.tricore-bs"},
    {TcAlgorithm::kFox, "tc.fox"},
    {TcAlgorithm::kGunrockBinarySearch, "tc.gunrock-bs"},
    {TcAlgorithm::kGunrockSortMerge, "tc.gunrock-sm"},
    {TcAlgorithm::kPolak, "tc.polak"},
};

#if defined(__clang__)
constexpr const char* kCompiler = "clang ";
#else
constexpr const char* kCompiler = "gcc ";
#endif

gputc::DeviceSpec Device() { return gputc::DeviceSpec::TitanXpLike(); }

/// Every field of a KernelStats, at full precision: two runs of one
/// (graph, algorithm) pair must produce the same string.
std::string KernelFingerprint(const gputc::KernelStats& k) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%.17g %.17g %lld %lld %.17g %.17g %.17g %.17g %.17g %.17g "
                "%.17g %.17g",
                k.cycles, k.millis, static_cast<long long>(k.num_blocks),
                static_cast<long long>(k.supersteps), k.total_ops,
                k.total_transactions, k.total_shared_transactions,
                k.compute_cycles, k.memory_cycles, k.shared_cycles,
                k.sync_cycles, k.sm_utilization);
  return buf;
}

/// Correctness bookkeeping of one run. Every checked operation is counted;
/// a non-empty error marks it failed.
struct Ledger {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  /// Reference kernel fingerprint per "<graph>/<algorithm>".
  std::map<std::string, std::string> kernels;

  void Count(const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(error);
  }

  /// The first fingerprint of `key` is the reference; later ones must match.
  std::string SameKernel(const std::string& key,
                         const std::string& fingerprint) {
    const auto [it, inserted] = kernels.emplace(key, fingerprint);
    if (inserted || it->second == fingerprint) return "";
    return key + ": kernel stats differ between requests";
  }
};

/// Samples of each layer, keyed by metric stem ("graph.validate").
using Layers = std::map<std::string, std::vector<LayerSample>>;

/// What one timed phase measured.
struct Phase {
  std::vector<double> latency_ms;
  int64_t requests = 0;
  int64_t attempts = 0;  // Executor attempts over all requests.
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  /// VmHWM of each round (a pass over the pool on count-skew), in MiB.
  std::vector<double> round_peak_rss_mb;
  // Batch workloads only.
  std::vector<double> queue_ms, materialize_ms, admit_ms, exec_ms, wal_ms;
  std::vector<double> attributed_ms;  // Per request, for the traced run.
  gputc::PrepCacheStats cache;
};

std::string VerifyRun(const PoolGraph& graph, const std::string& stage,
                      const std::string& want_stage,
                      const std::string& variant, int64_t triangles) {
  if (stage != want_stage || variant != "base") {
    return graph.label + ": ran on " + stage + "/" + variant + ", expected " +
           want_stage + "/base";
  }
  if (triangles != graph.triangles) {
    return graph.label + ": " + std::to_string(triangles) +
           " triangles, oracle says " + std::to_string(graph.triangles);
  }
  return "";
}

// ---------------------------------------------------------------- count-skew

/// One `gputc count` request: load the binary file, run the default chain.
void CountSkewRequest(const PoolGraph& graph, Phase& phase, Ledger& ledger) {
  static const std::vector<gputc::FallbackStage> chain =
      gputc::BatchServiceOptions{}.chain;
  const Clock::time_point start = Clock::now();
  gputc::StatusOr<gputc::Graph> g = gputc::LoadGraph(graph.bin_path);
  gputc::ExecutionTrace trace;
  gputc::StatusOr<gputc::ExecutionResult> result =
      g.ok() ? gputc::ExecuteResilient(*g, Device(), gputc::ExecutionPolicy{},
                                       chain, gputc::PreprocessOptions{},
                                       &trace)
             : gputc::StatusOr<gputc::ExecutionResult>(g.status());
  phase.latency_ms.push_back(MillisSince(start));
  ++phase.requests;
  phase.attempts += static_cast<int64_t>(trace.attempts.size());
  if (!result.ok()) {
    ledger.Count(graph.label + ": " + result.status().ToString());
    return;
  }
  std::string error = VerifyRun(graph, result->stage, "Hu", result->variant,
                                result->run.triangles);
  if (error.empty()) {
    error = ledger.SameKernel(graph.label + "/Hu",
                              KernelFingerprint(result->run.kernel));
  }
  ledger.Count(error);
}

/// TryPreprocess's stages with default options, called one at a time.
struct StagedPrep {
  gputc::ResourceModel model;
  gputc::DirectedGraph directed;  // Oriented, before relabeling.
  gputc::Permutation perm;
  int bucket_size = 0;
  gputc::DirectedGraph prepared;  // What the counters consume.
};

/// The preprocessing layers in pipeline order, as StagedPreprocess times them.
constexpr const char* kPrepLayers[] = {"order.calibrate", "direction.rank",
                                       "direction.orient", "order.aorder",
                                       "order.apply"};

gputc::StatusOr<StagedPrep> StagedPreprocess(const gputc::Graph& g,
                                             Layers& layers) {
  using namespace gputc;
  const PreprocessOptions options;
  const DeviceSpec spec = Device();
  StatusOr<ResourceModel> model =
      TimeLayer(layers["order.calibrate"],
                [&] { return TryCalibratedResourceModel(spec); });
  if (!model.ok()) return model.status();
  const std::vector<VertexId> rank = TimeLayer(layers["direction.rank"], [&] {
    return DirectionRank(g, options.direction, options.seed);
  });
  DirectedGraph directed = TimeLayer(layers["direction.orient"], [&] {
    return DirectedGraph::FromRank(g, rank);
  });
  AOrderOptions aorder = options.aorder;
  if (aorder.bucket_size <= 0) aorder.bucket_size = spec.threads_per_block();
  Permutation perm = TimeLayer(layers["order.aorder"], [&] {
    return ComputeOrdering(g, directed, options.ordering, *model, aorder,
                           options.seed);
  });
  DirectedGraph prepared = TimeLayer(
      layers["order.apply"], [&] { return ApplyPermutation(directed, perm); });
  return StagedPrep{*std::move(model), std::move(directed), std::move(perm),
                    aorder.bucket_size, std::move(prepared)};
}

/// The same request with each pipeline stage called by the benchmark, in
/// pipeline order, so every stage is timed on its own. It must reproduce
/// the untraced request's triangles and kernel stats exactly.
void StagedCountSkewRequest(const PoolGraph& graph, Phase& phase,
                            Layers& layers, Ledger& ledger) {
  using namespace gputc;
  const Clock::time_point start = Clock::now();
  const auto fail = [&](const std::string& why) {
    phase.latency_ms.push_back(MillisSince(start));
    ++phase.requests;
    ledger.Count(graph.label + ": " + why);
  };

  StatusOr<Graph> g = TimeLayer(layers["graph.load_bin"],
                                [&] { return LoadGraph(graph.bin_path); });
  if (!g.ok()) return fail(g.status().ToString());
  const ValidationReport report = TimeLayer(
      layers["graph.validate"], [&] { return GraphDoctor().Examine(*g); });
  if (!report.clean()) return fail(report.Summary());
  StatusOr<StagedPrep> prep = StagedPreprocess(*g, layers);
  if (!prep.ok()) return fail(prep.status().ToString());
  StatusOr<TcResult> counted = TimeLayer(layers["tc.hu"], [&] {
    return MakeCounter(TcAlgorithm::kHu)->TryCount(prep->prepared, Device(),
                                                   ExecContext{});
  });

  phase.latency_ms.push_back(MillisSince(start));
  ++phase.requests;
  ++phase.attempts;
  double stages = layers["graph.load_bin"].back().wall_ms +
                  layers["graph.validate"].back().wall_ms +
                  layers["tc.hu"].back().wall_ms;
  for (const char* layer : kPrepLayers) stages += layers[layer].back().wall_ms;
  phase.attributed_ms.push_back(stages);
  if (!counted.ok()) {
    ledger.Count(graph.label + ": " + counted.status().ToString());
    return;
  }
  std::string error =
      VerifyRun(graph, "Hu", "Hu", "base", counted->triangles);
  if (error.empty()) {
    error = ledger.SameKernel(graph.label + "/Hu",
                              KernelFingerprint(counted->kernel));
  }
  ledger.Count(error);
}

/// Requests in pool order until `seconds` have passed and at least
/// `min_requests` were sent. Each pass over the pool is a round for the
/// peak-RSS reading.
void RunCountSkew(const Pool& pool, double seconds, size_t min_requests,
                  bool staged, Phase& phase, Layers& layers, Ledger& ledger) {
  const double cpu0 = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; MillisSince(start) < seconds * 1e3 || i < min_requests;
       ++i) {
    const size_t slot = i % pool.graphs.size();
    if (slot == 0) {
      if (i > 0) phase.round_peak_rss_mb.push_back(PeakRssMb());
      ResetPeakRss();
    }
    const PoolGraph& graph = pool.graphs[slot];
    if (staged) {
      StagedCountSkewRequest(graph, phase, layers, ledger);
    } else {
      CountSkewRequest(graph, phase, ledger);
    }
  }
  phase.round_peak_rss_mb.push_back(PeakRssMb());
  phase.wall_ms += MillisSince(start);
  phase.cpu_ms += ProcessCpuMs() - cpu0;
}

// ------------------------------------------------------------ batch workloads

struct RoundRequest {
  const PoolGraph* graph = nullptr;
  TcAlgorithm algorithm = TcAlgorithm::kHu;
  /// batch-text-cold: the SNAP text file, with fallback=<algorithm>,cpu.
  /// Otherwise the binary file with the default chain.
  bool cold = false;
};

/// The requests of round `round`, in submission order. batch-text-cold sends
/// every graph once with a counter that rotates by round; batch-bin-warm
/// sends every graph kWarmRepeats times with the default chain, and
/// count-skew's service probe kSkewServiceRepeats times.
std::vector<RoundRequest> RoundPlan(const Pool& pool,
                                    const std::string& workload,
                                    uint64_t seed, int round) {
  std::vector<RoundRequest> plan;
  const size_t count = pool.graphs.size();
  if (workload == "batch-text-cold") {
    for (size_t i = 0; i < count; ++i) {
      plan.push_back({&pool.graphs[i],
                      kCounters[(i + round) % std::size(kCounters)].algorithm,
                      true});
    }
  } else {
    const int repeats =
        workload == "count-skew" ? kSkewServiceRepeats : kWarmRepeats;
    for (int rep = 0; rep < repeats; ++rep) {
      for (const PoolGraph& graph : pool.graphs) {
        plan.push_back({&graph, TcAlgorithm::kHu, false});
      }
    }
  }
  std::mt19937_64 rng(MixSeed(seed, 1000 + static_cast<uint64_t>(round)));
  for (size_t i = plan.size(); i > 1; --i) {
    std::swap(plan[i - 1], plan[rng() % i]);
  }
  return plan;
}

/// Attributes of the last "count" span of each trace: the kernel stats the
/// pipeline annotates there, as one comparable string.
std::unordered_map<uint64_t, std::string> CountSpanFingerprints(
    const gputc::Tracer& tracer) {
  std::unordered_map<uint64_t, std::string> out;
  for (const gputc::SpanRecord& span : tracer.Snapshot()) {
    if (span.name != "count") continue;
    std::string text;
    for (const auto& [key, value] : span.attrs) {
      text += key + "=" + value + " ";
    }
    out[span.trace_id] = text;
  }
  return out;
}

/// One batch round: a fresh BatchService (fresh memory cache tier over the
/// disk tier in `cache_dir`; no cache when it is empty) with a fresh WAL, at
/// most kJobs requests outstanding. The client logs each intent before
/// Submit and each outcome from the report hook, as the `gputc batch` front
/// end does.
void RunRound(const std::vector<RoundRequest>& plan,
              const std::string& round_dir, const std::string& cache_dir,
              const std::string& id_prefix, bool traced, Phase& phase,
              Ledger& ledger) {
  using namespace gputc;
  RemoveTree(round_dir);
  std::filesystem::create_directories(round_dir);
  StatusOr<WriteAheadLog> wal = WriteAheadLog::Open(round_dir + "/wal");
  if (!wal.ok()) throw std::runtime_error(wal.status().ToString());
  if (Status s = wal->LogVersion(VersionString()); !s.ok()) {
    throw std::runtime_error(s.ToString());
  }

  Tracer tracer;
  BatchServiceOptions options;
  options.jobs = kJobs;
  options.prep_cache_mb = cache_dir.empty() ? 0 : 256;
  options.prep_cache_dir = cache_dir;
  if (traced) options.tracer = &tracer;

  struct Pending {
    const RoundRequest* request = nullptr;
    Clock::time_point submitted;
    double latency_ms = 0.0;
    double wal_ms = 0.0;  // Intent plus done append.
    Status wal_status;
    RequestReport report;
    bool reported = false;
  };
  std::vector<Pending> pending(plan.size());
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < plan.size(); ++i) {
    pending[i].request = &plan[i];
    index[id_prefix + std::to_string(i)] = i;
  }

  std::mutex mu;
  std::condition_variable cv;
  int outstanding = 0;
  BatchService service(options);
  service.set_on_report([&](const RequestReport& report) {
    const Clock::time_point wal_start = Clock::now();
    const Status done = wal->LogDone(
        report.id, RequestOutcomeName(report.outcome), report.ToJson());
    const double wal_ms = MillisSince(wal_start);
    std::lock_guard<std::mutex> lock(mu);
    Pending& p = pending.at(index.at(report.id));
    p.latency_ms = MillisSince(p.submitted);
    p.wal_ms += wal_ms;
    if (!done.ok()) p.wal_status = done;
    p.report = report;
    p.reported = true;
    --outstanding;
    cv.notify_one();
  });

  ResetPeakRss();
  const double cpu0 = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  service.Start();
  for (size_t i = 0; i < plan.size(); ++i) {
    Pending& p = pending[i];
    BatchRequest request;
    request.id = id_prefix + std::to_string(i);
    request.source = p.request->graph->label;
    request.kind = BatchRequest::Kind::kFile;
    if (p.request->cold) {
      request.target = p.request->graph->text_path;
      request.fallback = ToString(p.request->algorithm) + ",cpu";
    } else {
      request.target = p.request->graph->bin_path;
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding < kJobs; });
      ++outstanding;
      p.submitted = Clock::now();
    }
    const Status intent = wal->LogIntent(request.id);
    const double intent_ms = MillisSince(p.submitted);
    {
      std::lock_guard<std::mutex> lock(mu);
      p.wal_ms += intent_ms;
      if (!intent.ok()) p.wal_status = intent;
    }
    service.Submit(std::move(request));
  }
  service.Finish();
  phase.wall_ms += MillisSince(start);
  phase.cpu_ms += ProcessCpuMs() - cpu0;
  phase.round_peak_rss_mb.push_back(PeakRssMb());

  if (service.prep_cache() != nullptr) {
    const PrepCacheStats stats = service.prep_cache()->stats();
    phase.cache.memory_hits += stats.memory_hits;
    phase.cache.disk_hits += stats.disk_hits;
    phase.cache.misses += stats.misses;
    phase.cache.coalesced_waits += stats.coalesced_waits;
  }

  const std::unordered_map<uint64_t, std::string> kernels =
      traced ? CountSpanFingerprints(tracer)
             : std::unordered_map<uint64_t, std::string>{};
  for (const Pending& p : pending) {
    const PoolGraph& graph = *p.request->graph;
    ++phase.requests;
    if (!p.reported) {
      ledger.Count(graph.label + ": no report");
      continue;
    }
    const RequestReport& r = p.report;
    phase.latency_ms.push_back(p.latency_ms);
    phase.attempts += r.attempts;
    phase.queue_ms.push_back(r.queue_ms);
    phase.materialize_ms.push_back(r.materialize_ms);
    phase.admit_ms.push_back(r.admit_ms);
    phase.exec_ms.push_back(r.exec_ms);
    phase.wal_ms.push_back(p.wal_ms);
    phase.attributed_ms.push_back(r.queue_ms + r.exec_ms + p.wal_ms);

    const std::string algorithm = ToString(p.request->algorithm);
    std::string error;
    if (!p.wal_status.ok()) {
      error = graph.label + ": " + p.wal_status.ToString();
    } else if (r.outcome != RequestOutcome::kOk &&
               r.outcome != RequestOutcome::kDegraded) {
      error = graph.label + ": " + RequestOutcomeName(r.outcome) + " " +
              r.status.ToString();
    } else {
      error = VerifyRun(graph, r.stage, algorithm, r.variant, r.triangles);
    }
    if (error.empty() && traced) {
      const auto kernel = kernels.find(r.trace_id);
      error = kernel == kernels.end()
                  ? graph.label + ": no count span in the trace"
                  : ledger.SameKernel(graph.label + "/" + algorithm + "/span",
                                      kernel->second);
    }
    ledger.Count(error);
  }
  RemoveTree(round_dir);
}

/// Whole rounds until `seconds` of round time have passed. Round numbers
/// continue from `*round` so every round of a run has its own plan.
void RunRounds(const Pool& pool, const BenchOptions& options, double seconds,
               bool traced, int* round, Phase& phase, Ledger& ledger) {
  const bool cold = options.workload == "batch-text-cold";
  do {
    const std::string round_dir =
        options.work_dir + "/round-" + std::to_string(*round);
    // The cold workload starts every round with both cache tiers empty; the
    // warm one shares the disk tier filled in set-up.
    const std::string cache_dir =
        cold ? round_dir + "/prep-cache" : pool.cache_dir;
    const std::string id_prefix = std::to_string(*round) + ":";
    RunRound(RoundPlan(pool, options.workload, options.seed, *round),
             round_dir, cache_dir, id_prefix, traced, phase, ledger);
    ++*round;
  } while (phase.wall_ms < seconds * 1e3);
}

// ---------------------------------------------------------------- layer probe

/// Deterministic sums a performance change must leave bit-identical.
struct Sums {
  double model_ms = 0.0;
  int64_t triangles = 0;
  double eq1_cost = 0.0;
  double eq3_cost = 0.0;
};

/// Calls every layer's entry point once per pool graph, timing each call:
/// both loaders, GraphDoctor, CRC32C, the cache fingerprint, preprocessing
/// through the workload's cache set-up, the preprocessing stages one by
/// one, and all seven counters on the preprocessed graph.
void ProbeLayers(const Pool& pool, const BenchOptions& options,
                 Layers& layers, std::map<std::string, std::vector<double>>& rates,
                 Sums& sums, Ledger& ledger) {
  using namespace gputc;
  const DeviceSpec spec = Device();
  const ExecContext ctx;
  PreprocessOptions cached_options;
  std::unique_ptr<DiskCacheStore> store;
  std::unique_ptr<PrepCache> cache;
  if (options.workload != "count-skew") {
    // batch-text-cold probes the fill path (empty tiers), batch-bin-warm
    // the hit path (the disk tier filled in set-up, a fresh memory tier).
    const std::string dir = options.workload == "batch-text-cold"
                                ? options.work_dir + "/probe-cache"
                                : pool.cache_dir;
    if (options.workload == "batch-text-cold") RemoveTree(dir);
    store = std::make_unique<DiskCacheStore>(dir);
    if (Status s = store->EnsureDir(); !s.ok()) {
      throw std::runtime_error(s.ToString());
    }
    cache = std::make_unique<PrepCache>(0, store.get());
    cached_options.prep_cache = cache.get();
  }
  const auto rate = [&](const char* name, double amount, double ms) {
    if (ms > 0.0) rates[name].push_back(amount / (ms / 1e3));
  };

  for (const PoolGraph& graph : pool.graphs) {
    const auto check = [&](bool ok, const std::string& what) {
      ledger.Count(ok ? "" : graph.label + ": " + what);
      return ok;
    };
    StatusOr<Graph> text = TimeLayer(
        layers["graph.load_text"], [&] { return LoadSnapText(graph.text_path); });
    rate("graph.load_text_mb_per_s", graph.text_bytes / 1e6,
         layers["graph.load_text"].back().wall_ms);
    StatusOr<Graph> g = TimeLayer(layers["graph.load_bin"],
                                  [&] { return LoadBinary(graph.bin_path); });
    rate("graph.load_bin_mb_per_s", graph.bin_bytes / 1e6,
         layers["graph.load_bin"].back().wall_ms);
    if (!check(text.ok() && g.ok(), "probe load failed")) continue;
    // Text ids are assigned in first-seen order, so only the sizes of the
    // text copy are comparable; the binary copy must match bit for bit.
    if (!check(text->num_edges() == graph.m && g->num_edges() == graph.m,
               "loaded edge counts differ from the generated graph")) {
      continue;
    }
    const ValidationReport report = TimeLayer(
        layers["graph.validate"], [&] { return GraphDoctor().Examine(*g); });
    rate("graph.validate_arcs_per_s", 2.0 * static_cast<double>(g->num_edges()),
         layers["graph.validate"].back().wall_ms);
    if (!check(report.clean(), report.Summary())) continue;
    const auto& offsets = g->offsets();
    const auto& adj = g->adjacency();
    const size_t csr_bytes =
        offsets.size() * sizeof(offsets[0]) + adj.size() * sizeof(adj[0]);
    const uint32_t crc = TimeLayer(layers["util.crc32c"], [&] {
      return Crc32c(adj.data(), adj.size() * sizeof(adj[0]),
                    Crc32c(offsets.data(), offsets.size() * sizeof(offsets[0])));
    });
    rate("util.crc32c_mb_per_s", static_cast<double>(csr_bytes) / 1e6,
         layers["util.crc32c"].back().wall_ms);
    if (!check(crc == graph.crc, "binary copy's CRC differs")) continue;
    TimeLayer(layers["core.fingerprint"],
              [&] { return PrepFingerprint(*g, spec, cached_options); });
    StatusOr<PreprocessResult> preprocessed =
        TimeLayer(layers["core.preprocess"], [&] {
          return TryPreprocess(*g, spec, cached_options, ctx);
        });
    if (!check(preprocessed.ok(), "preprocess failed")) continue;

    // The stages one at a time must rebuild the graph TryPreprocess made.
    StatusOr<StagedPrep> prep = StagedPreprocess(*g, layers);
    if (!check(prep.ok(), "staged preprocessing failed")) continue;
    const DirectedGraph& prepared = prep->prepared;
    sums.eq1_cost += DirectionCost(prep->directed);
    sums.eq3_cost += OrderingImbalanceCost(prep->directed.OutDegrees(),
                                           prep->perm, prep->bucket_size,
                                           prep->model);
    if (!check(prepared.offsets() == preprocessed->graph.offsets() &&
                   prepared.adjacency() == preprocessed->graph.adjacency(),
               "staged preprocessing differs from TryPreprocess")) {
      continue;
    }

    for (const Counter& counter : kCounters) {
      StatusOr<TcResult> counted = TimeLayer(layers[counter.metric], [&] {
        return MakeCounter(counter.algorithm)->TryCount(prepared, spec, ctx);
      });
      const std::string name = ToString(counter.algorithm);
      if (!check(counted.ok(), name + " failed")) continue;
      sums.model_ms += counted->kernel.millis;
      sums.triangles += counted->triangles;
      check(counted->triangles == graph.triangles,
            name + " counted " + std::to_string(counted->triangles) +
                " triangles, oracle says " + std::to_string(graph.triangles));
    }
  }
  if (options.workload == "batch-text-cold") {
    RemoveTree(options.work_dir + "/probe-cache");
  }
}

// ------------------------------------------------------------------- output

std::string ProvenanceJson(const BenchOptions& options, const Pool& pool) {
  const bool batch = options.workload != "count-skew";
  std::string out = "{\"seed\":" + std::to_string(options.seed) +
                    ",\"workload\":\"" + options.workload + "\"" +
                    ",\"nproc\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"build_type\":\"" + gputc::BuildType() + "\"" +
                    ",\"compiler\":\"" + kCompiler + __VERSION__ + "\"" +
                    ",\"gputc_version\":\"" + gputc::VersionString() + "\"" +
                    ",\"clients\":1,\"jobs\":" +
                    std::to_string(batch ? kJobs : 1) +
                    ",\"max_outstanding\":" +
                    std::to_string(batch ? kJobs : 1) +
                    ",\"tiny\":" + (options.tiny ? "true" : "false") +
                    ",\"graphs\":[";
  for (size_t i = 0; i < pool.graphs.size(); ++i) {
    const PoolGraph& g = pool.graphs[i];
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", g.crc);
    out += std::string(i == 0 ? "" : ",") + "{\"label\":\"" + g.label +
           "\",\"n\":" + std::to_string(g.n) + ",\"m\":" + std::to_string(g.m) +
           ",\"max_degree\":" + std::to_string(g.max_degree) +
           ",\"crc32c\":\"" + crc + "\",\"triangles\":" +
           std::to_string(g.triangles) + "}";
  }
  return out + "]}";
}

/// p90 needs at least ten samples beyond it; a shorter run is an error,
/// never a p90 from too few samples.
double P90(const std::vector<double>& samples, const std::string& what) {
  if (SamplesBeyond(samples.size(), 90.0) < 10) {
    throw std::runtime_error(
        what + ": only " + std::to_string(samples.size()) +
        " samples, too few for a p90 with ten beyond it; run longer");
  }
  return Percentile(samples, 90.0);
}

void AddEndToEnd(const Phase& phase, double setup_s,
                 std::vector<Metric>& out) {
  out.push_back({"throughput_rps",
                 static_cast<double>(phase.requests) / (phase.wall_ms / 1e3),
                 "1/s"});
  out.push_back({"latency_ms_p50", Percentile(phase.latency_ms, 50.0), "ms"});
  out.push_back({"latency_ms_p90", P90(phase.latency_ms, "latency"), "ms"});
  out.push_back({"cpu_ms_per_req",
                 phase.cpu_ms / static_cast<double>(phase.requests), "ms"});
  out.push_back({"peak_rss_mb", Median(phase.round_peak_rss_mb), "MB"});
  out.push_back({"setup_s", setup_s, "s"});
}

double MedianWall(const std::vector<LayerSample>& samples) {
  std::vector<double> walls;
  for (const LayerSample& s : samples) walls.push_back(s.wall_ms);
  return Median(walls);
}

double MedianCpu(const std::vector<LayerSample>& samples) {
  std::vector<double> cpus;
  for (const LayerSample& s : samples) cpus.push_back(s.cpu_ms);
  return Median(cpus);
}

/// `service` is the phase the service.* metrics come from: the traced
/// rounds on the batch workloads, the service probe on count-skew.
void AddPerLayer(const BenchOptions& options, const Phase& untraced,
                 const Phase& traced, const Phase& service, Layers& layers,
                 std::map<std::string, std::vector<double>>& rates,
                 const Sums& sums, std::vector<Metric>& out) {
  for (const char* layer :
       {"graph.load_bin", "graph.load_text", "graph.validate", "tc.hu"}) {
    out.push_back({std::string(layer) + "_ms", MedianWall(layers[layer]), "ms"});
    out.push_back(
        {std::string(layer) + "_cpu_ms", MedianCpu(layers[layer]), "ms"});
  }
  for (const char* layer : {"core.fingerprint", "core.preprocess"}) {
    out.push_back({std::string(layer) + "_ms", MedianWall(layers[layer]), "ms"});
  }
  for (const char* layer : kPrepLayers) {
    out.push_back({std::string(layer) + "_ms", MedianWall(layers[layer]), "ms"});
  }
  for (const Counter& counter : kCounters) {
    if (counter.algorithm == TcAlgorithm::kHu) continue;
    out.push_back({std::string(counter.metric) + "_ms",
                   MedianWall(layers[counter.metric]), "ms"});
  }
  out.push_back({"graph.load_bin_mb_per_s",
                 Median(rates["graph.load_bin_mb_per_s"]), "MB/s"});
  out.push_back({"graph.load_text_mb_per_s",
                 Median(rates["graph.load_text_mb_per_s"]), "MB/s"});
  out.push_back({"graph.validate_arcs_per_s",
                 Median(rates["graph.validate_arcs_per_s"]), "arcs/s"});
  out.push_back(
      {"util.crc32c_mb_per_s", Median(rates["util.crc32c_mb_per_s"]), "MB/s"});

  const gputc::PrepCacheStats& c = traced.cache;
  const int64_t hits = c.memory_hits + c.disk_hits + c.coalesced_waits;
  const int64_t lookups = hits + c.misses;
  out.push_back({"core.cache_hits", static_cast<double>(hits), "count"});
  out.push_back({"core.cache_lookups", static_cast<double>(lookups), "count"});
  out.push_back({"core.cache_hit_ratio",
                 lookups > 0 ? static_cast<double>(hits) / lookups : 0.0,
                 "ratio"});
  out.push_back({"core.cache_fills", static_cast<double>(c.misses), "count"});
  out.push_back(
      {"core.cache_disk_hits", static_cast<double>(c.disk_hits), "count"});
  const int64_t requests = untraced.requests + traced.requests;
  out.push_back({"core.attempts_per_req",
                 static_cast<double>(untraced.attempts + traced.attempts) /
                     static_cast<double>(std::max<int64_t>(requests, 1)),
                 "ratio"});

  out.push_back({"sim.model_ms_sum", sums.model_ms, "model-ms"});
  out.push_back(
      {"tc.triangles_sum", static_cast<double>(sums.triangles), "count"});
  out.push_back({"direction.eq1_cost_sum", sums.eq1_cost, "cost"});
  out.push_back({"order.eq3_cost_sum", sums.eq3_cost, "cost"});

  const bool batch = options.workload != "count-skew";
  out.push_back(
      {"service.queue_ms_p50", Percentile(service.queue_ms, 50.0), "ms"});
  out.push_back({"service.materialize_ms_p50",
                 Percentile(service.materialize_ms, 50.0), "ms"});
  out.push_back(
      {"service.admit_ms_p50", Percentile(service.admit_ms, 50.0), "ms"});
  out.push_back(
      {"service.exec_ms_p50", Percentile(service.exec_ms, 50.0), "ms"});
  out.push_back(
      {"service.exec_ms_p90", P90(service.exec_ms, "service.exec_ms"), "ms"});
  out.push_back(
      {"service.wal_append_ms_p50", Percentile(service.wal_ms, 50.0), "ms"});
  out.push_back({"service.cpu_efficiency",
                 untraced.cpu_ms / (untraced.wall_ms * (batch ? kJobs : 1)),
                 "ratio"});

  // Traced against untraced: request time for the single client, wall time
  // per request for the batch service.
  const double untraced_per_req = untraced.wall_ms / untraced.requests;
  const double traced_per_req = traced.wall_ms / traced.requests;
  out.push_back({"bench.trace_overhead_pct",
                 (traced_per_req / untraced_per_req - 1.0) * 100.0, "%"});
  // How much of each traced request the timed layers account for: pipeline
  // stages on count-skew; queue, execution and WAL appends on the batch
  // workloads.
  const double total = std::accumulate(traced.latency_ms.begin(),
                                       traced.latency_ms.end(), 0.0);
  const double attributed = std::accumulate(traced.attributed_ms.begin(),
                                            traced.attributed_ms.end(), 0.0);
  out.push_back({"bench.attributed_pct", 100.0 * attributed / total, "%"});
  out.push_back({"bench.unattributed_ms_per_req",
                 (total - attributed) / traced.latency_ms.size(), "ms"});
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "count-skew", "batch-text-cold", "batch-bin-warm"};
  return names;
}

BenchResult RunBenchmark(const BenchOptions& options) {
  const std::vector<GraphSpec> specs =
      PoolSpecs(options.workload, options.seed, options.tiny);
  if (specs.empty()) {
    throw std::runtime_error("unknown workload '" + options.workload + "'");
  }
  const bool batch = options.workload != "count-skew";
  const bool warm = options.workload == "batch-bin-warm";

  // Set-up: generation, the files, oracle counts and (warm) the disk cache
  // tier. Untraced runs repeat it and report the median.
  std::vector<double> setup_s;
  Pool pool;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    const std::string dir = options.work_dir + "/pool-" + std::to_string(i);
    const Clock::time_point start = Clock::now();
    Pool built = BuildPool(specs, dir, warm,
                           options.trace || options.workload == "batch-text-cold");
    setup_s.push_back(MillisSince(start) / 1e3);
    if (!pool.dir.empty()) RemoveTree(pool.dir);
    pool = std::move(built);
  }
  if (options.corrupt_oracle) ++pool.graphs[0].triangles;

  BenchResult result;
  result.provenance = ProvenanceJson(options, pool);
  Ledger ledger;
  Layers layers;
  int round = 0;

  // Warm-up, checked but not timed: one round on the batch workloads, the
  // first kSkewWarmup requests on count-skew.
  {
    Phase warmup;
    if (batch) {
      RunRounds(pool, options, 0.0, false, &round, warmup, ledger);
    } else {
      for (size_t i = 0; i < kSkewWarmup && i < pool.graphs.size(); ++i) {
        CountSkewRequest(pool.graphs[i], warmup, ledger);
      }
    }
  }

  const auto run = [&](double seconds, bool traced, Phase& phase) {
    if (batch) {
      RunRounds(pool, options, seconds, traced, &round, phase, ledger);
    } else {
      RunCountSkew(pool, seconds, options.trace ? 0 : kSkewMinRequests,
                   traced, phase, layers, ledger);
    }
  };

  if (!options.trace) {
    // Every round resets VmHWM; fail up front where the kernel refuses.
    if (!ResetPeakRss()) throw std::runtime_error("cannot reset VmHWM");
    Phase phase;
    run(options.seconds, false, phase);
    AddEndToEnd(phase, Median(setup_s), result.metrics);
    result.latency_samples = static_cast<int64_t>(phase.latency_ms.size());
  } else {
    // Half the time untraced, half traced, then the layer probe.
    Phase untraced;
    Phase traced;
    run(options.seconds / 2, false, untraced);
    run(options.seconds / 2, true, traced);
    std::map<std::string, std::vector<double>> rates;
    Sums sums;
    ProbeLayers(pool, options, layers, rates, sums, ledger);
    // count-skew sends no request through the service, so its service
    // layer is probed with one traced round of the pool through a
    // BatchService without a cache.
    Phase service_probe;
    if (!batch) {
      RunRound(RoundPlan(pool, options.workload, options.seed, 0),
               options.work_dir + "/service-probe", "", "probe:", true,
               service_probe, ledger);
    }
    AddPerLayer(options, untraced, traced, batch ? traced : service_probe,
                layers, rates, sums, result.metrics);
  }

  RemoveTree(pool.dir);
  result.attempted = ledger.attempted;
  result.failed = ledger.failed;
  result.correct = ledger.failed == 0;
  result.errors = ledger.errors;
  return result;
}

}  // namespace hostbench
