#include "pool.h"

#include <filesystem>
#include <stdexcept>

#include "core/prep_cache.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "measure.h"
#include "oracle.h"
#include "service/cache_store.h"
#include "sim/device.h"
#include "util/durable_file.h"

namespace hostbench {
namespace {

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kPowerLaw: return "powerlaw";
    case Family::kWattsStrogatz: return "ws";
    case Family::kErdosRenyi: return "er";
    case Family::kRmat: return "rmat";
  }
  return "?";
}

gputc::Graph Generate(const GraphSpec& spec) {
  const auto n = static_cast<gputc::VertexId>(spec.size);
  switch (spec.family) {
    case Family::kPowerLaw:
      return gputc::GeneratePowerLawConfiguration(n, spec.param, 2,
                                                  spec.degree, spec.seed);
    case Family::kWattsStrogatz:
      return gputc::GenerateWattsStrogatz(n, static_cast<int>(spec.degree),
                                          spec.param, spec.seed);
    case Family::kErdosRenyi:
      return gputc::GenerateErdosRenyi(n, spec.degree * spec.size, spec.seed);
    case Family::kRmat:
      return gputc::GenerateRmat(static_cast<int>(spec.size),
                                 static_cast<int>(spec.degree), spec.seed);
  }
  throw std::logic_error("unknown graph family");
}

void Check(const gputc::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

}  // namespace

std::vector<GraphSpec> PoolSpecs(const std::string& workload, uint64_t seed,
                                 bool tiny) {
  std::vector<GraphSpec> specs;
  const auto add = [&](Family family, int64_t size, double param,
                       int64_t degree) {
    specs.push_back({family, size, param, degree,
                     MixSeed(seed, specs.size())});
  };
  if (workload == "count-skew") {
    // The com-lj stand-in's family: heavy-tailed, hub-dominated.
    for (int i = 0; i < 16; ++i) {
      if (tiny) {
        add(Family::kPowerLaw, 3000, 2.05, 300);
      } else {
        add(Family::kPowerLaw, 45000, 2.05, 5000);
      }
    }
  } else if (workload == "batch-text-cold") {
    // Four families on a fixed ladder of seven sizes from 10k to 45k
    // vertices: the seed changes the graphs, never how big they are.
    for (int k = 0; k < 7; ++k) {
      const int64_t n = tiny ? 600 + 100 * k : 10000 + 35000 * k / 6;
      add(Family::kWattsStrogatz, n, 0.05, 8);
      add(Family::kErdosRenyi, n, 0.0, 5);
      add(Family::kRmat, tiny ? 9 : (k < 4 ? 14 : 15), 0.0, 4 + k);
      add(Family::kPowerLaw, n, 2.1, n / 10);
    }
  } else if (workload == "batch-bin-warm") {
    // The same four families at four sizes; R-MAT alternates edge factors.
    for (const int64_t n : {15000, 25000, 35000, 45000}) {
      const int64_t size = tiny ? n / 20 : n;
      add(Family::kWattsStrogatz, size, 0.05, 8);
      add(Family::kErdosRenyi, size, 0.0, 5);
      add(Family::kRmat, (tiny ? 9 : 14) + (n > 25000 ? 1 : 0), 0.0,
          (n / 10000) % 2 == 1 ? 6 : 8);
      add(Family::kPowerLaw, size, 2.05, size / 10);
    }
  }
  return specs;
}

Pool BuildPool(const std::vector<GraphSpec>& specs, const std::string& dir,
               bool prefill_cache, bool text_copies) {
  RemoveTree(dir);
  std::filesystem::create_directories(dir);
  Pool pool;
  pool.dir = dir;

  std::unique_ptr<gputc::DiskCacheStore> store;
  std::unique_ptr<gputc::PrepCache> cache;
  if (prefill_cache) {
    pool.cache_dir = dir + "/prep-cache";
    store = std::make_unique<gputc::DiskCacheStore>(pool.cache_dir);
    Check(store->EnsureDir(), "creating " + pool.cache_dir);
    cache = std::make_unique<gputc::PrepCache>(0, store.get());
  }

  for (size_t i = 0; i < specs.size(); ++i) {
    const GraphSpec& spec = specs[i];
    const gputc::Graph g = Generate(spec);
    PoolGraph pg;
    pg.label = std::string(FamilyName(spec.family)) + "-" +
               std::to_string(spec.size) + "-" + std::to_string(i);
    pg.bin_path = dir + "/" + pg.label + ".bin";
    pg.text_path = dir + "/" + pg.label + ".txt";
    pg.n = g.num_vertices();
    pg.m = g.num_edges();
    pg.max_degree = g.MaxDegree();
    const auto& offsets = g.offsets();
    const auto& adj = g.adjacency();
    pg.crc = gputc::Crc32c(adj.data(), adj.size() * sizeof(adj[0]),
                           gputc::Crc32c(offsets.data(),
                                         offsets.size() * sizeof(offsets[0])));
    pg.triangles = OracleTriangles(offsets, adj);
    Check(gputc::SaveBinaryDurable(g, pg.bin_path), "writing " + pg.bin_path);
    pg.bin_bytes = static_cast<int64_t>(std::filesystem::file_size(pg.bin_path));
    if (text_copies) {
      Check(gputc::SaveSnapTextDurable(g, pg.text_path),
            "writing " + pg.text_path);
      pg.text_bytes =
          static_cast<int64_t>(std::filesystem::file_size(pg.text_path));
    }

    if (cache != nullptr) {
      // The key the batch service derives for a request with its default
      // preprocessing options on its default device.
      const gputc::DeviceSpec device = gputc::DeviceSpec::TitanXpLike();
      const gputc::PreprocessOptions options;
      const gputc::ExecContext ctx;
      Check(cache
                ->GetOrCompute(gputc::PrepFingerprint(g, device, options), ctx,
                               [&] {
                                 return gputc::ComputePrepArtifact(
                                     g, device, options, ctx);
                               })
                .status(),
            "pre-filling the cache with " + pg.label);
    }
    pool.graphs.push_back(std::move(pg));
  }
  if (cache != nullptr && cache->stats().store_errors > 0) {
    throw std::runtime_error("pre-filling the disk cache tier failed");
  }
  return pool;
}

}  // namespace hostbench
