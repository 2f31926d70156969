#ifndef GPUTC_ORDER_RESOURCE_MODEL_H_
#define GPUTC_ORDER_RESOURCE_MODEL_H_

#include <vector>

#include "graph/permutation.h"
#include "graph/types.h"
#include "sim/device.h"
#include "sim/memory.h"

namespace gputc {

/// The paper's resource balance model (Section 3.2.4 and 5.3).
///
/// Each vertex v with out-degree d~(v) contributes
///   computing intensity  c = F_c(d) = sqrt(1 / d)           (Eq. 22)
///   memory intensity     m = F_m(d) = sqrt(BW(d))           (Eq. 22)
/// where BW(d) is the measured warp binary-search bandwidth curve (Figure 8).
/// `lambda` converts compute units into memory units; the paper measures
/// 9.682 on its hardware, we calibrate our own against the simulator
/// (order/calibration.h) and keep the paper's value as the default.
class ResourceModel {
 public:
  /// Builds the model with an explicit bandwidth table. `bw_by_log2_len[i]`
  /// is BW(2^i) in bytes/cycle; lengths in between are geometrically
  /// interpolated. The table must be non-empty.
  ResourceModel(double lambda, std::vector<double> bw_by_log2_len);

  /// Model with the paper's lambda and the default device's measured BW
  /// curve.
  static ResourceModel Default();

  /// Model calibrated against `spec`'s bandwidth curve with a given lambda.
  /// `workload` selects the warp access pattern the BW(d) table measures
  /// (match it to the calibration workload).
  static ResourceModel ForDevice(
      const DeviceSpec& spec, double lambda,
      SearchWorkload workload = SearchWorkload::kDistinctLists);

  double lambda() const { return lambda_; }

  /// The raw BW(2^i) table the model was built with. Exposed so the
  /// preprocessing cache can persist a calibrated model and rebuild it
  /// bit-for-bit (ResourceModel(lambda, table) round-trips exactly).
  const std::vector<double>& bw_by_log2_len() const { return bw_by_log2_len_; }

  /// F_c(d) = sqrt(1/d); degree 0 is treated as 1 (an idle vertex costs the
  /// minimum, not infinity).
  double ComputeIntensity(EdgeCount out_degree) const;

  /// F_m(d) = sqrt(BW(d)).
  double MemoryIntensity(EdgeCount out_degree) const;

  /// Memory superiority F_m(d) - lambda * F_c(d) (Algorithm 2's mem_sup
  /// contribution). Positive -> memory-dominated vertex.
  double MemorySuperiority(EdgeCount out_degree) const;

  /// Interpolated BW(d).
  double BandwidthAt(EdgeCount out_degree) const;

 private:
  double lambda_;
  std::vector<double> bw_by_log2_len_;
};

/// The distinct values of `degrees`, ascending. `degrees` are out-degrees
/// (or arc search lengths) of a graph, so this and every table indexed by
/// degree are O(|V|).
std::vector<EdgeCount> DistinctDegrees(const std::vector<EdgeCount>& degrees);

/// Evaluates `fn(d)` once per degree in `distinct` (ascending, as
/// DistinctDegrees returns it) into a table indexed by degree; other entries
/// hold T{}. Every per-vertex quantity of the model — F_c, F_m, mem_sup —
/// depends on out-degree alone, so a vertex pass costs a lookup instead of
/// a log2 and two sqrt.
template <typename T, typename Fn>
std::vector<T> TabulateByDegree(const std::vector<EdgeCount>& distinct,
                                Fn fn) {
  std::vector<T> table(distinct.empty() ? 0 : distinct.back() + 1);
  for (EdgeCount d : distinct) table[static_cast<size_t>(d)] = fn(d);
  return table;
}

/// Per-bucket totals of the optimization objective (Eq. 2).
struct BucketCost {
  double compute = 0.0;  // C_i
  double memory = 0.0;   // M_i
};

/// Splits vertices (in permuted order) into buckets of `bucket_size`
/// consecutive new ids and returns each bucket's (C_i, M_i).
std::vector<BucketCost> BucketCosts(const std::vector<EdgeCount>& out_degrees,
                                    const Permutation& perm, int bucket_size,
                                    const ResourceModel& model);

/// The paper's Eq. 3 objective: sum_i |lambda * C_i - M_i|. Lower is better;
/// A-order approximately minimizes it, D-order nearly maximizes it.
double OrderingImbalanceCost(const std::vector<EdgeCount>& out_degrees,
                             const Permutation& perm, int bucket_size,
                             const ResourceModel& model);

}  // namespace gputc

#endif  // GPUTC_ORDER_RESOURCE_MODEL_H_
