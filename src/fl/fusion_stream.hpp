#pragma once

// Memory-bounded fusion primitives.
//
// The mean-family statistics (FedAvg/FedProx/FedNova) are linear: the fused
// state is sum_i (w_i / W) * state_i with W known up front from the member
// weights alone.  StreamingWeightedSum exploits that — it folds one member at
// a time into a single accumulator (O(model) RAM, not O(cohort)) and is
// bitwise-identical to weighted_average_into / weighted_state_average_into by
// construction: same accumulator initialization, same float(w / W) scale,
// same per-member accumulate order.  weighted_state_average_into is in fact
// implemented on top of it.
//
// Order statistics (trimmed mean / median) are not streamable: they need all
// member values per coordinate.  Bounding them is the fusion-member cap's job
// (cap_fusion_members in fl/algorithm.hpp sheds members beyond
// ResourceLimits::max_fusion_members and marks the round degraded).

#include <cstddef>
#include <vector>

#include "core/tensor.hpp"
#include "nn/module.hpp"

namespace fedkemf::fl {

/// Streaming weighted mean over module states.  Usage:
///   StreamingWeightedSum sum(global, total_weight);
///   for (member : members) sum.add(member, weight);   // canonical order!
///   sum.finalize();
/// finalize() restores the accumulated mean into the target module.  Members
/// must be added in the same canonical order the batch helpers use, or the
/// result (while mathematically equal) will not be bitwise-identical.
class StreamingWeightedSum {
 public:
  /// `total_weight` is the sum of every weight that will be add()ed; it must
  /// be positive and known up front (shard sizes and staleness discounts are
  /// cheap scalars — no member state is needed to compute it).
  StreamingWeightedSum(nn::Module& target, double total_weight);

  /// Folds a live module's state in at weight / total_weight.
  void add(nn::Module& member, double weight);
  /// Folds a raw state snapshot (snapshot_state layout) in.
  void add(const std::vector<core::Tensor>& state, double weight);

  std::size_t members_added() const { return members_; }

  /// Writes the accumulated mean back into the target.  Call exactly once,
  /// after every member is added; throws if no member was added.
  void finalize();

 private:
  nn::Module& target_;
  double total_weight_;
  std::vector<core::Tensor> accumulator_;
  std::size_t members_ = 0;
  bool finalized_ = false;
};

}  // namespace fedkemf::fl
