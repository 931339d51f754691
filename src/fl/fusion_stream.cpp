#include "fl/fusion_stream.hpp"

#include <stdexcept>

namespace fedkemf::fl {

StreamingWeightedSum::StreamingWeightedSum(nn::Module& target, double total_weight)
    : target_(target), total_weight_(total_weight) {
  if (!(total_weight > 0.0)) {
    throw std::invalid_argument("StreamingWeightedSum: total weight must be positive");
  }
  accumulator_ = nn::snapshot_state(target);
  for (core::Tensor& t : accumulator_) t.zero();
}

void StreamingWeightedSum::add(nn::Module& member, double weight) {
  if (finalized_) throw std::logic_error("StreamingWeightedSum: add after finalize");
  const float scale = static_cast<float>(weight / total_weight_);
  nn::accumulate_state(member, accumulator_, scale);
  ++members_;
}

void StreamingWeightedSum::add(const std::vector<core::Tensor>& state, double weight) {
  if (finalized_) throw std::logic_error("StreamingWeightedSum: add after finalize");
  if (state.size() != accumulator_.size()) {
    throw std::invalid_argument("StreamingWeightedSum: snapshot tensor count mismatch");
  }
  const float scale = static_cast<float>(weight / total_weight_);
  for (std::size_t t = 0; t < accumulator_.size(); ++t) {
    accumulator_[t].add_scaled_(state[t], scale);
  }
  ++members_;
}

void StreamingWeightedSum::finalize() {
  if (finalized_) throw std::logic_error("StreamingWeightedSum: double finalize");
  if (members_ == 0) throw std::logic_error("StreamingWeightedSum: no members added");
  finalized_ = true;
  nn::restore_state(target_, accumulator_);
}

}  // namespace fedkemf::fl
