#pragma once

// FedNova (Wang et al. 2020): normalized averaging of client updates.
//
// Each client i runs tau_i local steps (tau varies with shard size under
// non-IID splits); naive averaging then biases the global update toward
// clients that stepped more.  FedNova aggregates normalized updates
// d_i = (x - y_i) / tau_i and applies x <- x - tau_eff * sum_i p_i d_i with
// tau_eff = sum_i p_i tau_i, removing the objective inconsistency.
//
// Communication accounting: besides the model, our FedNova clients upload
// their local optimizer momentum so the server can reproduce the
// momentum-corrected normalization — this doubles the uplink payload, which
// is how the paper arrives at its 2x per-round cost for FedNova
// (Table 1: 4.2 MB vs 2.1 MB for ResNet-20).  Disable with
// ship_momentum=false to get the minimal 1x variant.

#include "fl/fedavg.hpp"

namespace fedkemf::fl {

class FedNova final : public FedAvg {
 public:
  FedNova(models::ModelSpec spec, LocalTrainConfig local_config, bool ship_momentum = true);

  std::string name() const override { return "FedNova"; }
  double round(std::size_t round_index, std::span<const std::size_t> sampled,
               utils::ThreadPool& pool) override;

 protected:
  void after_local_update(std::size_t round_index, std::size_t client_id, Slot& client_slot,
                          const LocalTrainResult& result) override;
  void aggregate(std::size_t round_index, std::span<const std::size_t> sampled,
                 utils::ThreadPool& pool) override;

 private:
  bool ship_momentum_;
  /// Parameter snapshot of the global model at round start.
  std::vector<core::Tensor> round_start_;
  /// tau_i per client id for the current round.
  std::vector<std::size_t> local_steps_;
  std::size_t momentum_payload_bytes_ = 0;
};

}  // namespace fedkemf::fl
