#pragma once

// SCAFFOLD (Karimireddy et al. 2020): stochastic controlled averaging.
//
// The server maintains a control variate c and each client a variate c_i
// (both parameter-shaped).  Local steps use the corrected gradient
// g + c - c_i, which cancels client drift under non-IID data.  After K local
// steps the client sets (option II)
//   c_i+ = c_i - c + (x - y_i) / (K * lr)
// and uploads (y_i, c_i+ - c_i); the server applies
//   x <- x + (1/|S|) sum (y_i - x),   c <- c + (1/N) sum (c_i+ - c_i).
//
// Communication: model + variate in each direction — the 2x per-round cost
// the paper attributes to SCAFFOLD.  Variate payloads are metered at their
// exact serialized size.

#include "fl/fedavg.hpp"

namespace fedkemf::fl {

class Scaffold final : public FedAvg {
 public:
  Scaffold(models::ModelSpec spec, LocalTrainConfig local_config);

  std::string name() const override { return "SCAFFOLD"; }
  void setup(Federation& federation) override;
  double round(std::size_t round_index, std::span<const std::size_t> sampled,
               utils::ThreadPool& pool) override;

  /// FedAvg state + server control variate + materialized client variates.
  void save_state(core::ByteWriter& writer) override;
  void load_state(core::ByteReader& reader) override;

  /// Also drops the departed client's control variate; a rejoiner restarts
  /// from a zero variate like any first-time participant.
  void on_client_evicted(std::size_t client_id) override;

 protected:
  GradHook make_grad_hook(std::size_t client_id, nn::Module& client_model) override;
  void after_local_update(std::size_t round_index, std::size_t client_id, Slot& client_slot,
                          const LocalTrainResult& result) override;
  void aggregate(std::size_t round_index, std::span<const std::size_t> sampled,
                 utils::ThreadPool& pool) override;
  /// Adds the control-variate payload a stale SCAFFOLD update needs: the
  /// client's uploaded delta c_i+ - c_i, plus the *server* control the client
  /// trained against (its local steps used g + c_origin - c_i, so applying
  /// the update s rounds later under a drifted server control requires the
  /// correction y += lr*K*(c_origin - c_now)).
  void fill_stale_extras(std::size_t round_index, std::size_t client_id,
                         const LocalTrainResult& result, StaleUpdate& update) override;

 private:
  using Variate = std::vector<core::Tensor>;  ///< parameter-shaped tensor list

  Variate make_zero_variate() const;
  std::size_t variate_wire_bytes() const;

  Variate server_control_;
  std::vector<Variate> client_controls_;       ///< per client id (zeros until visited)
  std::vector<Variate> client_control_deltas_; ///< per client id, this round
  std::vector<core::Tensor> round_start_;      ///< global params at round start
};

}  // namespace fedkemf::fl
