#include "fl/fednova.hpp"

#include <stdexcept>

#include "core/serialize.hpp"
#include "obs/trace.hpp"

namespace fedkemf::fl {

FedNova::FedNova(models::ModelSpec spec, LocalTrainConfig local_config, bool ship_momentum)
    : FedAvg(std::move(spec), local_config), ship_momentum_(ship_momentum) {}

double FedNova::round(std::size_t round_index, std::span<const std::size_t> sampled,
                      utils::ThreadPool& pool) {
  round_start_.clear();
  for (nn::Parameter* p : global_model().parameters()) {
    round_start_.push_back(p->value.clone());
  }
  local_steps_.assign(federation().num_clients(), 0);
  if (momentum_payload_bytes_ == 0 && ship_momentum_) {
    // The momentum state is one fp32 tensor per parameter tensor — the same
    // wire size as the parameters themselves.
    std::size_t bytes = 0;
    for (nn::Parameter* p : global_model().parameters()) {
      bytes += core::tensor_wire_size(p->value);
    }
    momentum_payload_bytes_ = bytes;
  }
  return FedAvg::round(round_index, sampled, pool);
}

void FedNova::after_local_update(std::size_t round_index, std::size_t client_id,
                                 Slot& client_slot, const LocalTrainResult& result) {
  (void)client_slot;
  local_steps_.at(client_id) = result.steps;
  // tau_i itself plus the optional momentum state ride the uplink.
  federation().channel().transfer_raw(sizeof(std::uint64_t), round_index, client_id,
                                      comm::Direction::kUplink, "tau");
  if (ship_momentum_) {
    federation().channel().transfer_raw(momentum_payload_bytes_, round_index, client_id,
                                        comm::Direction::kUplink, "momentum");
  }
}

void FedNova::aggregate(std::size_t round_index, std::span<const std::size_t> sampled,
                        utils::ThreadPool& pool) {
  (void)round_index;
  (void)pool;
  obs::ScopedPhaseTimer fuse_timer(phases_, obs::Phase::kFuse);
  obs::TraceSpan span("fl.fuse");
  Federation& fed = federation();
  // Stale members join the normalized average as extra cohort entries with
  // their shard weight discounted by staleness; their tau rode along in the
  // buffered update's scalars.  With no stale entries every loop below runs
  // the historical fresh-only iteration bitwise.
  auto stale_shard_weight = [&](std::size_t e) {
    return static_cast<double>(fed.client_shard(stale_updates_[e].client_id).size()) *
           stale_weights_[e];
  };
  auto stale_tau = [&](std::size_t e) {
    const double tau = stale_updates_[e].scalars.at(0);
    if (tau <= 0.0) throw std::logic_error("FedNova: stale update with zero local steps");
    return tau;
  };
  double total_weight = 0.0;
  for (std::size_t id : sampled) {
    total_weight += static_cast<double>(fed.client_shard(id).size());
  }
  for (std::size_t e = 0; e < stale_updates_.size(); ++e) {
    total_weight += stale_shard_weight(e);
  }

  // tau_eff = sum_i p_i tau_i.
  double tau_eff = 0.0;
  for (std::size_t id : sampled) {
    const double p = static_cast<double>(fed.client_shard(id).size()) / total_weight;
    const std::size_t tau = local_steps_.at(id);
    if (tau == 0) throw std::logic_error("FedNova: client took zero local steps");
    tau_eff += p * static_cast<double>(tau);
  }
  for (std::size_t e = 0; e < stale_updates_.size(); ++e) {
    tau_eff += (stale_shard_weight(e) / total_weight) * stale_tau(e);
  }

  // x <- x - tau_eff * sum_i p_i * (x - y_i) / tau_i  (parameters).
  auto global_params = global_model().parameters();
  for (std::size_t k = 0; k < global_params.size(); ++k) {
    core::Tensor update = core::Tensor::zeros(global_params[k]->value.shape());
    for (std::size_t s = 0; s < sampled.size(); ++s) {
      const std::size_t id = sampled[s];
      const double p = static_cast<double>(fed.client_shard(id).size()) / total_weight;
      const double tau = static_cast<double>(local_steps_.at(id));
      auto client_params = slots_.at(id).staged->parameters();
      // update += (p / tau) * (x_start - y_i)
      const float scale = static_cast<float>(p / tau);
      const float* __restrict start = round_start_[k].data();
      const float* __restrict y = client_params[k]->value.data();
      float* __restrict u = update.data();
      const std::size_t n = update.numel();
      for (std::size_t j = 0; j < n; ++j) u[j] += scale * (start[j] - y[j]);
    }
    for (std::size_t e = 0; e < stale_updates_.size(); ++e) {
      const double p = stale_shard_weight(e) / total_weight;
      const float scale = static_cast<float>(p / stale_tau(e));
      const float* __restrict start = round_start_[k].data();
      const float* __restrict y = stale_updates_[e].state.at(k).data();
      float* __restrict u = update.data();
      const std::size_t n = update.numel();
      for (std::size_t j = 0; j < n; ++j) u[j] += scale * (start[j] - y[j]);
    }
    // x = x_start - tau_eff * update.
    float* __restrict x = global_params[k]->value.data();
    const float* __restrict start = round_start_[k].data();
    const float* __restrict u = update.data();
    const float te = static_cast<float>(tau_eff);
    const std::size_t n = update.numel();
    for (std::size_t j = 0; j < n; ++j) x[j] = start[j] - te * u[j];
  }

  // Buffers (BN statistics) are not SGD-optimized: plain weighted average.
  auto global_buffers = global_model().buffers();
  for (std::size_t k = 0; k < global_buffers.size(); ++k) {
    core::Tensor avg = core::Tensor::zeros(global_buffers[k]->value.shape());
    for (std::size_t id : sampled) {
      const float p = static_cast<float>(
          static_cast<double>(fed.client_shard(id).size()) / total_weight);
      avg.add_scaled_(slots_.at(id).staged->buffers()[k]->value, p);
    }
    for (std::size_t e = 0; e < stale_updates_.size(); ++e) {
      // snapshot_state lays out parameters first, then buffers.
      const float p = static_cast<float>(stale_shard_weight(e) / total_weight);
      avg.add_scaled_(stale_updates_[e].state.at(global_params.size() + k), p);
    }
    global_buffers[k]->value = std::move(avg);
  }
}

}  // namespace fedkemf::fl
