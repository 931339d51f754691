#include "fl/feddf.hpp"

#include <algorithm>

#include "fl/checkpoint/state_io.hpp"

namespace fedkemf::fl {

FedDf::FedDf(models::ModelSpec spec, LocalTrainConfig local_config, FedDfOptions options)
    : FedAvg(std::move(spec), local_config),
      options_(options),
      distiller_(options_, spec_, /*stale_net_salt=*/0x57A1ED0FULL,
                 /*order_salt=*/0xFEDD1F00ULL, /*clip_norm=*/0.0) {}

void FedDf::setup(Federation& federation) {
  FedAvg::setup(federation);
  distiller_.setup(federation, global_model(), *this);
  last_distill_loss_ = 0.0;
  last_rejected_ = 0;
}

void FedDf::save_state(core::ByteWriter& writer) {
  FedAvg::save_state(writer);
  ckpt::write_optimizer(writer, distiller_.optimizer());
  distiller_.save_reputation(writer);
}

void FedDf::load_state(core::ByteReader& reader) {
  FedAvg::load_state(reader);
  ckpt::read_optimizer(reader, distiller_.optimizer());
  distiller_.load_reputation(reader);
}

void FedDf::on_client_evicted(std::size_t client_id) {
  FedAvg::on_client_evicted(client_id);
  distiller_.forget(client_id);
}

void FedDf::aggregate(std::size_t round_index, std::span<const std::size_t> sampled,
                      utils::ThreadPool& pool) {
  last_distill_loss_ = 0.0;
  last_rejected_ = 0;
  if (std::min(options_.distill_batch_size, federation().server_pool().dim(0)) == 0) {
    FedAvg::aggregate(round_index, sampled, pool);  // nothing to distill on
    return;
  }
  // FedAvg::round already capped the cohort, so the distiller's cap is a no-op.
  std::vector<nn::Module*> staged;
  staged.reserve(sampled.size());
  for (std::size_t id : sampled) staged.push_back(slots_.at(id).staged.get());
  const DistillOutcome outcome =
      distiller_.fuse(pool, round_index, sampled, staged, stale_updates_, stale_weights_);
  last_rejected_ = outcome.rejected;
  last_distill_loss_ = outcome.loss;
  last_stale_applied_ = stale_updates_.size();
}

}  // namespace fedkemf::fl
