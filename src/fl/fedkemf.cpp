#include "fl/fedkemf.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "data/dataloader.hpp"
#include "fl/checkpoint/state_io.hpp"
#include "models/flops.hpp"
#include "nn/loss.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace fedkemf::fl {

DmlResult deep_mutual_update(nn::Module& local_model, nn::Module& knowledge_net,
                             const data::Dataset& train_set,
                             const std::vector<std::size_t>& shard,
                             const LocalTrainConfig& config, float kl_weight,
                             core::Rng rng, double clip_norm,
                             const std::vector<std::size_t>& label_map) {
  if (shard.empty()) throw std::invalid_argument("deep_mutual_update: empty shard");
  local_model.set_training(true);
  knowledge_net.set_training(true);
  nn::Sgd local_opt(local_model.parameters(),
                    {.learning_rate = config.learning_rate,
                     .momentum = config.momentum,
                     .weight_decay = config.weight_decay,
                     .clip_norm = clip_norm});
  nn::Sgd knowledge_opt(knowledge_net.parameters(),
                        {.learning_rate = config.learning_rate,
                         .momentum = config.momentum,
                         .weight_decay = config.weight_decay,
                         .clip_norm = clip_norm});
  nn::SoftmaxCrossEntropy ce;
  nn::DistillationKl dml_kl(/*temperature=*/1.0f);  // DML uses raw softmax outputs
  data::DataLoader loader(train_set, shard, std::min(config.batch_size, shard.size()),
                          /*shuffle=*/true, rng);

  DmlResult result;
  double local_loss_total = 0.0;
  double knowledge_loss_total = 0.0;
  std::size_t batches = 0;
  data::Batch batch;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    loader.reset();
    while (loader.next(batch)) {
      apply_label_map(batch.labels, label_map);
      // Forward both networks once; each module caches its own activations.
      core::Tensor local_logits = local_model.forward(batch.images);
      core::Tensor knowledge_logits = knowledge_net.forward(batch.images);

      // Algorithm 1 line 6: theta's loss = CE + KL(theta_g || theta).
      nn::LossResult local_ce = ce.compute(local_logits, batch.labels);
      nn::LossResult local_kl = dml_kl.compute(local_logits, knowledge_logits);
      core::Tensor local_grad = local_ce.grad;
      local_grad.add_scaled_(local_kl.grad, kl_weight);

      // Line 7: theta_g's loss = CE + KL(theta || theta_g).
      nn::LossResult knowledge_ce = ce.compute(knowledge_logits, batch.labels);
      nn::LossResult knowledge_kl = dml_kl.compute(knowledge_logits, local_logits);
      core::Tensor knowledge_grad = knowledge_ce.grad;
      knowledge_grad.add_scaled_(knowledge_kl.grad, kl_weight);

      local_opt.zero_grad();
      local_model.backward(local_grad);
      local_opt.step();

      knowledge_opt.zero_grad();
      knowledge_net.backward(knowledge_grad);
      knowledge_opt.step();

      local_loss_total += local_ce.value + kl_weight * local_kl.value;
      knowledge_loss_total += knowledge_ce.value + kl_weight * knowledge_kl.value;
      ++batches;
    }
  }
  result.steps = batches;
  if (batches > 0) {
    result.mean_local_loss = local_loss_total / static_cast<double>(batches);
    result.mean_knowledge_loss = knowledge_loss_total / static_cast<double>(batches);
  }
  return result;
}

FedKemf::FedKemf(std::vector<models::ModelSpec> client_arch_pool,
                 LocalTrainConfig local_config, FedKemfOptions options)
    : arch_pool_(std::move(client_arch_pool)),
      local_config_(local_config),
      options_(std::move(options)),
      distiller_(options_, options_.knowledge_spec, /*stale_net_salt=*/0x57A1E4E7ULL,
                 /*order_salt=*/0xD157111ULL, options_.dml_clip_norm) {
  if (arch_pool_.empty()) throw std::invalid_argument("FedKemf: empty architecture pool");
}

void FedKemf::setup(Federation& federation) {
  federation_ = &federation;
  core::Rng init_rng = federation.root_rng().fork(0x6B4F5EEDULL);
  global_knowledge_ = models::build_model(options_.knowledge_spec, init_rng);
  distiller_.setup(federation, *global_knowledge_, *this);
  slots_.clear();
  slots_.resize(federation.num_clients());
  last_distill_loss_ = 0.0;
  last_rejected_ = 0;
}

nn::Module& FedKemf::global_model() {
  if (!global_knowledge_) throw std::logic_error("FedKemf: setup() not called");
  return *global_knowledge_;
}

nn::Module* FedKemf::client_model(std::size_t id) {
  if (id < slots_.size() && slots_[id].local_model) return slots_[id].local_model.get();
  return global_knowledge_.get();
}

const models::ModelSpec& FedKemf::client_spec(std::size_t id) const {
  return arch_pool_[id % arch_pool_.size()];
}

FedKemf::Slot& FedKemf::slot(std::size_t client_id) {
  Slot& s = slots_.at(client_id);
  if (!s.local_model) {
    core::Rng rng = federation_->root_rng().fork(0x51077EDULL + client_id);
    s.local_model = models::build_model(client_spec(client_id), rng);
    s.knowledge = models::build_model(options_.knowledge_spec, rng);
    s.staged = models::build_model(options_.knowledge_spec, rng);
    if (memory_budget_ != nullptr) {
      memory_budget_->charge(core::BudgetCategory::kClientState, slot_state_bytes(s));
    }
  }
  return s;
}

std::size_t FedKemf::slot_state_bytes(Slot& s) const {
  if (!s.local_model) return 0;
  return (nn::state_numel(*s.local_model) + nn::state_numel(*s.knowledge) +
          nn::state_numel(*s.staged)) *
         sizeof(float);
}

void FedKemf::save_state(core::ByteWriter& writer) {
  Algorithm::save_state(writer);
  ckpt::write_optimizer(writer, distiller_.optimizer());
  writer.write_u32(static_cast<std::uint32_t>(slots_.size()));
  for (Slot& s : slots_) {
    writer.write_u8(s.local_model ? 1 : 0);
    if (s.local_model) {
      // The private local model never crosses the wire: full state.  The
      // knowledge working copies are overwritten by the downlink each round,
      // so only their Dropout stream positions matter.
      ckpt::write_module_state(writer, *s.local_model);
      ckpt::write_module_rng_streams(writer, *s.knowledge);
      ckpt::write_module_rng_streams(writer, *s.staged);
    }
  }
  distiller_.save_reputation(writer);
}

void FedKemf::load_state(core::ByteReader& reader) {
  Algorithm::load_state(reader);
  ckpt::read_optimizer(reader, distiller_.optimizer());
  const std::uint32_t count = reader.read_u32();
  if (count != slots_.size()) {
    throw std::runtime_error("FedKemf::load_state: checkpoint has " +
                             std::to_string(count) + " slots, federation has " +
                             std::to_string(slots_.size()));
  }
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    if (reader.read_u8() == 0) continue;
    Slot& s = slot(id);
    ckpt::read_module_state(reader, *s.local_model);
    ckpt::read_module_rng_streams(reader, *s.knowledge);
    ckpt::read_module_rng_streams(reader, *s.staged);
  }
  distiller_.load_reputation(reader);
}

double FedKemf::client_training_flops(std::size_t client_id, std::size_t round_index) {
  if (arch_flops_per_sample_.empty()) {
    // DML trains both networks on every sample, so a client's per-sample cost
    // is its local architecture plus the knowledge network.
    const double knowledge_flops = static_cast<double>(
        models::estimate_cost(options_.knowledge_spec).training_flops());
    arch_flops_per_sample_.reserve(arch_pool_.size());
    for (const models::ModelSpec& spec : arch_pool_) {
      arch_flops_per_sample_.push_back(
          static_cast<double>(models::estimate_cost(spec).training_flops()) +
          knowledge_flops);
    }
  }
  const LocalTrainConfig config = local_config_.at_round(round_index);
  const double samples =
      static_cast<double>(config.epochs) *
      static_cast<double>(federation_->client_shard(client_id).size());
  return arch_flops_per_sample_[client_id % arch_pool_.size()] * samples;
}

double FedKemf::round(std::size_t round_index, std::span<const std::size_t> sampled,
                      utils::ThreadPool& pool) {
  if (sampled.empty()) throw std::invalid_argument("FedKemf::round: no sampled clients");
  Federation& fed = *federation_;
  last_results_.assign(sampled.size(), {});
  completed_.assign(sampled.size(), 0);
  last_distill_loss_ = 0.0;
  last_rejected_ = 0;
  last_fusion_degraded_ = false;
  const sim::AdversaryModel* adversary = adversary_model();
  {
    // Slot instantiation (local + knowledge + staged nets) counts as standing
    // the clients up: charged to local-train like the DML pass itself.
    obs::ScopedPhaseTimer timer(phases_, obs::Phase::kLocalTrain);
    for (std::size_t id : sampled) slot(id);
    if (simulator_ != nullptr && !sampled.empty()) {
      client_training_flops(sampled.front(), round_index);  // warm cache, single thread
    }
  }

  pool.parallel_for(sampled.size(), [&](std::size_t i) {
    obs::TraceSpan client_span("fl.client");
    const std::size_t id = sampled[i];
    if (simulator_ != nullptr && !simulator_->begin_client(round_index, id)) {
      return;  // device offline this round
    }
    Slot& s = slots_[id];
    try {
      {
        obs::ScopedPhaseTimer timer(phases_, obs::Phase::kUpload);
        // Only the tiny knowledge network crosses the wire, in both directions.
        if (options_.payload_codec == comm::Codec::kFp32) {
          fed.channel().transfer(*global_knowledge_, *s.knowledge, round_index, id,
                                 comm::Direction::kDownlink, "knowledge_net");
        } else {
          fed.channel().transfer_compressed(*global_knowledge_, *s.knowledge, round_index,
                                            id, comm::Direction::kDownlink,
                                            "knowledge_net", options_.payload_codec);
        }
      }
      const sim::AdversaryRole role =
          adversary != nullptr ? adversary->role(id) : sim::AdversaryRole::kHonest;
      DmlResult result;
      {
        obs::ScopedPhaseTimer timer(phases_, obs::Phase::kLocalTrain);
        obs::TraceSpan train_span("fl.local_train");
        if (role == sim::AdversaryRole::kFreeRider) {
          // Free-riders skip training entirely and upload either the stale
          // broadcast they just received or random weights.
          adversary->free_ride(*s.knowledge, round_index, id);
        } else {
          std::vector<std::size_t> label_map;
          if (role == sim::AdversaryRole::kLabelFlip) {
            label_map = adversary->label_permutation(fed.train_set().num_classes(), id);
          }
          result = deep_mutual_update(*s.local_model, *s.knowledge,
                                      fed.train_set(), fed.client_shard(id),
                                      local_config_.at_round(round_index),
                                      options_.dml_kl_weight,
                                      client_stream(fed, round_index, id),
                                      options_.dml_clip_norm, label_map);
          if (role == sim::AdversaryRole::kPoison) {
            adversary->poison_update(*s.knowledge, round_index, id);
          }
        }
      }
      if (simulator_ != nullptr && simulator_->mid_round_failure(round_index, id)) {
        return;  // crashed after DML, before the upload
      }
      {
        obs::ScopedPhaseTimer timer(phases_, obs::Phase::kUpload);
        if (options_.payload_codec == comm::Codec::kFp32) {
          fed.channel().transfer(*s.knowledge, *s.staged, round_index, id,
                                 comm::Direction::kUplink, "knowledge_net");
        } else {
          fed.channel().transfer_compressed(*s.knowledge, *s.staged, round_index, id,
                                            comm::Direction::kUplink, "knowledge_net",
                                            options_.payload_codec);
        }
      }
      if (simulator_ != nullptr &&
          !simulator_->finish_client(round_index, id,
                                     client_training_flops(id, round_index))) {
        // Straggler: the knowledge net arrives after the deadline.  With a
        // stale buffer it is parked for a later round (or, at lateness 0,
        // folded back into this cohort); without one it is discarded.
        if (!park_straggler(round_index, id, *s.staged)) return;
      }
      last_results_[i] = result;
      completed_[i] = 1;
    } catch (const comm::TransferFailed&) {
      if (simulator_ == nullptr) throw;
      simulator_->report_transfer_failure(round_index, id);
    }
  });

  std::vector<std::size_t> survivors;
  survivors.reserve(sampled.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    if (completed_[i] != 0) survivors.push_back(sampled[i]);
  }

  collect_due_stale(round_index);
  if (!survivors.empty() || !stale_updates_.empty()) fuse(round_index, survivors, pool);

  double loss_total = 0.0;
  std::size_t reported = 0;
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    if (completed_[i] == 0) continue;
    loss_total += last_results_[i].mean_local_loss;
    ++reported;
  }
  return reported > 0 ? loss_total / static_cast<double>(reported) : 0.0;
}

void FedKemf::on_client_joined(std::size_t client_id) {
  Slot& s = slot(client_id);
  // A spilled rejoiner gets its private model and Dropout stream positions
  // back from disk — the cheap eviction becomes invisible to the trajectory.
  // A CRC failure (or no spill file) falls through to the fresh-joiner path.
  if (spill_store_ != nullptr) {
    if (std::optional<std::vector<std::uint8_t>> bytes = spill_store_->take(client_id)) {
      core::ByteReader reader(*bytes);
      ckpt::read_module_state(reader, *s.local_model);
      ckpt::read_module_rng_streams(reader, *s.knowledge);
      ckpt::read_module_rng_streams(reader, *s.staged);
    }
  }
  const std::vector<core::Tensor> state = nn::snapshot_state(*global_knowledge_);
  nn::restore_state(*s.knowledge, state);
  nn::restore_state(*s.staged, state);
}

void FedKemf::on_client_evicted(std::size_t client_id) {
  Slot& s = slots_.at(client_id);
  if (s.local_model) {
    // With a spill store the private model survives eviction on disk instead
    // of being dropped — the memory bound still holds (the slot is released)
    // but a rejoiner resumes its own trajectory rather than a cold start.
    if (spill_store_ != nullptr) {
      core::ByteWriter writer;
      ckpt::write_module_state(writer, *s.local_model);
      ckpt::write_module_rng_streams(writer, *s.knowledge);
      ckpt::write_module_rng_streams(writer, *s.staged);
      spill_store_->store(client_id, writer.buffer());
    }
    if (memory_budget_ != nullptr) {
      memory_budget_->release(core::BudgetCategory::kClientState, slot_state_bytes(s));
    }
  }
  s.local_model.reset();
  s.knowledge.reset();
  s.staged.reset();
  distiller_.forget(client_id);
}

void FedKemf::fuse(std::size_t round_index, std::span<const std::size_t> survivors,
                   utils::ThreadPool& pool) {
  std::vector<nn::Module*> staged;
  staged.reserve(survivors.size());
  for (std::size_t id : survivors) staged.push_back(slots_.at(id).staged.get());
  const DistillOutcome outcome =
      options_.fuse_by_weight_average
          ? distiller_.average(pool, survivors, staged, stale_updates_, stale_weights_)
          : distiller_.fuse(pool, round_index, survivors, staged, stale_updates_,
                            stale_weights_);
  last_rejected_ = outcome.rejected;
  last_fusion_degraded_ = outcome.degraded;
  last_distill_loss_ = outcome.loss;
  last_stale_applied_ = stale_updates_.size();
}

}  // namespace fedkemf::fl
