#include "fl/fedmd.hpp"

#include <optional>
#include <stdexcept>

#include "core/serialize.hpp"
#include "fl/checkpoint/state_io.hpp"
#include "models/flops.hpp"
#include "nn/loss.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace fedkemf::fl {

FedMd::FedMd(std::vector<models::ModelSpec> client_arch_pool, LocalTrainConfig local_config,
             FedMdOptions options)
    : arch_pool_(std::move(client_arch_pool)),
      local_config_(local_config),
      options_(std::move(options)) {
  if (arch_pool_.empty()) throw std::invalid_argument("FedMd: empty architecture pool");
}

void FedMd::setup(Federation& federation) {
  federation_ = &federation;
  core::Rng init_rng = federation.root_rng().fork(0xFED3DBADULL);
  server_student_ = models::build_model(options_.server_student, init_rng);
  student_optimizer_ = std::make_unique<nn::Sgd>(
      server_student_->parameters(),
      nn::SgdOptions{.learning_rate = options_.student_learning_rate, .clip_norm = 5.0});
  slots_.clear();
  slots_.resize(federation.num_clients());
}

nn::Module& FedMd::global_model() {
  if (!server_student_) throw std::logic_error("FedMd: setup() not called");
  return *server_student_;
}

nn::Module* FedMd::client_model(std::size_t id) {
  if (id < slots_.size() && slots_[id].model) return slots_[id].model.get();
  return server_student_.get();
}

const models::ModelSpec& FedMd::client_spec(std::size_t id) const {
  return arch_pool_[id % arch_pool_.size()];
}

void FedMd::save_state(core::ByteWriter& writer) {
  Algorithm::save_state(writer);
  ckpt::write_optimizer(writer, *student_optimizer_);
  writer.write_u32(static_cast<std::uint32_t>(slots_.size()));
  for (Slot& s : slots_) {
    writer.write_u8(s.model ? 1 : 0);
    if (s.model) ckpt::write_module_state(writer, *s.model);
  }
}

void FedMd::load_state(core::ByteReader& reader) {
  Algorithm::load_state(reader);
  ckpt::read_optimizer(reader, *student_optimizer_);
  const std::uint32_t count = reader.read_u32();
  if (count != slots_.size()) {
    throw std::runtime_error("FedMd::load_state: checkpoint has " + std::to_string(count) +
                             " slots, federation has " + std::to_string(slots_.size()));
  }
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    if (reader.read_u8() == 0) continue;
    ckpt::read_module_state(reader, *slot(id).model);
  }
}

FedMd::Slot& FedMd::slot(std::size_t client_id) {
  Slot& s = slots_.at(client_id);
  if (!s.model) {
    core::Rng rng = federation_->root_rng().fork(0xFED3D001ULL + client_id);
    s.model = models::build_model(client_spec(client_id), rng);
    if (memory_budget_ != nullptr) {
      memory_budget_->charge(core::BudgetCategory::kClientState,
                             nn::state_numel(*s.model) * sizeof(float));
    }
  }
  return s;
}

double FedMd::client_round_flops(std::size_t client_id, std::size_t round_index) {
  if (arch_flops_per_sample_.empty()) {
    arch_flops_per_sample_.reserve(arch_pool_.size());
    for (const models::ModelSpec& spec : arch_pool_) {
      arch_flops_per_sample_.push_back(
          static_cast<double>(models::estimate_cost(spec).training_flops()));
    }
  }
  const LocalTrainConfig config = local_config_.at_round(round_index);
  const double samples =
      static_cast<double>(config.epochs) *
      static_cast<double>(federation_->client_shard(client_id).size());
  return arch_flops_per_sample_[client_id % arch_pool_.size()] * samples;
}

void FedMd::on_client_joined(std::size_t client_id) {
  Slot& s = slot(client_id);
  // A spilled rejoiner restores its own private model from disk; a CRC
  // failure (or no spill file) falls through to the warm-start below.
  if (spill_store_ != nullptr) {
    if (std::optional<std::vector<std::uint8_t>> bytes = spill_store_->take(client_id)) {
      core::ByteReader reader(*bytes);
      ckpt::read_module_state(reader, *s.model);
      return;
    }
  }
  // Seed from the server student when the architectures agree (every state
  // tensor shape-matches); heterogeneous joiners keep their fresh init.
  std::vector<core::Tensor> student_state = nn::snapshot_state(*server_student_);
  const std::vector<core::Tensor> model_state = nn::snapshot_state(*s.model);
  if (student_state.size() != model_state.size()) return;
  for (std::size_t k = 0; k < student_state.size(); ++k) {
    if (student_state[k].shape() != model_state[k].shape()) return;
  }
  nn::restore_state(*s.model, student_state);
}

void FedMd::on_client_evicted(std::size_t client_id) {
  Slot& s = slots_.at(client_id);
  if (s.model) {
    if (spill_store_ != nullptr) {
      core::ByteWriter writer;
      ckpt::write_module_state(writer, *s.model);
      spill_store_->store(client_id, writer.buffer());
    }
    if (memory_budget_ != nullptr) {
      memory_budget_->release(core::BudgetCategory::kClientState,
                              nn::state_numel(*s.model) * sizeof(float));
    }
  }
  s.model.reset();
}

double FedMd::round(std::size_t round_index, std::span<const std::size_t> sampled,
                    utils::ThreadPool& pool) {
  if (sampled.empty()) throw std::invalid_argument("FedMd::round: no sampled clients");
  Federation& fed = *federation_;
  {
    obs::ScopedPhaseTimer timer(phases_, obs::Phase::kLocalTrain);
    for (std::size_t id : sampled) slot(id);
  }

  // 1. Select this round's public batch (indices implied by the shared seed,
  //    so only the logits cross the wire).
  const core::Tensor& public_pool = fed.server_pool();
  const std::size_t batch_count = std::min(options_.public_batch, public_pool.dim(0));
  core::Rng pick_rng = fed.root_rng().fork(0xFED3B47CULL + round_index);
  const std::vector<std::size_t> picks =
      pick_rng.sample_without_replacement(public_pool.dim(0), batch_count);
  const core::Tensor public_batch = gather_pool(public_pool, picks);
  const std::size_t classes = arch_pool_.front().num_classes;
  const std::size_t logits_bytes =
      core::tensor_wire_size(core::Tensor(core::Shape::matrix(batch_count, classes)));

  // 2. Every sampled client predicts on the public batch and uploads logits.
  //    Under simulation the usual gates apply: offline clients upload nothing
  //    and deadline-missing stragglers are dropped — unless a stale buffer is
  //    configured, in which case their logits stay in *this* round's
  //    consensus at the staleness discount (a logit upload is meaningless in
  //    any later round, so FedMD's discount is intra-round).
  last_stale_applied_ = 0;
  std::vector<core::Tensor> member_logits(sampled.size());
  std::vector<double> losses(sampled.size(), 0.0);
  std::vector<double> member_weights(sampled.size(), 0.0);
  std::vector<std::uint8_t> discounted(sampled.size(), 0);
  if (simulator_ != nullptr) {
    client_round_flops(sampled.front(), round_index);  // warm cache, single thread
  }
  pool.parallel_for(sampled.size(), [&](std::size_t i) {
    obs::ScopedPhaseTimer timer(phases_, obs::Phase::kLocalTrain);
    obs::TraceSpan span("fl.client");
    const std::size_t id = sampled[i];
    if (simulator_ != nullptr && !simulator_->begin_client(round_index, id)) {
      return;  // device offline this round
    }
    nn::Module& model = *slots_[id].model;
    model.set_training(false);
    try {
      member_logits[i] = model.forward(public_batch);
      fed.channel().transfer_raw(logits_bytes, round_index, id, comm::Direction::kUplink,
                                 "public_logits");
    } catch (const comm::TransferFailed&) {
      if (simulator_ == nullptr) throw;
      simulator_->report_transfer_failure(round_index, id);
      return;
    }
    if (simulator_ != nullptr &&
        !simulator_->finish_client(round_index, id,
                                   client_round_flops(id, round_index))) {
      if (stale_buffer_ == nullptr) return;  // legacy policy: discard
      const std::size_t delay = simulator_->lateness(round_index, id);
      const double weight = stale_buffer_->weight(delay);
      if (weight <= 0.0) return;  // alpha -> inf: the discount IS a discard
      member_weights[i] = weight;
      if (delay > 0) discounted[i] = 1;
      return;
    }
    member_weights[i] = 1.0;
  });
  double consensus_weight = 0.0;
  std::size_t included = 0;
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    consensus_weight += member_weights[i];
    if (member_weights[i] > 0.0) ++included;
    if (discounted[i] != 0) ++last_stale_applied_;
  }
  if (included == 0) return 0.0;  // nobody delivered: every model keeps its state

  // 3. Consensus = mean of the uploaded logits (Li & Wang average class
  //    scores); broadcast back to the sampled clients.  Without a simulator
  //    this is the historical equal-weight path, verbatim.
  core::Tensor consensus;
  {
    obs::ScopedPhaseTimer timer(phases_, obs::Phase::kFuse);
    obs::TraceSpan span("fl.fuse");
    if (simulator_ == nullptr) {
      consensus = core::Tensor::zeros(member_logits.front().shape());
      const float inv = 1.0f / static_cast<float>(member_logits.size());
      for (const core::Tensor& logits : member_logits) consensus.add_scaled_(logits, inv);
      for (std::size_t id : sampled) {
        fed.channel().transfer_raw(logits_bytes, round_index, id,
                                   comm::Direction::kDownlink, "consensus_logits");
      }
    } else {
      for (std::size_t i = 0; i < sampled.size(); ++i) {
        if (member_weights[i] <= 0.0) continue;
        if (consensus.data() == nullptr) {
          consensus = core::Tensor::zeros(member_logits[i].shape());
        }
        consensus.add_scaled_(member_logits[i],
                              static_cast<float>(member_weights[i] / consensus_weight));
      }
      for (std::size_t i = 0; i < sampled.size(); ++i) {
        if (member_weights[i] <= 0.0) continue;  // offline / dropped: no downlink
        fed.channel().transfer_raw(logits_bytes, round_index, sampled[i],
                                   comm::Direction::kDownlink, "consensus_logits");
      }
    }
  }

  // 4. Digest (KD toward the consensus on the public batch) + revisit (local
  //    supervised pass), per client, in parallel.
  pool.parallel_for(sampled.size(), [&](std::size_t i) {
    obs::ScopedPhaseTimer timer(phases_, obs::Phase::kLocalTrain);
    obs::TraceSpan span("fl.client");
    if (member_weights[i] <= 0.0) return;  // never reached the consensus
    const std::size_t id = sampled[i];
    nn::Module& model = *slots_[id].model;
    model.set_training(true);
    nn::DistillationKl kd(options_.digest_temperature);
    nn::Sgd digest_opt(model.parameters(),
                       {.learning_rate = options_.digest_learning_rate, .clip_norm = 5.0});
    for (std::size_t epoch = 0; epoch < options_.digest_epochs; ++epoch) {
      core::Tensor student = model.forward(public_batch);
      nn::LossResult loss = kd.compute(student, consensus);
      digest_opt.zero_grad();
      model.backward(loss.grad);
      digest_opt.step();
    }
    const LocalTrainResult revisit = supervised_local_update(
        model, fed.train_set(), fed.client_shard(id), local_config_.at_round(round_index),
        client_stream(fed, round_index, id));
    losses[i] = revisit.mean_loss;
  });

  // 5. Server-side evaluand: distill the consensus into the student model.
  {
    obs::ScopedPhaseTimer timer(phases_, obs::Phase::kDistill);
    obs::TraceSpan span("fl.distill");
    server_student_->set_training(true);
    nn::DistillationKl kd(options_.digest_temperature);
    for (std::size_t epoch = 0; epoch < options_.student_epochs; ++epoch) {
      core::Tensor student = server_student_->forward(public_batch);
      nn::LossResult loss = kd.compute(student, consensus);
      student_optimizer_->zero_grad();
      server_student_->backward(loss.grad);
      student_optimizer_->step();
    }
  }

  double loss_total = 0.0;
  for (double loss : losses) loss_total += loss;
  return loss_total / static_cast<double>(included);
}

}  // namespace fedkemf::fl
