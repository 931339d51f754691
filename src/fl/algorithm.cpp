#include "fl/algorithm.hpp"

#include <stdexcept>

#include "data/dataloader.hpp"
#include "fl/checkpoint/state_io.hpp"
#include "fl/fusion_stream.hpp"
#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace fedkemf::fl {

const sim::AdversaryModel* Algorithm::adversary_model() const {
  if (simulator_ == nullptr) return nullptr;
  const sim::AdversaryModel& adversary = simulator_->adversary();
  return adversary.spec().any() ? &adversary : nullptr;
}

void Algorithm::save_state(core::ByteWriter& writer) {
  ckpt::write_module_state(writer, global_model());
}

void Algorithm::load_state(core::ByteReader& reader) {
  ckpt::read_module_state(reader, global_model());
}

void apply_label_map(std::vector<std::size_t>& labels,
                     const std::vector<std::size_t>& label_map) {
  if (label_map.empty()) return;
  for (std::size_t& label : labels) label = label_map.at(label);
}

LocalTrainResult supervised_local_update(nn::Module& model, const data::Dataset& train_set,
                                         const std::vector<std::size_t>& shard,
                                         const LocalTrainConfig& config, core::Rng rng,
                                         const GradHook& hook,
                                         const std::vector<std::size_t>& label_map) {
  if (shard.empty()) throw std::invalid_argument("supervised_local_update: empty shard");
  model.set_training(true);
  nn::Sgd optimizer(model.parameters(),
                    {.learning_rate = config.learning_rate,
                     .momentum = config.momentum,
                     .weight_decay = config.weight_decay});
  nn::SoftmaxCrossEntropy ce;
  data::DataLoader loader(train_set, shard,
                          std::min(config.batch_size, shard.size()),
                          /*shuffle=*/true, rng);
  const auto params = model.parameters();

  LocalTrainResult result;
  double loss_total = 0.0;
  std::size_t batches = 0;
  data::Batch batch;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    loader.reset();
    while (loader.next(batch)) {
      apply_label_map(batch.labels, label_map);
      optimizer.zero_grad();
      core::Tensor logits = model.forward(batch.images);
      nn::LossResult loss = ce.compute(logits, batch.labels);
      model.backward(loss.grad);
      if (hook) hook(params);
      optimizer.step();
      loss_total += loss.value;
      ++batches;
    }
  }
  result.steps = optimizer.steps_taken();
  result.mean_loss = batches == 0 ? 0.0 : loss_total / static_cast<double>(batches);
  return result;
}

core::Rng client_stream(const Federation& federation, std::size_t round_index,
                        std::size_t client_id) {
  // One fork level per coordinate keeps streams decorrelated across both axes.
  return federation.root_rng().fork(0xC11E47ULL + round_index).fork(client_id);
}

void weighted_average_into(nn::Module& global, std::span<nn::Module* const> client_models,
                           std::span<const std::size_t> sampled,
                           const Federation& federation) {
  if (client_models.size() != sampled.size() || sampled.empty()) {
    throw std::invalid_argument("weighted_average_into: bad inputs");
  }
  shard_weighted_mean_into(global, client_models, sampled, {}, {}, federation);
}

void weighted_state_average_into(nn::Module& global,
                                 std::span<const StateContribution> members) {
  if (members.empty()) {
    throw std::invalid_argument("weighted_state_average_into: no members");
  }
  double total_weight = 0.0;
  for (const StateContribution& member : members) {
    if ((member.module == nullptr) == (member.state == nullptr)) {
      throw std::invalid_argument(
          "weighted_state_average_into: member needs exactly one of module/state");
    }
    total_weight += member.weight;
  }
  if (total_weight <= 0.0) {
    throw std::invalid_argument("weighted_state_average_into: zero total weight");
  }

  StreamingWeightedSum sum(global, total_weight);
  for (const StateContribution& member : members) {
    if (member.module != nullptr) {
      sum.add(*member.module, member.weight);
    } else {
      sum.add(*member.state, member.weight);
    }
  }
  sum.finalize();
}

void shard_weighted_mean_into(nn::Module& global, std::span<nn::Module* const> fresh,
                              std::span<const std::size_t> fresh_ids,
                              std::span<const StaleUpdate> stale,
                              std::span<const double> stale_weights,
                              const Federation& federation) {
  const auto shard = [&](std::size_t id) {
    return static_cast<double>(federation.client_shard(id).size());
  };
  double total_weight = 0.0;
  for (std::size_t id : fresh_ids) total_weight += shard(id);
  for (std::size_t k = 0; k < stale.size(); ++k) {
    total_weight += shard(stale[k].client_id) * stale_weights[k];
  }
  // Stream members through a single zero-initialized accumulator: identical
  // float-op order to the historical batch loop, O(model) working set.
  StreamingWeightedSum sum(global, total_weight);
  for (std::size_t i = 0; i < fresh.size(); ++i) sum.add(*fresh[i], shard(fresh_ids[i]));
  for (std::size_t k = 0; k < stale.size(); ++k) {
    sum.add(stale[k].state, shard(stale[k].client_id) * stale_weights[k]);
  }
  sum.finalize();
}

bool cap_fusion_members(std::size_t cap, std::vector<std::size_t>& fresh,
                        std::vector<StaleUpdate>& stale, std::vector<double>& stale_weights) {
  const std::size_t total = fresh.size() + stale.size();
  if (cap == 0 || total <= cap) return false;
  const std::size_t keep_fresh = std::min(fresh.size(), cap);
  const std::size_t keep_stale = std::min(stale.size(), cap - keep_fresh);
  const auto drop_stale = static_cast<std::ptrdiff_t>(stale.size() - keep_stale);
  stale.erase(stale.begin(), stale.begin() + drop_stale);
  stale_weights.erase(stale_weights.begin(), stale_weights.begin() + drop_stale);
  fresh.resize(keep_fresh);
  static obs::Counter& shed_counter =
      obs::MetricsRegistry::global().counter("fl.fusion.shed_members");
  static obs::Counter& degraded_counter =
      obs::MetricsRegistry::global().counter("fl.fusion.degraded_rounds");
  shed_counter.add(total - keep_fresh - keep_stale);
  degraded_counter.add();
  return true;
}

bool Algorithm::park_straggler(std::size_t round_index, std::size_t client_id,
                               nn::Module& staged,
                               const std::function<void(StaleUpdate&)>& fill_extras) {
  if (stale_buffer_ == nullptr) return false;  // legacy policy: discard
  const std::size_t delay = simulator_->lateness(round_index, client_id);
  if (delay == 0) return true;  // lands within its own round after all
  StaleUpdate update;
  update.client_id = client_id;
  update.origin_round = round_index;
  update.due_round = round_index + delay;
  update.state = nn::snapshot_state(staged);
  if (fill_extras) fill_extras(update);
  stale_buffer_->push(std::move(update));
  return false;
}

void Algorithm::collect_due_stale(std::size_t round_index) {
  stale_updates_.clear();
  stale_weights_.clear();
  last_stale_applied_ = 0;
  if (stale_buffer_ == nullptr) return;
  for (StaleUpdate& update : stale_buffer_->take_due(round_index)) {
    const double weight = stale_buffer_->weight(round_index - update.origin_round);
    if (weight <= 0.0) continue;  // alpha -> inf: the discount IS a discard
    stale_updates_.push_back(std::move(update));
    stale_weights_.push_back(weight);
  }
  last_stale_applied_ = stale_updates_.size();
}

}  // namespace fedkemf::fl
