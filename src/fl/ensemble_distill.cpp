#include "fl/ensemble_distill.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "core/tensor_ops.hpp"
#include "fl/defense/robust_ensemble.hpp"
#include "nn/loss.hpp"
#include "obs/trace.hpp"

namespace fedkemf::fl {

core::Tensor ensemble_logits(EnsembleStrategy strategy,
                             std::span<const core::Tensor> member_logits) {
  if (member_logits.empty()) throw std::invalid_argument("ensemble_logits: no members");
  const core::Shape shape = member_logits.front().shape();
  for (const core::Tensor& m : member_logits) {
    if (m.shape() != shape) throw std::invalid_argument("ensemble_logits: shape mismatch");
  }
  if (shape.rank() != 2) throw std::invalid_argument("ensemble_logits: expected [N, C]");
  const std::size_t rows = shape[0];
  const std::size_t cols = shape[1];

  switch (strategy) {
    case EnsembleStrategy::kMaxLogits: {
      // Eq. (5): element-wise maxima across all member output vectors.
      core::Tensor out = member_logits.front().clone();
      for (std::size_t m = 1; m < member_logits.size(); ++m) {
        float* __restrict o = out.data();
        const float* __restrict v = member_logits[m].data();
        for (std::size_t i = 0; i < out.numel(); ++i) o[i] = std::max(o[i], v[i]);
      }
      return out;
    }
    case EnsembleStrategy::kAvgLogits: {
      core::Tensor out = core::Tensor::zeros(shape);
      const float inv = 1.0f / static_cast<float>(member_logits.size());
      for (const core::Tensor& m : member_logits) out.add_scaled_(m, inv);
      return out;
    }
    case EnsembleStrategy::kMajorityVote: {
      // Each member votes for its argmax class; the teacher distribution is
      // the (smoothed) vote histogram expressed as log-probabilities so it
      // plugs into the same KL distillation loss.
      core::Tensor votes = core::Tensor::zeros(shape);
      std::vector<std::size_t> winners(rows);
      for (const core::Tensor& m : member_logits) {
        core::argmax_rows(m, winners.data());
        for (std::size_t r = 0; r < rows; ++r) votes.data()[r * cols + winners[r]] += 1.0f;
      }
      core::Tensor out(shape);
      const float k = static_cast<float>(member_logits.size());
      constexpr float kSmoothing = 0.1f;
      for (std::size_t i = 0; i < out.numel(); ++i) {
        out.data()[i] = std::log((votes.data()[i] + kSmoothing) /
                                 (k + kSmoothing * static_cast<float>(cols)));
      }
      return out;
    }
    case EnsembleStrategy::kTrimmedMean:
      return trimmed_mean_logits(member_logits);
    case EnsembleStrategy::kMedian:
      return median_logits(member_logits);
  }
  throw std::logic_error("ensemble_logits: unknown strategy");
}

/// Each teacher's eval-mode logits over the leading server-pool rows, one
/// [rows, C] tensor per slot, charged to the memory budget's client-state
/// category until the cache dies.  An eval-mode forward is row-independent
/// bit for bit (GEMM sums each output element in ascending k, BatchNorm uses
/// running statistics, Dropout is the identity), so rows gathered from the
/// cache equal a forward of the gathered batch.
class EnsembleDistiller::TeacherLogits {
 public:
  TeacherLogits(core::MemoryBudget* budget, std::size_t slots) : budget_(budget), logits_(slots) {}
  ~TeacherLogits() {
    if (budget_ != nullptr) budget_->release(core::BudgetCategory::kClientState, bytes_);
  }
  TeacherLogits(const TeacherLogits&) = delete;
  TeacherLogits& operator=(const TeacherLogits&) = delete;

  bool has(std::size_t slot) const { return logits_[slot].defined(); }
  const core::Tensor& operator[](std::size_t slot) const { return logits_[slot]; }

  /// Forwards `members[i]` into slot `slots[i]`, one member per pool task.
  /// Each forward takes `chunk` rows (the distill batch), so no module
  /// caches more activations than a distill step makes it cache.
  void compute(utils::ThreadPool& threads, const core::Tensor& pool, std::size_t rows,
               std::size_t chunk, std::span<nn::Module* const> members,
               std::span<const std::size_t> slots) {
    if (members.empty()) return;
    obs::TraceSpan span("fl.distill.teachers");
    threads.parallel_for(members.size(), [&](std::size_t i) {
      core::Tensor& out = logits_[slots[i]];
      std::vector<std::size_t> chunk_rows;
      for (std::size_t start = 0; start < rows; start += chunk) {
        chunk_rows.resize(std::min(chunk, rows - start));
        std::iota(chunk_rows.begin(), chunk_rows.end(), start);
        const core::Tensor part = members[i]->forward(gather_pool(pool, chunk_rows));
        const std::size_t classes = part.dim(1);
        if (start == 0) out = core::Tensor(core::Shape::matrix(rows, classes));
        std::memcpy(out.data() + start * classes, part.data(), part.numel() * sizeof(float));
      }
    });
    std::size_t bytes = 0;
    for (std::size_t slot : slots) bytes += logits_[slot].numel() * sizeof(float);
    if (budget_ != nullptr) budget_->charge(core::BudgetCategory::kClientState, bytes);
    bytes_ += bytes;
  }

 private:
  core::MemoryBudget* budget_;
  std::vector<core::Tensor> logits_;
  std::size_t bytes_ = 0;
};

namespace {

/// Sanitation drops non-finite uploads and norm outliers; returns the
/// accepted positions into `nets`.  It labels positions, not client ids: a
/// client can be both fresh and stale.
std::vector<std::size_t> sanitized_positions(std::span<nn::Module* const> nets,
                                             const SanitizeOptions& options,
                                             std::size_t& rejected) {
  std::vector<std::size_t> positions(nets.size());
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  SanitizeResult sanitized = sanitize_updates(nets, positions, options);
  rejected += sanitized.rejected.size();
  return std::move(sanitized.accepted);
}

}  // namespace

void EnsembleDistiller::setup(Federation& federation, nn::Module& student, Algorithm& owner) {
  federation_ = &federation;
  student_ = &student;
  owner_ = &owner;
  optimizer_ = std::make_unique<nn::Sgd>(student.parameters(), optimizer_options_);
  reputation_.reset();
  if (reputation_options_.enabled) {
    reputation_ =
        std::make_unique<ReputationTracker>(reputation_options_, federation.num_clients());
  }
}

void EnsembleDistiller::forget(std::size_t client_id) {
  if (reputation_) reputation_->reset(client_id);
}

void EnsembleDistiller::save_reputation(core::ByteWriter& writer) const {
  writer.write_u8(reputation_ ? 1 : 0);
  if (reputation_) reputation_->save_state(writer);
}

void EnsembleDistiller::load_reputation(core::ByteReader& reader) {
  const bool has_reputation = reader.read_u8() != 0;
  if (has_reputation != (reputation_ != nullptr)) {
    throw std::runtime_error("EnsembleDistiller: reputation configuration mismatch");
  }
  if (reputation_) reputation_->load_state(reader);
}

void EnsembleDistiller::observe(std::span<const std::size_t> positions,
                                std::span<const std::size_t> clients, const TeacherLogits& cache,
                                std::size_t rows) {
  // Reputation scores each member by how often its argmax on the probe batch
  // agrees with the fused ensemble's.
  std::vector<std::size_t> probe_rows(rows);
  std::iota(probe_rows.begin(), probe_rows.end(), std::size_t{0});
  std::vector<core::Tensor> logits(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    logits[i] = gather_pool(cache[positions[i]], probe_rows);
  }
  std::vector<std::size_t> fused_argmax(rows);
  core::argmax_rows(ensemble_logits(ensemble_, logits), fused_argmax.data());
  std::vector<std::size_t> member_argmax(rows);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    core::argmax_rows(logits[i], member_argmax.data());
    std::size_t matches = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      if (member_argmax[r] == fused_argmax[r]) ++matches;
    }
    reputation_->observe(clients[positions[i]],
                         static_cast<double>(matches) / static_cast<double>(rows));
  }
}

void EnsembleDistiller::exclude(std::vector<std::size_t>& positions,
                                std::span<const std::size_t> clients, std::size_t& rejected) const {
  std::erase_if(positions, [&](std::size_t position) {
    const bool excluded = reputation_->excluded(clients[position]);
    if (excluded) ++rejected;
    return excluded;
  });
}

void EnsembleDistiller::warm_start(std::span<nn::Module* const> teachers,
                                   std::span<nn::Module* const> fresh,
                                   std::span<const std::size_t> fresh_ids,
                                   std::span<const StaleUpdate> stale,
                                   std::span<const double> stale_weights) {
  // Fuse the members in weight space before distilling, as FedDF does; it
  // stabilizes early rounds when the student is random.  Under a robust
  // logit strategy the weight-space fusion must be robust too: a plain
  // average is exactly what a sign-flip minority breaks.
  obs::ScopedPhaseTimer timer(owner_->phase_accumulator(), obs::Phase::kFuse);
  obs::TraceSpan span("fl.fuse");
  switch (ensemble_) {
    case EnsembleStrategy::kTrimmedMean:
      trimmed_mean_state(teachers, *student_);
      break;
    case EnsembleStrategy::kMedian:
      median_state(teachers, *student_);
      break;
    default:
      shard_weighted_mean_into(*student_, fresh, fresh_ids, stale, stale_weights, *federation_);
      break;
  }
}

EnsembleDistiller::Cohort EnsembleDistiller::screen(utils::ThreadPool& threads,
                                                    std::span<const std::size_t> ids,
                                                    std::span<nn::Module* const> nets,
                                                    std::vector<StaleUpdate>& stale,
                                                    std::vector<double>& stale_weights,
                                                    std::size_t cache_rows, TeacherLogits& cache,
                                                    DistillOutcome& outcome) {
  Federation& fed = *federation_;
  obs::PhaseAccumulator& phases = owner_->phase_accumulator();
  Cohort cohort;
  std::vector<std::size_t>& fresh = cohort.fresh;
  {
    obs::ScopedPhaseTimer timer(phases, obs::Phase::kSanitize);
    obs::TraceSpan span("fl.sanitize");
    for (nn::Module* net : nets) net->set_training(false);
    fresh = sanitized_positions(nets, sanitize_, outcome.rejected);
  }
  // The probe batch is the leading pool rows, fixed so reputation scores
  // compare across rounds and thread-pool sizes.
  const std::size_t probe_rows = std::min(batch_size_, fed.server_pool().dim(0));
  const bool probe = reputation_ && probe_rows > 0 && !fresh.empty();
  if (probe) {
    obs::ScopedPhaseTimer timer(phases, obs::Phase::kDistill);
    std::vector<nn::Module*> members(fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) members[i] = nets[fresh[i]];
    cache.compute(threads, fed.server_pool(), cache_rows, probe_rows, members, fresh);
  }
  {
    obs::ScopedPhaseTimer timer(phases, obs::Phase::kSanitize);
    obs::TraceSpan span("fl.sanitize");
    // The cross-round EMA then bars members below the exclusion threshold.
    if (probe) observe(fresh, ids, cache, probe_rows);
    if (reputation_) exclude(fresh, ids, outcome.rejected);

    if (!stale.empty()) {
      // Late uploads are screened too, but their agreement is a round old:
      // the exclusion bar applies without a new observation.  A stale
      // Byzantine upload is therefore discounted twice, here and by its
      // staleness weight.
      std::vector<std::unique_ptr<nn::Module>>& stale_nets = cohort.stale_nets;
      stale_nets.resize(stale.size());
      std::vector<nn::Module*> raw(stale.size());
      std::vector<std::size_t> clients(stale.size());
      for (std::size_t e = 0; e < stale.size(); ++e) {
        core::Rng scratch_rng = fed.root_rng().fork(stale_net_salt_ + e);
        stale_nets[e] = models::build_model(scratch_spec_, scratch_rng);
        nn::restore_state(*stale_nets[e], stale[e].state);
        stale_nets[e]->set_training(false);
        raw[e] = stale_nets[e].get();
        clients[e] = stale[e].client_id;
      }
      std::vector<std::size_t> kept = sanitized_positions(raw, sanitize_, outcome.rejected);
      if (reputation_) exclude(kept, clients, outcome.rejected);
      for (std::size_t k = 0; k < kept.size(); ++k) {
        if (kept[k] == k) continue;  // kept ascends, so k <= kept[k]
        stale[k] = std::move(stale[kept[k]]);
        stale_weights[k] = stale_weights[kept[k]];
        stale_nets[k] = std::move(stale_nets[kept[k]]);
      }
      stale.resize(kept.size());
      stale_weights.resize(kept.size());
      stale_nets.resize(kept.size());
    }
  }

  outcome.degraded =
      cap_fusion_members(owner_->max_fusion_members(), fresh, stale, stale_weights);
  cohort.stale_nets.erase(cohort.stale_nets.begin(),
                          cohort.stale_nets.end() - static_cast<std::ptrdiff_t>(stale.size()));
  for (std::size_t position : fresh) {
    cohort.fresh_nets.push_back(nets[position]);
    cohort.fresh_ids.push_back(ids[position]);
  }
  return cohort;
}

DistillOutcome EnsembleDistiller::fuse(utils::ThreadPool& threads, std::size_t round_index,
                                       std::span<const std::size_t> ids,
                                       std::span<nn::Module* const> nets,
                                       std::vector<StaleUpdate>& stale,
                                       std::vector<double>& stale_weights) {
  Federation& fed = *federation_;
  const core::Tensor& pool = fed.server_pool();
  const std::size_t pool_size = pool.dim(0);
  const std::size_t batch_size = std::min(batch_size_, pool_size);
  if (batch_size == 0) throw std::logic_error("EnsembleDistiller: empty server pool");

  DistillOutcome outcome;
  TeacherLogits cache(owner_->memory_budget(), nets.size() + stale.size());
  const Cohort cohort = screen(threads, ids, nets, stale, stale_weights, pool_size, cache, outcome);
  if (cohort.fresh.empty() && stale.empty()) return outcome;  // keep the last global

  // Teachers predict in eval mode; the stale ones follow the fresh cohort
  // and take the cache slots after the fresh positions.
  std::vector<nn::Module*> teachers = cohort.fresh_nets;
  std::vector<std::size_t> slots = cohort.fresh;
  for (std::size_t e = 0; e < cohort.stale_nets.size(); ++e) {
    teachers.push_back(cohort.stale_nets[e].get());
    slots.push_back(nets.size() + e);
  }

  warm_start(teachers, cohort.fresh_nets, cohort.fresh_ids, stale, stale_weights);

  // Under avg-logits, reputation soft-weights members instead of excluding
  // them outright, and stale members carry their staleness discount.  The
  // other strategies ignore weights by design.
  std::vector<double> member_weights;
  if (ensemble_ == EnsembleStrategy::kAvgLogits && (reputation_ || !stale.empty())) {
    member_weights.reserve(teachers.size());
    for (std::size_t id : cohort.fresh_ids) {
      member_weights.push_back(reputation_ ? reputation_->weight(id) : 1.0);
    }
    for (std::size_t e = 0; e < stale.size(); ++e) {
      const double rep = reputation_ ? reputation_->weight(stale[e].client_id) : 1.0;
      member_weights.push_back(rep * stale_weights[e]);
    }
  }

  obs::ScopedPhaseTimer distill_timer(owner_->phase_accumulator(), obs::Phase::kDistill);
  obs::TraceSpan distill_span("fl.distill");
  {
    // Every teacher's logits over the whole pool, once per round; the
    // reputation probe has already computed the sanitized fresh members'.
    std::vector<nn::Module*> missing;
    std::vector<std::size_t> missing_slots;
    for (std::size_t t = 0; t < teachers.size(); ++t) {
      if (cache.has(slots[t])) continue;
      missing.push_back(teachers[t]);
      missing_slots.push_back(slots[t]);
    }
    cache.compute(threads, pool, pool_size, batch_size, missing, missing_slots);
  }

  nn::DistillationKl kd(temperature_);
  student_->set_training(true);
  core::Rng rng = fed.root_rng().fork(order_salt_ + round_index);
  std::vector<core::Tensor> member_logits(teachers.size());
  double loss_total = 0.0;
  std::size_t loss_batches = 0;
  for (std::size_t epoch = 0; epoch < epochs_; ++epoch) {
    const std::vector<std::size_t> order = rng.permutation(pool_size);
    for (std::size_t start = 0; start < pool_size; start += batch_size) {
      const std::span<const std::size_t> rows(order.data() + start,
                                              std::min(batch_size, pool_size - start));
      for (std::size_t t = 0; t < teachers.size(); ++t) {
        member_logits[t] = gather_pool(cache[slots[t]], rows);
      }
      const core::Tensor teacher = member_weights.empty()
                                       ? ensemble_logits(ensemble_, member_logits)
                                       : weighted_avg_logits(member_logits, member_weights);
      core::Tensor student = student_->forward(gather_pool(pool, rows));
      nn::LossResult loss = kd.compute(student, teacher);
      optimizer_->zero_grad();
      student_->backward(loss.grad);
      optimizer_->step();
      loss_total += loss.value;
      ++loss_batches;
    }
  }
  if (loss_batches > 0) outcome.loss = loss_total / static_cast<double>(loss_batches);
  return outcome;
}

DistillOutcome EnsembleDistiller::average(utils::ThreadPool& threads,
                                          std::span<const std::size_t> ids,
                                          std::span<nn::Module* const> nets,
                                          std::vector<StaleUpdate>& stale,
                                          std::vector<double>& stale_weights) {
  DistillOutcome outcome;
  TeacherLogits cache(owner_->memory_budget(), nets.size());
  const std::size_t probe_rows = std::min(batch_size_, federation_->server_pool().dim(0));
  const Cohort cohort =
      screen(threads, ids, nets, stale, stale_weights, probe_rows, cache, outcome);
  if (cohort.fresh.empty() && stale.empty()) return outcome;  // keep the last global

  obs::ScopedPhaseTimer timer(owner_->phase_accumulator(), obs::Phase::kFuse);
  obs::TraceSpan span("fl.fuse");
  shard_weighted_mean_into(*student_, cohort.fresh_nets, cohort.fresh_ids, stale, stale_weights,
                           *federation_);
  return outcome;
}

}  // namespace fedkemf::fl
