#pragma once

// Server-side ensemble distillation: the fusion step FedKEMF and FedDF share.
//
// FedKEMF's server update (Eq. 5's ensemble, distilled into the knowledge net
// on the unlabeled pool) is FedDF's ensemble distillation (Lin et al. 2020)
// with a smaller student.  One EnsembleDistiller runs it for both:
//   1. screen      sanitation, then the reputation probe on the fixed
//                  leading-pool-rows batch; due late uploads are built into
//                  scratch nets and screened by sanitation plus the
//                  reputation exclusion bar;
//   2. cap         the fusion-member cap over the screened cohort;
//   3. warm start  trimmed-mean / median state under those strategies, the
//                  shard-weighted mean otherwise;
//   4. distill     KL(ensemble || student) over the server pool, members
//                  weighted by reputation x staleness under avg-logits.  Each
//                  teacher's logits over the whole pool are computed once per
//                  round, one teacher per client-pool task; the distill
//                  batches gather their rows from that cache.
// The algorithms differ only in the constructor's constants: the scratch-net
// spec, the two RNG salts and the server optimizer's clip norm.  FedKEMF's
// weight-average mode (average()) runs steps 1-2 and then the shard-weighted
// mean, with no distillation.

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "fl/algorithm.hpp"
#include "fl/defense/reputation.hpp"
#include "fl/defense/sanitize.hpp"
#include "models/zoo.hpp"
#include "nn/optim.hpp"
#include "utils/thread_pool.hpp"

namespace fedkemf::fl {

/// Fuses per-member logits [N, C] into ensemble teacher logits (Eq. 5 for
/// kMaxLogits). Exposed for unit tests and the ensemble-strategy ablation.
core::Tensor ensemble_logits(EnsembleStrategy strategy,
                             std::span<const core::Tensor> member_logits);

/// What one fusion step did.
struct DistillOutcome {
  std::size_t rejected = 0;  ///< uploads sanitation or reputation screened out
  bool degraded = false;     ///< the post-screening cap shed members
  double loss = 0.0;         ///< mean distillation KL; 0 when nothing was fused
};

class EnsembleDistiller {
 public:
  /// `options` is a FedKemfOptions or FedDfOptions; both carry the same flat
  /// server-fusion fields.  Stale update e's scratch net is built from
  /// `scratch_spec` with fork(stale_net_salt + e); round r's pool order is
  /// fork(order_salt + r).  clip_norm 0 leaves the server step unclipped.
  template <class Options>
  EnsembleDistiller(const Options& options, models::ModelSpec scratch_spec,
                    std::uint64_t stale_net_salt, std::uint64_t order_salt, double clip_norm)
      : ensemble_(options.ensemble),
        temperature_(options.distill_temperature),
        epochs_(options.distill_epochs),
        batch_size_(options.distill_batch_size),
        optimizer_options_{.learning_rate = options.server_learning_rate,
                           .momentum = options.server_momentum,
                           .clip_norm = clip_norm},
        sanitize_(options.sanitize),
        reputation_options_(options.reputation),
        scratch_spec_(std::move(scratch_spec)),
        stale_net_salt_(stale_net_salt),
        order_salt_(order_salt) {}

  /// Binds to the federation, the student (the global model the ensemble is
  /// distilled into) and the owning algorithm, whose phase accumulator,
  /// memory budget and fusion-member cap (0 = unlimited) each step uses.
  /// Builds the server optimizer and, when enabled, a fresh reputation
  /// tracker.
  void setup(Federation& federation, nn::Module& student, Algorithm& owner);

  /// One fusion step.  `ids` are the fresh members' client ids and `nets`
  /// their uploaded nets, in the same order.  `stale` / `stale_weights` are
  /// the late uploads due this round, oldest origin first; on return they
  /// hold only the entries that were fused.  Teacher logits are computed on
  /// `threads`, one member per task, and charged to the owner's memory budget
  /// (client-state category) until the step returns.  The student is left
  /// untouched when screening rejects everything.  Throws std::logic_error
  /// on an empty server pool.
  DistillOutcome fuse(utils::ThreadPool& threads, std::size_t round_index,
                      std::span<const std::size_t> ids, std::span<nn::Module* const> nets,
                      std::vector<StaleUpdate>& stale, std::vector<double>& stale_weights);

  /// The same screening and cap as fuse(), then the shard-weighted mean of
  /// the survivors into the student instead of distillation.  Reputation
  /// needs only the probe rows of the teacher logits (none on an empty
  /// server pool, which skips the observation).
  DistillOutcome average(utils::ThreadPool& threads, std::span<const std::size_t> ids,
                         std::span<nn::Module* const> nets, std::vector<StaleUpdate>& stale,
                         std::vector<double>& stale_weights);

  nn::Sgd& optimizer() { return *optimizer_; }
  const ReputationTracker* reputation() const { return reputation_.get(); }
  /// Resets a departed client's reputation (no-op without a tracker).
  void forget(std::size_t client_id);

  /// Reputation presence flag + EMA state, as both algorithms checkpoint it.
  void save_reputation(core::ByteWriter& writer) const;
  void load_reputation(core::ByteReader& reader);

 private:
  class TeacherLogits;

  /// The members a fusion step keeps after screening and the cap.
  struct Cohort {
    /// Kept fresh members: positions into the step's nets, those nets and
    /// their client ids.
    std::vector<std::size_t> fresh;
    std::vector<nn::Module*> fresh_nets;
    std::vector<std::size_t> fresh_ids;
    /// Scratch nets of the kept stale entries, in the same order.
    std::vector<std::unique_ptr<nn::Module>> stale_nets;
  };

  /// Screening and the cap; `stale` / `stale_weights` keep only the fused
  /// entries.  With a tracker, the sanitized fresh members' logits over the
  /// first `cache_rows` pool rows are computed into `cache` (slot =
  /// position) and the probe reads their leading rows.
  Cohort screen(utils::ThreadPool& threads, std::span<const std::size_t> ids,
                std::span<nn::Module* const> nets, std::vector<StaleUpdate>& stale,
                std::vector<double>& stale_weights, std::size_t cache_rows, TeacherLogits& cache,
                DistillOutcome& outcome);
  /// Records each probed member's argmax agreement with the fused ensemble
  /// on the leading `rows` rows of its cached logits.
  void observe(std::span<const std::size_t> positions, std::span<const std::size_t> clients,
               const TeacherLogits& cache, std::size_t rows);
  /// Drops (and counts) positions whose client the tracker excludes.
  void exclude(std::vector<std::size_t>& positions, std::span<const std::size_t> clients,
               std::size_t& rejected) const;
  void warm_start(std::span<nn::Module* const> teachers, std::span<nn::Module* const> fresh,
                  std::span<const std::size_t> fresh_ids, std::span<const StaleUpdate> stale,
                  std::span<const double> stale_weights);

  EnsembleStrategy ensemble_;
  float temperature_;
  std::size_t epochs_;
  std::size_t batch_size_;
  nn::SgdOptions optimizer_options_;
  SanitizeOptions sanitize_;
  ReputationOptions reputation_options_;
  models::ModelSpec scratch_spec_;
  std::uint64_t stale_net_salt_;
  std::uint64_t order_salt_;

  Federation* federation_ = nullptr;
  nn::Module* student_ = nullptr;
  Algorithm* owner_ = nullptr;
  std::unique_ptr<nn::Sgd> optimizer_;
  std::unique_ptr<ReputationTracker> reputation_;
};

}  // namespace fedkemf::fl
