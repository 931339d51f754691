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
//                  weighted by reputation x staleness under avg-logits.
// The algorithms differ only in the constructor's constants: the scratch-net
// spec, the two RNG salts and the server optimizer's clip norm.

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

  /// Binds to the federation and the student (the global model the ensemble
  /// is distilled into); builds the server optimizer and, when enabled, a
  /// fresh reputation tracker.  Phase time is charged to `phases`.
  void setup(Federation& federation, nn::Module& student, obs::PhaseAccumulator& phases);

  /// One fusion step.  `ids` are the fresh members' client ids and `nets`
  /// their uploaded nets, in the same order.  `stale` / `stale_weights` are
  /// the late uploads due this round, oldest origin first; on return they
  /// hold only the entries that were fused.  `max_members` caps the screened
  /// cohort (0 = unlimited).  The student is left untouched when screening
  /// rejects everything.  Throws std::logic_error on an empty server pool.
  DistillOutcome fuse(std::size_t round_index, std::span<const std::size_t> ids,
                      std::span<nn::Module* const> nets, std::vector<StaleUpdate>& stale,
                      std::vector<double>& stale_weights, std::size_t max_members);

  nn::Sgd& optimizer() { return *optimizer_; }
  const ReputationTracker* reputation() const { return reputation_.get(); }
  /// Resets a departed client's reputation (no-op without a tracker).
  void forget(std::size_t client_id);

  /// Reputation presence flag + EMA state, as both algorithms checkpoint it.
  void save_reputation(core::ByteWriter& writer) const;
  void load_reputation(core::ByteReader& reader);

 private:
  /// Sanitation, then (with a tracker) the exclusion bar; returns the
  /// accepted positions into `nets`.  With a `probe`, reputation first
  /// records each sanitized member's argmax agreement with the ensemble.
  std::vector<std::size_t> screen(std::span<nn::Module* const> nets,
                                  std::span<const std::size_t> clients, const core::Tensor* probe,
                                  std::size_t& rejected);
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
  obs::PhaseAccumulator* phases_ = nullptr;
  std::unique_ptr<nn::Sgd> optimizer_;
  std::unique_ptr<ReputationTracker> reputation_;
};

}  // namespace fedkemf::fl
