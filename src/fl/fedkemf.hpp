#pragma once

// FedKEMF — the paper's contribution (Algorithms 1 & 2).
//
// Client side ("knowledge extraction"): each client keeps a private local
// model theta (architecture chosen per client — heterogeneous federations
// are first-class) and receives the tiny knowledge network theta_g.  Both are
// trained jointly with deep mutual learning:
//     theta   <- theta   - lr * d(CE(theta)   + w * KL(theta_g || theta))
//     theta_g <- theta_g - lr * d(CE(theta_g) + w * KL(theta || theta_g))
// Only theta_g is uploaded — the local model never crosses the wire, which is
// where the communication savings come from.
//
// Server side ("multi-model knowledge fusion"): the received knowledge
// networks are ensembled (max-logits by default; average / majority-vote are
// the paper's ablation) and distilled into the global knowledge network by
// minimizing KL(ensemble || theta_g) on the unlabeled server pool.  The
// alternative weight-average fusion mode the paper mentions is available via
// FedKemfOptions::fuse_by_weight_average; it keeps the distiller's
// screening and fusion-member cap.

#include <memory>
#include <vector>

#include "fl/algorithm.hpp"
#include "fl/ensemble_distill.hpp"

namespace fedkemf::fl {

/// One deep-mutual-learning pass over a client shard (Algorithm 1 lines 3-9).
/// Both models are updated in place; returns the mean total loss of the
/// *local* model (CE + KL), which is the training-progress signal the runner
/// reports.
struct DmlResult {
  double mean_local_loss = 0.0;
  double mean_knowledge_loss = 0.0;
  std::size_t steps = 0;
};

/// A non-empty `label_map` remaps batch labels before both CE losses — the
/// label-flipping adversary's view of the shard (sim/adversary.hpp).
DmlResult deep_mutual_update(nn::Module& local_model, nn::Module& knowledge_net,
                             const data::Dataset& train_set,
                             const std::vector<std::size_t>& shard,
                             const LocalTrainConfig& config, float kl_weight,
                             core::Rng rng, double clip_norm = 5.0,
                             const std::vector<std::size_t>& label_map = {});

class FedKemf final : public Algorithm {
 public:
  /// `client_arch_pool` assigns architectures round-robin: client i gets
  /// pool[i % pool.size()].  A single-element pool is the homogeneous
  /// setting; {resnet20, resnet32, resnet44} reproduces Table 3's zoo.
  FedKemf(std::vector<models::ModelSpec> client_arch_pool, LocalTrainConfig local_config,
          FedKemfOptions options);

  std::string name() const override { return "FedKEMF"; }
  void setup(Federation& federation) override;
  double round(std::size_t round_index, std::span<const std::size_t> sampled,
               utils::ThreadPool& pool) override;

  /// The global knowledge network (what baselines' global models compare to).
  nn::Module& global_model() override;

  /// The client's private local model (falls back to the global knowledge
  /// network for clients that never participated).
  nn::Module* client_model(std::size_t id) override;

  const FedKemfOptions& options() const { return options_; }
  const models::ModelSpec& client_spec(std::size_t id) const;

  /// Mean distillation KL of the last round's server update (0 when fusion
  /// was skipped); the watchdog checks it for finiteness.
  double last_server_loss() const override { return last_distill_loss_; }

  /// Uploads sanitation rejected + members the reputation tracker excluded
  /// during the last round's fusion.
  std::size_t last_rejected_updates() const override { return last_rejected_; }

  /// Warm start: a joiner's knowledge working copies begin from the current
  /// global knowledge net instead of a cold random init.  The private local
  /// model still starts fresh — it never crossed the wire, so there is
  /// nothing global to restore it from.
  void on_client_joined(std::size_t client_id) override;

  /// Drops the departed client's private model and knowledge copies and
  /// resets its reputation; a rejoiner is indistinguishable from a new
  /// participant.
  void on_client_evicted(std::size_t client_id) override;

  /// Cross-round reputation state (null unless options().reputation.enabled).
  const ReputationTracker* reputation() const { return distiller_.reputation(); }

  /// Global knowledge network + server optimizer + per-client private models
  /// (full state — they never cross the wire, so the checkpoint is the only
  /// place they survive a crash) + reputation EMA.
  void save_state(core::ByteWriter& writer) override;
  void load_state(core::ByteReader& reader) override;

 private:
  struct Slot {
    std::unique_ptr<nn::Module> local_model;    ///< persists across rounds
    std::unique_ptr<nn::Module> knowledge;      ///< working copy of theta_g
    std::unique_ptr<nn::Module> staged;         ///< server-side copy after upload
  };

  Slot& slot(std::size_t client_id);
  /// Resident bytes a built slot charges against BudgetCategory::kClientState
  /// (0 for an empty slot).
  std::size_t slot_state_bytes(Slot& s) const;
  /// Fuses the survivors' staged knowledge nets and the due late uploads
  /// into the global knowledge net: distilled, or averaged in weight space
  /// under fuse_by_weight_average, after the same screening and cap.
  void fuse(std::size_t round_index, std::span<const std::size_t> survivors,
            utils::ThreadPool& pool);
  double client_training_flops(std::size_t client_id, std::size_t round_index);

  std::vector<models::ModelSpec> arch_pool_;
  LocalTrainConfig local_config_;
  FedKemfOptions options_;
  Federation* federation_ = nullptr;
  EnsembleDistiller distiller_;
  std::unique_ptr<nn::Module> global_knowledge_;
  std::vector<Slot> slots_;
  std::vector<DmlResult> last_results_;
  std::vector<std::uint8_t> completed_;        ///< per sampled index, this round
  std::vector<double> arch_flops_per_sample_;  ///< lazy, indexed like arch_pool_
  double last_distill_loss_ = 0.0;             ///< mean KL of the last fusion
  std::size_t last_rejected_ = 0;              ///< screened-out uploads, last round
};

}  // namespace fedkemf::fl
