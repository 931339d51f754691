#pragma once

// FedMD (Li & Wang 2019): heterogeneous FL via model distillation — the
// second distillation-based comparator the paper cites.
//
// Protocol per round (communicate *predictions*, never weights):
//   1. the server broadcasts the indices of a public-data batch;
//   2. each sampled client runs its private model on that public batch and
//      uploads the logits ("communicate the knowledge");
//   3. the server averages the logits into a consensus;
//   4. clients download the consensus and *digest* it — train their private
//      model toward the consensus on the public batch (KD loss) — then
//      *revisit* their own data (a supervised pass).
//
// Like FedKEMF, FedMD supports arbitrary per-client architectures; unlike
// FedKEMF there is no weight exchange at all, so the per-round payload is
// public_batch x classes x 4 bytes each way — usually even smaller than a
// knowledge network.  The trade-off FedKEMF argues for: a consensus over
// *logits of one public batch* carries less information per round than a
// distilled network, so FedMD needs many more rounds.
//
// The server keeps a student model distilled from each round's consensus so
// Algorithm::global_model() has a well-defined evaluand (FedMD itself
// defines only per-client models; the paper's Table 3 metric — mean local
// accuracy of client models — is available through client_model()).

#include <memory>
#include <vector>

#include "fl/algorithm.hpp"
#include "nn/optim.hpp"

namespace fedkemf::fl {

struct FedMdOptions {
  models::ModelSpec server_student;      ///< evaluation-side model spec
  std::size_t public_batch = 64;         ///< public samples per round
  float digest_temperature = 2.0f;
  std::size_t digest_epochs = 1;         ///< client passes over the public batch
  double digest_learning_rate = 0.02;
  std::size_t student_epochs = 1;        ///< server student passes per round
  double student_learning_rate = 0.02;
};

class FedMd final : public Algorithm {
 public:
  /// Per-client architectures assigned round-robin from the pool, as FedKemf.
  FedMd(std::vector<models::ModelSpec> client_arch_pool, LocalTrainConfig local_config,
        FedMdOptions options);

  std::string name() const override { return "FedMD"; }
  void setup(Federation& federation) override;
  double round(std::size_t round_index, std::span<const std::size_t> sampled,
               utils::ThreadPool& pool) override;
  nn::Module& global_model() override;
  nn::Module* client_model(std::size_t id) override;

  /// Server student + its optimizer + per-client private models (full state —
  /// FedMD never exchanges weights, so the checkpoint is their only copy).
  void save_state(core::ByteWriter& writer) override;
  void load_state(core::ByteReader& reader) override;

  const models::ModelSpec& client_spec(std::size_t id) const;

  /// Warm start: when the joiner's architecture matches the server student,
  /// its private model is seeded from the student's current weights.
  void on_client_joined(std::size_t client_id) override;

  /// Drops the departed client's private model.
  void on_client_evicted(std::size_t client_id) override;

 private:
  struct Slot {
    std::unique_ptr<nn::Module> model;  ///< private, persists across rounds
  };

  Slot& slot(std::size_t client_id);
  double client_round_flops(std::size_t client_id, std::size_t round_index);

  std::vector<double> arch_flops_per_sample_;  ///< lazy, indexed like arch_pool_

  std::vector<models::ModelSpec> arch_pool_;
  LocalTrainConfig local_config_;
  FedMdOptions options_;
  Federation* federation_ = nullptr;
  std::unique_ptr<nn::Module> server_student_;
  std::unique_ptr<nn::Sgd> student_optimizer_;
  std::vector<Slot> slots_;
};

}  // namespace fedkemf::fl
