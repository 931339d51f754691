#pragma once

// Shared configuration types for the federated-learning framework.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "comm/compression.hpp"
#include "data/synthetic.hpp"
#include "fl/defense/reputation.hpp"
#include "fl/defense/sanitize.hpp"
#include "models/zoo.hpp"
#include "sim/simulator.hpp"

namespace fedkemf::fl {

/// How the training pool is split across clients.
enum class PartitionKind {
  kDirichlet,  ///< label-skew non-IID (Li et al. 2021) — the paper's setting
  kIid,
  kShards,     ///< McMahan pathological split
};

/// Server-side fusion of the client knowledge networks (paper §"Ensemble
/// Knowledge": max logits is the default, average/vote are ablated; the
/// trimmed-mean and median order statistics are the Byzantine-robust
/// extensions — see fl/defense/robust_ensemble.hpp).
enum class EnsembleStrategy {
  kMaxLogits,
  kAvgLogits,
  kMajorityVote,
  kTrimmedMean,  ///< coordinate-wise trimmed mean (robust to a minority)
  kMedian,       ///< coordinate-wise median (maximally trimmed)
};

std::string to_string(EnsembleStrategy strategy);
std::string to_string(PartitionKind kind);

/// Hyperparameters of one client-side SGD pass (Algorithm 1's inner loop).
struct LocalTrainConfig {
  std::size_t epochs = 1;
  std::size_t batch_size = 32;
  double learning_rate = 0.05;
  double momentum = 0.9;
  double weight_decay = 5e-4;
  /// Optional step decay of the learning rate over communication rounds:
  /// lr(round) = learning_rate * gamma^(round / every). every == 0 disables.
  double lr_decay_gamma = 0.5;
  std::size_t lr_decay_every = 0;

  /// The config for a given round, with the decay applied.
  [[nodiscard]] LocalTrainConfig at_round(std::size_t round) const;
};

/// Environment: data distribution + client population.
struct FederationOptions {
  data::SyntheticSpec data;
  std::size_t train_samples = 2000;
  std::size_t test_samples = 512;
  std::size_t server_pool_samples = 256;  ///< unlabeled distillation pool
  std::size_t local_test_samples = 64;    ///< per-client test set (multi-model eval)
  std::size_t num_clients = 8;
  PartitionKind partition = PartitionKind::kDirichlet;
  double dirichlet_alpha = 0.1;           ///< the paper's concentration
  std::size_t shards_per_client = 2;      ///< only for PartitionKind::kShards
  std::uint64_t seed = 1;
};

/// Divergence watchdog: snapshot the global model each round and roll a
/// round back when its outcome looks poisoned — a non-finite training or
/// server-distillation loss, non-finite global weights, or an evaluated
/// accuracy collapse of more than `accuracy_drop_threshold` below the last
/// accepted evaluation.  Rolled-back rounds are recorded in the history
/// (RoundRecord::rolled_back) and the run continues from the snapshot.
struct WatchdogOptions {
  double accuracy_drop_threshold = 0.15;
};

/// Staleness-aware aggregation (FedBuff-style): post-deadline uploads are
/// parked in a bounded server-side buffer and folded into a later round's
/// fusion with the discounted weight w = 1 / (1 + s)^alpha, where s is the
/// update's age in rounds.  alpha = 0 treats late work as fresh; larger
/// alpha trusts it less; as alpha -> inf the weight underflows to zero and
/// the behavior degenerates to today's discard-stragglers policy exactly.
struct StalenessOptions {
  double alpha = 1.0;
  /// Buffered late updates beyond this bound evict oldest-origin-first.
  std::size_t buffer_capacity = 32;
};

/// Server-side overload policy: how much RAM the run may hold, how many
/// members a fusion may materialize, and where cold per-client state spills.
/// Every field's zero/empty default means "unlimited / keep in RAM" — the
/// historical behavior, bitwise.
struct ResourceLimits {
  /// Total bytes chargeable to the shared core::MemoryBudget (uploads, stale
  /// buffer, retained client state).  0 = unlimited.
  std::size_t memory_budget_bytes = 0;
  /// Usage above this fraction of the budget trips admission control
  /// (over_high_water) before the hard limit does.
  double high_water_fraction = 0.8;
  /// Fusion materializes at most this many members per round; excess members
  /// (lowest priority first: stale before fresh, highest client id first
  /// within a class) are shed and the round is flagged degraded.  0 =
  /// unlimited.
  std::size_t max_fusion_members = 0;
  /// When non-empty, departed-client state (FedKEMF/FedMD private models)
  /// spills to CRC-checked files here instead of being dropped, and is
  /// restored lazily on rejoin.  Empty = historical reset-on-evict.
  std::string spill_dir;
};

/// Round loop controls.
struct RunOptions {
  std::size_t rounds = 30;
  double sample_ratio = 0.4;               ///< fraction of clients per round
  std::string selector = "uniform";        ///< uniform | shard_weighted | round_robin
  std::size_t eval_every = 1;
  std::optional<double> stop_at_accuracy;  ///< early-exit once global acc >= target
  std::size_t num_threads = 0;             ///< 0 = run clients inline
  bool evaluate_client_models = false;     ///< also track mean per-client local acc
  bool verbose = false;
  /// Network-realism simulation (per-client links, dropout, payload faults,
  /// round deadline, Byzantine clients).  Unset = the ideal lossless network
  /// of the baselines.
  std::optional<sim::SimOptions> sim;
  /// Divergence watchdog with rollback.  Unset = rounds are always accepted.
  std::optional<WatchdogOptions> watchdog;
  /// Staleness-aware aggregation of post-deadline uploads.  Requires `sim`
  /// (stragglers only exist under a simulated deadline).  Unset = stragglers
  /// are discarded, the historical behavior.
  std::optional<StalenessOptions> staleness;
  /// When non-empty, the runner streams one JSONL record per round (phase
  /// timings, traffic, cohort fate, defense counters) plus a closing
  /// {"kind":"run"} summary to this path.  Empty = no telemetry file.
  std::string telemetry_path;
  /// When non-empty, the runner writes a crash-tolerant checkpoint of the
  /// full run state to this directory every `checkpoint_every` rounds (and on
  /// a graceful-shutdown request), retaining the newest `checkpoint_retain`
  /// files.  resume_run() restores from the newest valid checkpoint and
  /// continues bitwise-identically to an uninterrupted run.  Empty = no
  /// checkpointing.
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 1;
  std::size_t checkpoint_retain = 3;
  /// Overload policy: memory budget, fusion-member cap, spill directory.
  /// Unset = unlimited resources, the historical behavior (bitwise).
  std::optional<ResourceLimits> resources;
};

/// FedKEMF-specific knobs (defaults follow the paper where it specifies and
/// standard KD practice where it does not; see EXPERIMENTS.md).
struct FedKemfOptions {
  models::ModelSpec knowledge_spec;         ///< the tiny network that crosses the wire
  EnsembleStrategy ensemble = EnsembleStrategy::kMaxLogits;
  float dml_kl_weight = 1.0f;               ///< weight of D_KL in Eq. (3)
  /// Gradient-norm clip for the DML optimizers (and the server distiller).
  /// KL gradients between two sharp random networks can be enormous for
  /// normalization-free architectures (e.g. cnn2); 0 disables.
  double dml_clip_norm = 5.0;
  float distill_temperature = 2.0f;         ///< server-side KD softening
  std::size_t distill_epochs = 2;           ///< passes over the public pool per round
  std::size_t distill_batch_size = 32;
  double server_learning_rate = 0.02;
  double server_momentum = 0.9;
  bool fuse_by_weight_average = false;      ///< paper's alternative fusion mode
  /// Wire codec for the knowledge-network exchange (fp32 = lossless; fp16 /
  /// int8 quantization trade accuracy for a further 2x / 4x traffic cut —
  /// ablated in bench_paper --only ablation-compression).
  comm::Codec payload_codec = comm::Codec::kFp32;
  /// Pre-aggregation upload sanitation (NaN/Inf + norm-band screening).
  SanitizeOptions sanitize;
  /// Cross-round reputation scoring of ensemble members.
  ReputationOptions reputation;
};

}  // namespace fedkemf::fl
