#pragma once

// Algorithm interface + the shared client-side SGD pass.
//
// Each FL algorithm is a stateful object bound to one Federation.  The runner
// (fl/runner.hpp) drives: setup() once, then round() per communication round
// with the sampled client ids, evaluating global_model() in between.
//
// Threading contract for round(): implementations may run sampled clients in
// parallel on the provided pool, but must (a) derive all client randomness
// from fork(seed, round, client) streams and (b) aggregate in a fixed client
// order, so results are independent of the pool size.

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "core/memory_budget.hpp"
#include "core/serialize.hpp"
#include "fl/config.hpp"
#include "fl/federation.hpp"
#include "fl/spill.hpp"
#include "fl/stale_buffer.hpp"
#include "nn/module.hpp"
#include "nn/optim.hpp"
#include "obs/telemetry.hpp"
#include "utils/thread_pool.hpp"

namespace fedkemf::sim {
class AdversaryModel;
class Simulator;
}

namespace fedkemf::fl {

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  virtual std::string name() const = 0;

  /// Binds to the federation and builds server-side state.
  virtual void setup(Federation& federation) = 0;

  /// Executes one communication round over `sampled` client ids.
  /// Returns the mean local training loss across the sampled clients.
  virtual double round(std::size_t round_index, std::span<const std::size_t> sampled,
                       utils::ThreadPool& pool) = 0;

  /// The model evaluated on the global test set between rounds.
  virtual nn::Module& global_model() = 0;

  /// The model deployed on client `id` for *local inference* (Table 3's
  /// per-client evaluation).  Baselines deploy the global model; FedKEMF
  /// returns the client's private local model once it exists.
  virtual nn::Module* client_model(std::size_t id) {
    (void)id;
    return &global_model();
  }

  /// Serializes every piece of state that persists across rounds — enough
  /// that load_state() on a freshly setup() instance makes subsequent rounds
  /// bitwise-identical to the uninterrupted run.  The default covers the
  /// global model (weights, buffers, Dropout stream positions); algorithms
  /// with additional cross-round state (client slots, control variates,
  /// server optimizers, reputation) extend it.  Contract: load_state must be
  /// called after setup() on the *same* configuration, and reads exactly what
  /// save_state wrote (symmetric formats, validated against the live
  /// objects — mismatches throw rather than corrupt).
  virtual void save_state(core::ByteWriter& writer);
  virtual void load_state(core::ByteReader& reader);

  /// Installs (or clears, with nullptr) the network-realism simulator.  When
  /// set, round() must consult it per client — availability gate before any
  /// traffic, mid-round failure gate after training, deadline check after
  /// upload — and aggregate only the clients that completed in time.  The
  /// runner owns the simulator and clears the pointer before it dies.
  void set_simulator(sim::Simulator* simulator) { simulator_ = simulator; }
  sim::Simulator* simulator() const { return simulator_; }

  /// Installs (or clears) the staleness buffer.  When set, round() parks
  /// post-deadline uploads here instead of discarding them and folds every
  /// entry due this round into the aggregation with its discounted weight.
  /// The runner owns the buffer and clears the pointer before it dies.
  void set_stale_buffer(StaleUpdateBuffer* buffer) { stale_buffer_ = buffer; }
  StaleUpdateBuffer* stale_buffer() const { return stale_buffer_; }

  /// Buffered late updates folded into the last round's aggregation.
  std::size_t last_stale_applied() const { return last_stale_applied_; }

  // ---- Overload policy (resource budgets and graceful degradation).
  //
  /// Installs (or clears) the shared memory budget.  The runner owns it and
  /// clears the pointer before it dies.  Algorithms charge retained client
  /// state against BudgetCategory::kClientState where they track it.
  void set_memory_budget(core::MemoryBudget* budget) { memory_budget_ = budget; }
  core::MemoryBudget* memory_budget() const { return memory_budget_; }

  /// Installs (or clears) the spill store for departed-client state.  When
  /// set, on_client_evicted() serializes heavy per-client state to disk
  /// instead of dropping it, and on_client_joined() restores it lazily.
  void set_spill_store(SpillStore* store) { spill_store_ = store; }
  SpillStore* spill_store() const { return spill_store_; }

  /// Caps how many members a single fusion materializes; excess members are
  /// shed deterministically (stale before fresh) and the round is flagged
  /// degraded.  0 = unlimited, the historical behavior.
  void set_max_fusion_members(std::size_t cap) { max_fusion_members_ = cap; }
  std::size_t max_fusion_members() const { return max_fusion_members_; }

  /// True when the last round's fusion shed members to stay within the
  /// resource limits — the statistic was exact over a subset of the cohort.
  bool last_fusion_degraded() const { return last_fusion_degraded_; }

  // ---- Elastic-population lifecycle (driven by the runner's churn model).
  //
  /// A client (re)joined the federation: warm-start whatever per-client
  /// state the algorithm keeps from the current global knowledge, so the
  /// newcomer's first round does not start from a random net.
  virtual void on_client_joined(std::size_t client_id) { (void)client_id; }
  /// A departed client's server-side footprint (cached models, control
  /// variates, reputation) must be released under the memory bound.  If the
  /// client later rejoins it is treated as a fresh joiner.
  virtual void on_client_evicted(std::size_t client_id) { (void)client_id; }

  /// Mean server-side loss of the last round (distillation KL for the
  /// fusion algorithms; 0 for algorithms without a server training step).
  /// The runner's divergence watchdog checks it for finiteness.
  virtual double last_server_loss() const { return 0.0; }

  /// Uploads the server refused to fuse in the last round (sanitation
  /// rejections + reputation exclusions); 0 for undefended algorithms.
  virtual std::size_t last_rejected_updates() const { return 0; }

  /// Per-phase time accumulated by round().  The runner resets it before each
  /// round and snapshots it after for the telemetry sink.  Client-side phases
  /// recorded from parallel workers are cumulative thread-seconds; they
  /// partition the round's wall-clock only under inline execution
  /// (RunOptions::num_threads = 0).
  obs::PhaseAccumulator& phase_accumulator() { return phases_; }

 protected:
  /// The simulator's Byzantine-role model, or nullptr when no simulator is
  /// installed or no adversary fraction is configured.
  const sim::AdversaryModel* adversary_model() const;

  /// Parks a straggler's uploaded `staged` net in the stale buffer (no-op
  /// without one); `fill_extras` adds the algorithm's payload to the entry.
  /// Returns true when the update arrives within its own round after all
  /// (lateness 0): the caller then folds the client back into the cohort.
  bool park_straggler(std::size_t round_index, std::size_t client_id, nn::Module& staged,
                      const std::function<void(StaleUpdate&)>& fill_extras = {});

  /// Drains the stale buffer's due entries into stale_updates_ /
  /// stale_weights_, skipping entries whose discount underflowed to zero
  /// (alpha -> inf therefore reproduces the discard policy bitwise).
  void collect_due_stale(std::size_t round_index);

  sim::Simulator* simulator_ = nullptr;
  StaleUpdateBuffer* stale_buffer_ = nullptr;
  std::vector<StaleUpdate> stale_updates_;  ///< late uploads due this round
  std::vector<double> stale_weights_;       ///< parallel staleness discounts
  std::size_t last_stale_applied_ = 0;
  core::MemoryBudget* memory_budget_ = nullptr;
  SpillStore* spill_store_ = nullptr;
  std::size_t max_fusion_members_ = 0;
  bool last_fusion_degraded_ = false;
  obs::PhaseAccumulator phases_;
};

// ---- Shared local-update machinery ----

/// Called after gradients are accumulated for a batch, before the optimizer
/// step.  FedProx adds its proximal pull here; SCAFFOLD its variate
/// correction.  Parameters are the client model's.
using GradHook = std::function<void(const std::vector<nn::Parameter*>&)>;

struct LocalTrainResult {
  double mean_loss = 0.0;
  std::size_t steps = 0;   ///< optimizer steps taken (FedNova's tau_i)
};

/// Remaps `labels` in place through `label_map` (no-op when empty; the map
/// must cover every label value otherwise).
void apply_label_map(std::vector<std::size_t>& labels,
                     const std::vector<std::size_t>& label_map);

/// Standard supervised local pass (epochs of minibatch SGD over the client's
/// shard).  `rng` seeds the batch shuffles; pass a fork(round, client) stream.
/// A non-empty `label_map` (length num_classes) remaps every batch label
/// through it before the loss — the label-flipping adversary's view of the
/// shard (sim/adversary.hpp).
LocalTrainResult supervised_local_update(nn::Module& model, const data::Dataset& train_set,
                                         const std::vector<std::size_t>& shard,
                                         const LocalTrainConfig& config, core::Rng rng,
                                         const GradHook& hook = {},
                                         const std::vector<std::size_t>& label_map = {});

/// Deterministic per-(round, client) RNG stream derivation.
core::Rng client_stream(const Federation& federation, std::size_t round_index,
                        std::size_t client_id);

/// Weighted average of the sampled clients' model states into `global`,
/// weights proportional to shard sizes (the FedAvg rule).  `client_models`
/// are in the same order as `sampled`.
void weighted_average_into(nn::Module& global,
                           std::span<nn::Module* const> client_models,
                           std::span<const std::size_t> sampled,
                           const Federation& federation);

/// One member of a weight-space fusion that mixes live modules (fresh
/// survivors) with raw state snapshots (buffered stale updates).  Exactly one
/// of `module` / `state` is set; `weight` is the unnormalized mixing weight
/// (shard size, possibly staleness-discounted).
struct StateContribution {
  nn::Module* module = nullptr;
  const std::vector<core::Tensor>* state = nullptr;
  double weight = 0.0;
};

/// Generalization of weighted_average_into: averages the contributions into
/// `global` with weights normalized over the member list.  Every snapshot
/// must have global's tensor layout (snapshot_state order).
void weighted_state_average_into(nn::Module& global,
                                 std::span<const StateContribution> members);

/// The FedAvg rule over a fresh cohort plus late uploads: `fresh` (the
/// uploaded nets of `fresh_ids`, same order) weigh their clients' shard
/// sizes, each stale update its client's shard size times its discount in
/// `stale_weights`.  Fresh members stream first, then stale ones.  With no
/// stale members this is weighted_average_into bit for bit.
void shard_weighted_mean_into(nn::Module& global, std::span<nn::Module* const> fresh,
                              std::span<const std::size_t> fresh_ids,
                              std::span<const StaleUpdate> stale,
                              std::span<const double> stale_weights,
                              const Federation& federation);

/// Enforces a fusion-member cap (0 = unlimited) over `fresh` + `stale`.
/// Fresh members outrank stale ones; within each class the canonical order
/// decides who stays, so `fresh` loses its tail and `stale` (oldest origin
/// first, the most discounted) its head, together with `stale_weights`.
/// Returns true, and counts the round in the fl.fusion.* metrics, when
/// anything was shed.
bool cap_fusion_members(std::size_t cap, std::vector<std::size_t>& fresh,
                        std::vector<StaleUpdate>& stale, std::vector<double>& stale_weights);

}  // namespace fedkemf::fl
