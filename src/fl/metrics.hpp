#pragma once

// Evaluation helpers and per-run result records.

#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "nn/module.hpp"
#include "obs/telemetry.hpp"
#include "utils/table.hpp"

namespace fedkemf::fl {

struct EvalResult {
  double accuracy = 0.0;
  double loss = 0.0;
  std::size_t samples = 0;
};

/// Top-1 accuracy + mean cross-entropy of `model` (switched to eval mode and
/// back) over the given samples.
EvalResult evaluate(nn::Module& model, const data::Dataset& dataset,
                    std::size_t batch_size = 64);

/// Evaluation restricted to an index subset (per-client local test sets).
EvalResult evaluate_subset(nn::Module& model, const data::Dataset& dataset,
                           const std::vector<std::size_t>& indices,
                           std::size_t batch_size = 64);

struct RoundRecord {
  std::size_t round = 0;
  double accuracy = 0.0;            ///< global model on the global test set
  double client_accuracy = 0.0;     ///< mean per-client local accuracy (NaN if not tracked)
  double train_loss = 0.0;          ///< mean local training loss this round
  std::size_t round_bytes = 0;      ///< traffic metered during this round
  std::size_t cumulative_bytes = 0;
  double round_seconds = 0.0;       ///< wall-clock compute time of the round (no eval)
  double eval_seconds = 0.0;        ///< wall-clock of the evaluation that follows
  /// Per-phase breakdown of round_seconds (cumulative thread-seconds; see
  /// obs/telemetry.hpp for the parallel-pool caveat).
  obs::PhaseSeconds phases{};

  // Cohort fate under network simulation (RunOptions::sim).  Without a
  // simulator every sampled client completes and sim_seconds stays zero.
  std::size_t clients_sampled = 0;
  std::size_t clients_completed = 0;
  std::size_t clients_dropped = 0;    ///< offline at round start or failed mid-round
  std::size_t clients_straggled = 0;  ///< finished after the deadline; discarded
  double sim_seconds = 0.0;           ///< simulated duration of this round

  // Byzantine-defense fate (RunOptions::watchdog + algorithm screening).
  std::size_t rejected_updates = 0;   ///< uploads the server refused to fuse
  bool rolled_back = false;           ///< watchdog restored the pre-round model

  // Elastic federation (churn + stale-update buffering).  The *_tracked
  // flags record whether the corresponding subsystem was configured; the
  // history table renders untracked columns as "n/a" (the utils::Table NaN
  // convention) instead of a misleading 0.
  std::size_t clients_joined = 0;     ///< joined/rejoined at this round's start
  std::size_t clients_left = 0;       ///< departed at this round's start
  std::size_t stale_applied = 0;      ///< buffered late updates folded in
  bool sim_tracked = false;           ///< a simulator gated this round
  bool churn_tracked = false;         ///< a dynamic churn model was active
  bool staleness_tracked = false;     ///< a stale-update buffer was installed

  // Overload policy (RunOptions::resources).  fusion_degraded marks a round
  // whose aggregation shed members to stay within the resource limits;
  // budget_used_bytes samples the shared MemoryBudget after aggregation and
  // peak_rss_bytes samples the process high-water mark (VmHWM) — the latter
  // is recorded even without limits, so every run's memory history is in the
  // telemetry.
  bool fusion_degraded = false;
  std::size_t budget_used_bytes = 0;
  std::size_t peak_rss_bytes = 0;
  bool resources_tracked = false;     ///< a resource budget was configured
};

struct RunResult {
  std::string algorithm;
  std::vector<RoundRecord> history;
  std::size_t total_bytes = 0;
  std::size_t rounds_completed = 0;
  double final_accuracy = 0.0;
  double best_accuracy = 0.0;
  double wall_seconds = 0.0;

  // Simulation totals over every round (not just evaluated ones); all zero
  // when no simulator was configured.
  double sim_seconds = 0.0;           ///< total simulated run duration
  std::size_t total_dropped = 0;      ///< offline + mid-round failures
  std::size_t total_stragglers = 0;

  // Defense totals over every round (zero without screening / watchdog).
  std::size_t total_rejected_updates = 0;
  std::size_t total_rolled_back = 0;  ///< rounds the watchdog rolled back

  // Elastic-federation totals (zero without churn / staleness).
  std::size_t total_joined = 0;
  std::size_t total_left = 0;
  std::size_t total_stale_applied = 0;

  // Overload totals (zero without RunOptions::resources).
  std::size_t total_degraded_rounds = 0;  ///< rounds whose fusion shed members
  std::size_t peak_rss_bytes = 0;         ///< max VmHWM sampled across rounds

  /// True when the run stopped early on a graceful-shutdown request (SIGINT/
  /// SIGTERM with install_shutdown_handler); a final checkpoint was written
  /// if checkpointing was configured.
  bool interrupted = false;

  /// First round whose evaluated accuracy reached `target`; nullopt if never.
  std::optional<std::size_t> rounds_to_accuracy(double target) const;

  /// Traffic accumulated up to and including the first round that reached
  /// `target` accuracy; nullopt if the target was never reached.
  std::optional<std::size_t> bytes_to_accuracy(double target) const;

  /// Convergence round: the earliest round after which accuracy never again
  /// improves by more than `tolerance` over its running best.  Mirrors the
  /// paper's "train to converge" protocol.
  std::size_t convergence_round(double tolerance = 0.01) const;

  /// Accuracy at convergence_round.
  double convergence_accuracy(double tolerance = 0.01) const;

  /// Mean of round_bytes over recorded rounds.
  double mean_round_bytes() const;
};

/// Per-round history rendered as a table, with compute and evaluation
/// wall-clock in separate columns (they used to be conflated in one number).
utils::Table history_table(const RunResult& result);

}  // namespace fedkemf::fl
