#pragma once

// The simulated federation: datasets, client shards, per-client local test
// sets, the server's unlabeled pool, and the metered communication channel.
//
// A Federation is algorithm-agnostic — FedAvg and FedKEMF run against the
// same instance, so cross-algorithm comparisons see identical data splits.

#include <span>
#include <vector>

#include "comm/channel.hpp"
#include "core/rng.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "fl/config.hpp"

namespace fedkemf::fl {

class Federation {
 public:
  explicit Federation(const FederationOptions& options);

  const FederationOptions& options() const { return options_; }
  std::size_t num_clients() const { return options_.num_clients; }
  std::size_t num_classes() const { return train_set_.num_classes(); }

  const data::Dataset& train_set() const { return train_set_; }
  const data::Dataset& test_set() const { return test_set_; }

  /// Unlabeled images the server distills on (FedKEMF Eq. 4).
  const core::Tensor& server_pool() const { return server_pool_; }

  /// Training indices owned by client `id`.
  const std::vector<std::size_t>& client_shard(std::size_t id) const;

  /// Per-client local test indices, drawn to match the client's own label
  /// distribution (used for the multi-model average-accuracy metric).
  const std::vector<std::size_t>& client_test_indices(std::size_t id) const;

  /// Root RNG; algorithms fork per-(round, client) streams from it.
  const core::Rng& root_rng() const { return root_rng_; }

  comm::Channel& channel() { return channel_; }
  comm::TrafficMeter& meter() { return meter_; }

  /// Partition skew summary (exposed for tests / the ablation bench).
  data::PartitionStats partition_stats() const;

 private:
  void build_local_test_sets();

  FederationOptions options_;
  data::Dataset train_set_;
  data::Dataset test_set_;
  core::Tensor server_pool_;
  data::Partition shards_;
  std::vector<std::vector<std::size_t>> local_test_;
  core::Rng root_rng_;
  comm::TrafficMeter meter_;
  comm::Channel channel_;
};

/// Gathers rows of an unlabeled [M, C, H, W] pool into a batch tensor; also
/// the rows of a [M, K] matrix (per-row logits).
core::Tensor gather_pool(const core::Tensor& pool, std::span<const std::size_t> rows);

}  // namespace fedkemf::fl
