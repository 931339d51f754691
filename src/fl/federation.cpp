#include "fl/federation.hpp"

#include <cstring>
#include <stdexcept>

#include "utils/logging.hpp"

namespace fedkemf::fl {

Federation::Federation(const FederationOptions& options)
    : options_(options),
      train_set_(data::make_synthetic_dataset(options.data, options.train_samples,
                                              data::kTrainSplit)),
      test_set_(data::make_synthetic_dataset(options.data, options.test_samples,
                                             data::kTestSplit)),
      server_pool_(data::make_unlabeled_pool(options.data, options.server_pool_samples,
                                             data::kServerSplit)),
      root_rng_(core::Rng(options.seed).fork(0xFEDE8A7EULL)),
      channel_(&meter_) {
  if (options.num_clients == 0) throw std::invalid_argument("Federation: zero clients");

  core::Rng partition_rng = root_rng_.fork(0x9A87170BULL);
  switch (options.partition) {
    case PartitionKind::kDirichlet:
      shards_ = data::partition_dirichlet(train_set_.labels(), train_set_.num_classes(),
                                          options.num_clients, options.dirichlet_alpha,
                                          partition_rng);
      break;
    case PartitionKind::kIid:
      shards_ = data::partition_iid(train_set_.size(), options.num_clients, partition_rng);
      break;
    case PartitionKind::kShards:
      shards_ = data::partition_shards(train_set_.labels(), options.num_clients,
                                       options.shards_per_client, partition_rng);
      break;
  }
  build_local_test_sets();

  const auto stats = partition_stats();
  utils::log_debug("federation") << "clients=" << options.num_clients
                                 << " train=" << train_set_.size()
                                 << " test=" << test_set_.size()
                                 << " shard sizes [" << stats.min_size << ", "
                                 << stats.max_size << "] mean labels/client="
                                 << stats.mean_labels_per_client;
}

const std::vector<std::size_t>& Federation::client_shard(std::size_t id) const {
  return shards_.at(id);
}

const std::vector<std::size_t>& Federation::client_test_indices(std::size_t id) const {
  return local_test_.at(id);
}

data::PartitionStats Federation::partition_stats() const {
  return data::summarize_partition(shards_, train_set_.labels(), train_set_.num_classes());
}

void Federation::build_local_test_sets() {
  // Each client's local test set mirrors its *training* label distribution:
  // test samples of label L are eligible for clients that hold L, sampled in
  // proportion to the client's share of L. This is the personalized-FL
  // evaluation convention the paper's Table 3 uses ("we allocate each client
  // a local dataset and evaluate the average accuracy among all edge
  // clients").
  const std::size_t classes = train_set_.num_classes();
  // Bucket test indices per class.
  std::vector<std::vector<std::size_t>> test_by_class(classes);
  for (std::size_t i = 0; i < test_set_.size(); ++i) {
    test_by_class[test_set_.label(i)].push_back(i);
  }
  local_test_.resize(options_.num_clients);
  core::Rng rng = root_rng_.fork(0x10CA17E57ULL);
  for (std::size_t client = 0; client < options_.num_clients; ++client) {
    const auto histogram = train_set_.class_histogram(client_shard(client));
    const std::size_t shard_size = client_shard(client).size();
    if (shard_size == 0) continue;
    auto& local = local_test_[client];
    core::Rng client_rng = rng.fork(client);
    for (std::size_t cls = 0; cls < classes; ++cls) {
      if (histogram[cls] == 0 || test_by_class[cls].empty()) continue;
      const double share =
          static_cast<double>(histogram[cls]) / static_cast<double>(shard_size);
      std::size_t want = static_cast<std::size_t>(
          share * static_cast<double>(options_.local_test_samples) + 0.5);
      if (want == 0) want = 1;
      want = std::min(want, test_by_class[cls].size());
      const auto picks = client_rng.sample_without_replacement(test_by_class[cls].size(), want);
      for (std::size_t pick : picks) local.push_back(test_by_class[cls][pick]);
    }
    if (local.empty()) {
      // Degenerate shard (single ultra-rare class): fall back to one random
      // test sample so the evaluation average stays well-defined.
      local.push_back(static_cast<std::size_t>(client_rng.uniform_index(test_set_.size())));
    }
  }
}

core::Tensor gather_pool(const core::Tensor& pool, std::span<const std::size_t> rows) {
  const std::size_t sample_numel = pool.numel() / pool.dim(0);
  core::Tensor out(pool.rank() == 2
                       ? core::Shape::matrix(rows.size(), pool.dim(1))
                       : core::Shape::nchw(rows.size(), pool.dim(1), pool.dim(2), pool.dim(3)));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(out.data() + i * sample_numel, pool.data() + rows[i] * sample_numel,
                sample_numel * sizeof(float));
  }
  return out;
}

}  // namespace fedkemf::fl
