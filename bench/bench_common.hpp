#pragma once

// Shared scaffolding for the bench harnesses.
//
// bench_paper reproduces the paper's tables and figures.  Because the
// paper's testbed (GPU cluster, full-width models, 200 rounds) does not fit a
// small CPU budget, the benches run a *scaled* configuration by default
// (smaller synthetic images, width-multiplied models, fewer rounds).  The
// `--scale full` flag switches to paper-scale parameters for users with the
// compute budget.  Analytic byte columns always reflect the *full-width*
// models: the per-round payload is measured by serializing a genuinely
// full-width instance, so the communication factors match the paper's regime
// even in scaled runs.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "comm/channel.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedkemf.hpp"
#include "fl/fednova.hpp"
#include "fl/fedprox.hpp"
#include "fl/runner.hpp"
#include "fl/scaffold.hpp"
#include "models/zoo.hpp"
#include "obs/json.hpp"
#include "utils/cli.hpp"
#include "utils/stopwatch.hpp"
#include "utils/table.hpp"

namespace fedkemf::bench {

/// Scaled-vs-paper-scale switch shared by all benches.
struct BenchScale {
  std::string name = "quick";      ///< quick | standard | full
  std::size_t image_size = 12;
  double width_multiplier = 0.25;
  std::size_t train_samples = 1000;
  std::size_t test_samples = 320;
  std::size_t server_pool = 256;
  std::size_t rounds = 24;
  std::size_t local_epochs = 2;

  static BenchScale named(const std::string& name);
};

inline BenchScale BenchScale::named(const std::string& name) {
  BenchScale scale;
  scale.name = name;
  if (name == "quick") {
    return scale;  // defaults above
  }
  if (name == "standard") {
    // The configuration the key claims were validated on (see
    // EXPERIMENTS.md): ~5x the quick compute.
    scale.image_size = 16;
    scale.width_multiplier = 0.25;
    scale.train_samples = 1600;
    scale.test_samples = 400;
    scale.server_pool = 512;
    scale.rounds = 30;
    scale.local_epochs = 2;
    return scale;
  }
  if (name == "full") {
    // Paper scale: 32x32 data, full-width models, 200 rounds. Only feasible
    // with a serious multi-core budget.
    scale.image_size = 32;
    scale.width_multiplier = 1.0;
    scale.train_samples = 50000;
    scale.test_samples = 10000;
    scale.server_pool = 5000;
    scale.rounds = 200;
    scale.local_epochs = 2;
    return scale;
  }
  std::fprintf(stderr, "unknown --scale '%s' (quick|standard|full)\n", name.c_str());
  std::exit(2);
}

/// The synthetic stand-ins for the paper's datasets (see DESIGN.md for the
/// substitution rationale).  Difficulty is tuned so the scaled task has
/// headroom: centralized training tops out well below 100%, mirroring
/// CIFAR-10's regime where fusion quality matters.
inline data::SyntheticSpec synth_cifar(const BenchScale& scale) {
  data::SyntheticSpec spec = data::SyntheticSpec::cifar_like();
  spec.image_size = scale.image_size;
  spec.noise_stddev = 1.4;
  spec.class_separation = 0.85;
  return spec;
}

inline data::SyntheticSpec synth_mnist(const BenchScale& scale) {
  data::SyntheticSpec spec = data::SyntheticSpec::mnist_like();
  spec.image_size = scale.image_size >= 28 ? 28 : scale.image_size;
  return spec;
}

inline models::ModelSpec model_spec(const std::string& arch, const data::SyntheticSpec& data,
                                    double width) {
  return models::ModelSpec{.arch = arch,
                           .num_classes = data.num_classes,
                           .in_channels = data.channels,
                           .image_size = data.image_size,
                           .width_multiplier = width};
}

/// Local SGD settings used across all benches (the paper follows the non-IID
/// benchmark conventions; exact values recorded in EXPERIMENTS.md).
inline fl::LocalTrainConfig default_local(const BenchScale& scale) {
  fl::LocalTrainConfig config;
  config.epochs = scale.local_epochs;
  config.batch_size = 32;
  config.learning_rate = 0.05;
  config.momentum = 0.9;
  config.weight_decay = 5e-4;
  return config;
}

/// FedKEMF server-side defaults used across benches.
inline fl::FedKemfOptions default_kemf(const models::ModelSpec& knowledge_spec) {
  fl::FedKemfOptions options;
  options.knowledge_spec = knowledge_spec;
  // The paper "adopt[s] the max logits as the ensemble strategy since the max
  // logits get the best results in practice"; on this synthetic substrate the
  // empirically best strategy is average logits (bench_paper's
  // ablation-ensemble), so the same pick-the-best-in-practice methodology
  // selects kAvgLogits here.
  options.ensemble = fl::EnsembleStrategy::kAvgLogits;
  options.distill_temperature = 2.0f;
  options.distill_epochs = 2;
  options.server_learning_rate = 0.02;
  options.server_momentum = 0.0;
  return options;
}

/// Builds a baseline algorithm by name ("fedavg", "fedprox", "fednova",
/// "scaffold") or FedKEMF ("fedkemf").
inline std::unique_ptr<fl::Algorithm> make_algorithm(
    const std::string& name, const models::ModelSpec& client_spec,
    const models::ModelSpec& knowledge_spec, const fl::LocalTrainConfig& local) {
  if (name == "fedavg") return std::make_unique<fl::FedAvg>(client_spec, local);
  if (name == "fedprox") return std::make_unique<fl::FedProx>(client_spec, local, 0.01);
  if (name == "fednova") return std::make_unique<fl::FedNova>(client_spec, local);
  if (name == "scaffold") return std::make_unique<fl::Scaffold>(client_spec, local);
  if (name == "fedkemf") {
    return std::make_unique<fl::FedKemf>(std::vector<models::ModelSpec>{client_spec},
                                         local, default_kemf(knowledge_spec));
  }
  std::fprintf(stderr, "unknown algorithm '%s'\n", name.c_str());
  std::exit(2);
}

/// Per-round-per-client payload bytes at FULL width (down + up), measured by
/// serializing a real full-width instance — this is the paper's
/// "Round/Client" column.
inline std::size_t full_width_round_bytes(const std::string& arch,
                                          const std::string& algorithm,
                                          const std::string& knowledge_arch = "resnet20") {
  auto wire = [](const std::string& a) {
    core::Rng rng(0);
    auto model = models::build_model(
        models::ModelSpec{.arch = a, .num_classes = 10, .in_channels = 3,
                          .image_size = 32, .width_multiplier = 1.0},
        rng);
    return comm::model_wire_size(*model);
  };
  auto param_bytes = [](const std::string& a) {
    return 4 * models::parameter_count(
                   models::ModelSpec{.arch = a, .num_classes = 10, .in_channels = 3,
                                     .image_size = 32, .width_multiplier = 1.0});
  };
  if (algorithm == "fedkemf") return 2 * wire(knowledge_arch);
  const std::size_t model_bytes = wire(arch);
  if (algorithm == "fednova") return 2 * model_bytes + param_bytes(arch) + 8;
  if (algorithm == "scaffold") return 2 * model_bytes + 2 * param_bytes(arch);
  return 2 * model_bytes;  // fedavg / fedprox
}

/// Pretty label used in tables.
inline std::string algorithm_label(const std::string& name) {
  if (name == "fedavg") return "FedAvg";
  if (name == "fedprox") return "FedProx";
  if (name == "fednova") return "FedNova";
  if (name == "scaffold") return "SCAFFOLD";
  if (name == "fedkemf") return "FedKEMF";
  if (name == "feddf") return "FedDF";
  if (name == "fedmd") return "FedMD";
  return name;
}

/// Machine-readable bench results: collects named scalar metrics and writes
/// them as `BENCH_<name>.json` in google-benchmark's output shape (a
/// "context" header plus a "benchmarks" array), so one regression checker
/// (tools/check_bench_regression.py) handles both google-benchmark harnesses
/// and the standalone table benches.  CI uploads these files as artifacts and
/// gates merges on them.
class BenchReport {
 public:
  /// `name` is the suite label: the file lands at `<dir>/BENCH_<name>.json`.
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Records one metric.  `unit` is advisory ("ns", "bytes", "seconds"...).
  void add(const std::string& metric, double value, const std::string& unit) {
    entries_.push_back({metric, value, unit});
  }

  /// Writes `<dir>/BENCH_<name>.json`; returns false (and warns) on I/O
  /// failure.  Pass dir = "results" to match the CI artifact layout.
  bool write(const std::string& dir = "results") const {
    obs::JsonWriter json;
    json.begin_object();
    json.key("context");
    json.begin_object();
    json.member("executable", name_);
    json.member("library", std::string("fedkemf-bench-report"));
    json.end_object();
    json.key("benchmarks");
    json.begin_array();
    for (const Entry& entry : entries_) {
      json.begin_object();
      json.member("name", entry.metric);
      json.member("run_type", std::string("iteration"));
      json.member("real_time", entry.value);
      json.member("cpu_time", entry.value);
      json.member("time_unit", entry.unit);
      json.end_object();
    }
    json.end_array();
    json.end_object();

    std::error_code ec;
    if (!dir.empty()) std::filesystem::create_directories(dir, ec);
    const std::string path =
        (std::filesystem::path(dir) / ("BENCH_" + name_ + ".json")).string();
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
      return false;
    }
    const std::string body = json.str();
    std::fwrite(body.data(), 1, body.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
    std::printf("(bench json written to %s)\n", path.c_str());
    return true;
  }

 private:
  struct Entry {
    std::string metric;
    double value;
    std::string unit;
  };
  std::string name_;
  std::vector<Entry> entries_;
};

/// Emits a table with a caption, and optionally a CSV next to the binary.
inline void emit(const std::string& caption, const utils::Table& table,
                 const std::string& csv_path) {
  std::printf("\n== %s ==\n\n%s\n", caption.c_str(), table.to_markdown().c_str());
  if (!csv_path.empty()) {
    std::error_code ec;
    const auto parent = std::filesystem::path(csv_path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    if (table.write_csv(csv_path)) std::printf("(csv written to %s)\n", csv_path.c_str());
  }
}

}  // namespace fedkemf::bench
