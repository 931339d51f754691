// The paper scorecard: every table, figure and ablation EXPERIMENTS.md cites.
//
// Experiments are data.  Each one is an id, a caption, the columns it prints
// and a grid of runs (algorithm, model, federation, round budget, and the
// fusion / codec / adversary / dropout overrides of the extension studies).
// Every run goes through fl::run_federated on the client pool (one worker per
// hardware thread; results do not depend on the thread count) and yields one
// Record.  Derived columns compare a row with the reference row of its
// (model, clients) group: the group's first row, which is its FedAvg row
// wherever the experiment runs FedAvg.  Identical runs requested by several
// experiments train once.
//
// Byte columns come in two kinds.  "Round/Client" and "Total" are analytic:
// the payload of a FULL-WIDTH model (fedkemf: its knowledge net) serialized
// through the wire format, times the cost rounds and the sampled cohort, so
// the cost factors live in the paper's regime.  "Metered" is what the
// federation's channel actually carried in the scaled run.
//
//   ./build/bench/bench_paper                # every experiment -> results/BENCH_paper.json
//   ./build/bench/bench_paper --only table3  # one experiment -> results/BENCH_paper_table3.json
//
// Prints one markdown table per experiment and writes the records, with the
// machine and the floating-point flags they were computed under, to --out.
// The quick-scale scorecard is committed; a partial run never overwrites it.

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "bench_common.hpp"
#include "fl/feddf.hpp"
#include "fl/fedmd.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace fedkemf;
using namespace fedkemf::bench;

/// One federated training run.  The defaults are the scaled main
/// configuration (10 clients, half per round, α = 0.1, FedKEMF with a
/// ResNet-20 knowledge net); experiments set what they vary.
struct Run {
  std::string label;      ///< row label
  std::string algorithm;  ///< fedavg|fedprox|fednova|scaffold|feddf|fedmd|fedkemf
  std::string arch;       ///< client model; "zoo" = ResNet-20/32/44 round-robin
  std::size_t clients = 10;
  double ratio = 0.5;
  double alpha = 0.1;
  std::string knowledge = "resnet20";  ///< fedkemf's wire network
  std::string dataset = "cifar";       ///< cifar | mnist
  std::size_t budget = 1;              ///< round budget, in multiples of the scale's rounds
  std::size_t eval_every = 2;          ///< 0 = evaluate after the last round only
  double target = 0.45;                ///< accuracy for rounds-to-target
  bool stop_at_target = false;         ///< train until `target` (Table 1's protocol)
  bool client_eval = false;            ///< also track mean per-client local accuracy
  fl::EnsembleStrategy ensemble = fl::EnsembleStrategy::kAvgLogits;
  bool weight_average = false;         ///< fedkemf fuses by weight average, no distillation
  comm::Codec codec = comm::Codec::kFp32;
  bool defended = false;               ///< upload sanitation + divergence watchdog
  double poison = 0.0;                 ///< sign-flip attacker fraction
  /// Lossy network: this per-round client dropout plus 5% payload drops and
  /// 2% corruptions with retries.  Unset = the ideal network.
  std::optional<double> dropout = std::nullopt;
};

struct Experiment {
  std::string id;
  std::string caption;
  std::vector<std::string> columns;  ///< ids from cells(); empty = accuracy curves
  std::vector<Run> runs;
};

/// What the scorecard keeps of a run's RunResult, plus the comparison with
/// its group's reference row.
struct Record {
  const Run* run = nullptr;
  double final_acc = 0.0;
  double best_acc = 0.0;
  double converge_acc = 0.0;
  std::size_t converge_round = 0;
  std::optional<std::size_t> rounds_to_target;
  std::size_t rounds_completed = 0;
  double client_acc = 0.0;  ///< NaN unless the run tracked client models
  std::vector<std::pair<std::size_t, double>> curve;  ///< (1-based round, accuracy)
  double tail_stddev = 0.0;
  std::size_t rejected = 0;
  std::size_t rolled_back = 0;
  std::size_t degraded_rounds = 0;
  std::size_t sampled = 0;     ///< summed over the evaluated rounds
  std::size_t aggregated = 0;  ///< summed over the evaluated rounds
  std::size_t stragglers = 0;
  double sim_seconds = 0.0;
  std::size_t metered_bytes = 0;
  double round_client_bytes = 0.0;  ///< analytic full width; NaN for fedmd (no model moves)
  std::size_t cohort = 0;           ///< clients sampled per round
  std::size_t cost_rounds = 0;      ///< rounds to target (budget if missed) or to convergence
  double total_bytes = 0.0;         ///< cost_rounds x round_client_bytes x cohort
  double delta_cost = 0.0;          ///< vs the reference row
  double speedup = 1.0;
  double delta_acc = 0.0;
  double metered_cut = 1.0;
};

const std::vector<std::string> kTableOrder = {"fedavg", "fednova", "fedprox", "scaffold",
                                              "fedkemf"};
const std::vector<std::string> kFigureOrder = {"fedavg", "fedprox", "fednova", "scaffold",
                                               "fedkemf"};

std::vector<Experiment> experiments() {
  std::vector<Experiment> list;

  Experiment table1{"table1",
                    "Table 1: communication cost to reach 45% accuracy (byte columns at full "
                    "model width; '*' = target not reached, cost at the budget)",
                    {"method", "model", "clients", "target", "cost_rounds", "round_client",
                     "total", "dcost", "speedup", "metered"},
                    {}};
  for (const std::string& algorithm : kTableOrder) {
    for (const std::string arch : {"resnet20", "resnet32", "vgg11"}) {
      table1.runs.push_back({.label = algorithm_label(algorithm), .algorithm = algorithm,
                             .arch = arch, .budget = 2, .eval_every = 1,
                             .stop_at_target = true});
    }
  }
  list.push_back(table1);

  // Scaled stand-ins for the paper's (30, 0.4), (50, 0.7), (100, 0.5) groups;
  // VGG-11 only in the first, as in the paper.
  Experiment table2{"table2",
                    "Table 2: communication cost and accuracy at convergence (byte columns at "
                    "full model width)",
                    {"method", "clients", "model", "ratio", "cost_rounds", "round_client",
                     "total", "speedup", "converge_acc", "dacc", "metered"},
                    {}};
  for (const std::string& algorithm : kTableOrder) {
    for (const auto& [clients, ratio] : {std::pair{10, 0.5}, std::pair{14, 0.7}}) {
      for (const std::string arch : {"resnet20", "resnet32", "vgg11"}) {
        if (arch == "vgg11" && clients != 10) continue;
        table2.runs.push_back({.label = algorithm_label(algorithm), .algorithm = algorithm,
                               .arch = arch, .clients = static_cast<std::size_t>(clients),
                               .ratio = ratio});
      }
    }
  }
  list.push_back(table2);

  Experiment table3{"table3",
                    "Table 3: multi-model federated learning (mean per-client local accuracy; "
                    "FedKEMF's clients keep their own ResNet-20/32/44)",
                    {"method", "model", "clients", "ratio", "client_acc"},
                    {}};
  for (const std::string algorithm : {"fedavg", "fednova", "fedprox", "fedkemf"}) {
    table3.runs.push_back({.label = algorithm_label(algorithm), .algorithm = algorithm,
                           .arch = algorithm == std::string("fedkemf") ? "zoo" : "resnet20",
                           .clients = 12, .eval_every = 0, .client_eval = true});
  }
  list.push_back(table3);

  // Figure 4: one panel per client model; the cnn2 panel runs on synth-MNIST
  // with a second cnn2 as the knowledge net, following the paper.
  for (const std::string arch : {"cnn2", "resnet20", "resnet32", "vgg11"}) {
    const bool mnist = arch == "cnn2";
    Experiment panel{"fig4-" + arch,
                     "Figure 4 panel: " + arch + (mnist ? " on synth-MNIST" : " on synth-CIFAR") +
                         ", test accuracy (%) vs round",
                     {},
                     {}};
    for (const std::string& algorithm : kFigureOrder) {
      panel.runs.push_back({.label = algorithm_label(algorithm), .algorithm = algorithm,
                            .arch = arch, .knowledge = mnist ? "cnn2" : "resnet20",
                            .dataset = mnist ? "mnist" : "cifar"});
    }
    list.push_back(panel);
  }

  Experiment fig56{"fig5-fig6",
                   "Figures 5 & 6: convergence accuracy (higher is better) and rounds to 45% "
                   "(lower is better; '>N*' = not reached within the budget)",
                   {"model", "method", "converge_acc", "best", "converge_round", "to_target"},
                   {}};
  for (const std::string arch : {"resnet20", "resnet32"}) {
    for (const std::string& algorithm : kFigureOrder) {
      fig56.runs.push_back(
          {.label = algorithm_label(algorithm), .algorithm = algorithm, .arch = arch});
    }
  }
  list.push_back(fig56);

  // Figure 7 sweeps one axis at a time around (12 clients, ratio 0.4, α 0.1).
  Experiment fig7{"fig7", "Figure 7: FedKEMF across FL settings (stable = low tail stddev)",
                  {"clients", "ratio", "alpha", "final", "best", "tail_stddev"},
                  {}};
  for (const auto& [clients, ratio, alpha] :
       {std::tuple{8, 0.4, 0.1}, std::tuple{12, 0.4, 0.1}, std::tuple{16, 0.4, 0.1},
        std::tuple{12, 0.7, 0.1}, std::tuple{12, 1.0, 0.1}, std::tuple{12, 0.4, 0.05},
        std::tuple{12, 0.4, 0.5}}) {
    fig7.runs.push_back({.label = "FedKEMF", .algorithm = "fedkemf", .arch = "resnet20",
                         .clients = static_cast<std::size_t>(clients), .ratio = ratio,
                         .alpha = alpha});
  }
  list.push_back(fig7);

  Experiment ensemble{"ablation-ensemble", "Ablation: FedKEMF server fusion strategies",
                      {"method", "final", "best", "converge_acc", "converge_round"},
                      {}};
  for (const auto& [label, strategy, weight_average] :
       {std::tuple{"max logits (paper default)", fl::EnsembleStrategy::kMaxLogits, false},
        std::tuple{"average logits", fl::EnsembleStrategy::kAvgLogits, false},
        std::tuple{"majority vote", fl::EnsembleStrategy::kMajorityVote, false},
        std::tuple{"weight average (no distillation)", fl::EnsembleStrategy::kMaxLogits,
                   true}}) {
    ensemble.runs.push_back({.label = label, .algorithm = "fedkemf", .arch = "resnet20",
                             .clients = 12, .ensemble = strategy,
                             .weight_average = weight_average});
  }
  list.push_back(ensemble);

  // FedAvg -> FedDF isolates distillation fusion at equal payload; FedDF ->
  // FedKEMF the extraction into the knowledge net; FedMD (logit consensus)
  // bounds the near-zero-traffic extreme.
  Experiment distillation{"ablation-distillation",
                          "Contribution isolation: FedAvg / FedDF (ensemble distillation, full "
                          "model) / FedMD (logit consensus) / FedKEMF (knowledge net)",
                          {"method", "final", "best", "metered"},
                          {}};
  for (const std::string algorithm : {"fedavg", "feddf", "fedmd", "fedkemf"}) {
    distillation.runs.push_back({.label = algorithm_label(algorithm), .algorithm = algorithm,
                                 .arch = "resnet20", .ratio = 0.4});
  }
  list.push_back(distillation);

  Experiment compression{"ablation-compression",
                         "Ablation: quantized knowledge-network exchange (metered cut = fp32's "
                         "metered bytes / the codec's)",
                         {"method", "final", "best", "metered", "metered_cut"},
                         {}};
  for (comm::Codec codec : {comm::Codec::kFp32, comm::Codec::kFp16, comm::Codec::kInt8}) {
    compression.runs.push_back({.label = comm::to_string(codec), .algorithm = "fedkemf",
                                .arch = "resnet20", .codec = codec});
  }
  list.push_back(compression);

  // α = 1 isolates the Byzantine effect: at α = 0.1 honest specialists are
  // mutual outliers and coordinate-wise trimming discards real knowledge too.
  Experiment byzantine{"byzantine",
                       "Byzantine resilience: FedKEMF defended (trimmed mean + sanitation + "
                       "watchdog) vs undefended (max logits) under sign-flip poisoning",
                       {"method", "attackers", "final", "best", "rejected", "rollbacks"},
                       {}};
  for (const bool defended : {true, false}) {
    for (const double poison : {0.0, 0.1, 0.3}) {
      byzantine.runs.push_back(
          {.label = defended ? "trimmed+sanitize+watchdog" : "none (max logits)",
           .algorithm = "fedkemf", .arch = "resnet20", .ratio = 1.0, .alpha = 1.0,
           .knowledge = "mlp",
           .ensemble = defended ? fl::EnsembleStrategy::kTrimmedMean
                                : fl::EnsembleStrategy::kMaxLogits,
           .defended = defended, .poison = poison});
    }
  }
  list.push_back(byzantine);

  Experiment faults{"fault-tolerance",
                    "Fault tolerance: accuracy under client dropout and payload faults (5% "
                    "drop, 2% corrupt; cohort counts over the evaluated rounds)",
                    {"method", "dropout", "final", "best", "cohort", "stragglers", "sim_time"},
                    {}};
  for (const std::string algorithm : {"fedavg", "fedkemf"}) {
    for (const double dropout : {0.0, 0.1, 0.3}) {
      faults.runs.push_back({.label = algorithm_label(algorithm), .algorithm = algorithm,
                             .arch = "resnet20", .dropout = dropout});
    }
  }
  list.push_back(faults);
  return list;
}

std::string percent(double fraction) { return utils::format_percent(fraction); }

std::string fixed(double value, int decimals) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.*f", decimals, value);
  return text;
}

std::string signed_bytes(double bytes) {
  return std::string(bytes >= 0 ? "+" : "-").append(utils::format_bytes(std::abs(bytes)));
}

/// Every column a record can print, by id: (header, cell).  Experiments pick
/// theirs by id.
std::map<std::string, std::pair<std::string, std::string>> cells(const Record& r) {
  const Run& run = *r.run;
  const bool missed = run.stop_at_target && !r.rounds_to_target;
  const std::string to_target =
      r.rounds_to_target ? std::to_string(*r.rounds_to_target)
                         : std::string(">").append(std::to_string(r.rounds_completed)) + "*";
  return {
      {"method", {"Method", run.label}},
      {"model", {"Model", run.arch == "zoo" ? "ResNet-20/32/44 zoo" : run.arch}},
      {"clients", {"Clients", std::to_string(run.clients)}},
      {"ratio", {"Ratio", fixed(run.ratio, 1)}},
      {"alpha", {"Alpha", fixed(run.alpha, 2)}},
      {"target", {"Target", utils::format_percent(run.target, 0)}},
      {"final", {"Final Acc.", percent(r.final_acc)}},
      {"best", {"Best Acc.", percent(r.best_acc)}},
      {"converge_acc", {"Converge Acc.", percent(r.converge_acc)}},
      {"converge_round", {"Converge Round", std::to_string(r.converge_round)}},
      {"to_target", {"Rounds to Target", to_target}},
      {"client_acc", {"Average Acc.", percent(r.client_acc)}},
      {"tail_stddev", {"Tail StdDev", fixed(r.tail_stddev, 4)}},
      {"cost_rounds", {"Rounds", std::to_string(r.cost_rounds) + (missed ? "*" : "")}},
      {"round_client", {"Round/Client", utils::format_bytes(r.round_client_bytes)}},
      {"total", {"Total", utils::format_bytes(r.total_bytes)}},
      {"dcost", {"dCost", signed_bytes(r.delta_cost)}},
      {"speedup", {"Speed Up", utils::format_speedup(r.speedup)}},
      {"dacc", {"dAcc", std::string(r.delta_acc >= 0 ? "+" : "").append(percent(r.delta_acc))}},
      {"metered", {"Metered", utils::format_bytes(static_cast<double>(r.metered_bytes))}},
      {"metered_cut", {"Metered cut", utils::format_speedup(r.metered_cut)}},
      {"attackers", {"Attackers", utils::format_percent(run.poison, 0)}},
      {"dropout", {"Dropout", utils::format_percent(run.dropout.value_or(0.0), 0)}},
      {"rejected", {"Rejected", std::to_string(r.rejected)}},
      {"rollbacks", {"Rollbacks", std::to_string(r.rolled_back)}},
      {"cohort",
       {"Completed/Sampled", std::to_string(r.aggregated) + "/" + std::to_string(r.sampled)}},
      {"stragglers", {"Stragglers", std::to_string(r.stragglers)}},
      {"sim_time", {"Sim. time", fixed(r.sim_seconds, 1) + " s"}},
  };
}

/// Std-dev of the accuracy over the last half of the evaluations (Figure 7's
/// stability score; 0 with fewer than four evaluations).
double tail_stddev(const fl::RunResult& result) {
  const std::size_t n = result.history.size();
  if (n < 4) return 0.0;
  const std::size_t start = n / 2;
  double mean = 0.0;
  for (std::size_t i = start; i < n; ++i) mean += result.history[i].accuracy;
  mean /= static_cast<double>(n - start);
  double var = 0.0;
  for (std::size_t i = start; i < n; ++i) {
    const double d = result.history[i].accuracy - mean;
    var += d * d;
  }
  return std::sqrt(var / static_cast<double>(n - start));
}

std::uint64_t u64(std::size_t value) { return value; }

/// The run's configuration members (JsonWriter writes NaN as null).
void write_run(obs::JsonWriter& json, const Run& run) {
  json.member("label", run.label);
  json.member("algorithm", run.algorithm);
  json.member("arch", run.arch);
  json.member("knowledge", run.knowledge);
  json.member("dataset", run.dataset);
  json.member("clients", u64(run.clients));
  json.member("ratio", run.ratio);
  json.member("alpha", run.alpha);
  json.member("round_budget", u64(run.budget));
  json.member("eval_every", u64(run.eval_every));
  json.member("target", run.target);
  json.member("stop_at_target", run.stop_at_target);
  json.member("client_eval", run.client_eval);
  json.member("ensemble", fl::to_string(run.ensemble));
  json.member("weight_average", run.weight_average);
  json.member("codec", comm::to_string(run.codec));
  json.member("defended", run.defended);
  json.member("poison", run.poison);
  json.member("dropout", run.dropout.value_or(std::nan("")));
}

class Scorecard {
 public:
  Scorecard(BenchScale scale, std::uint64_t seed)
      : scale_(std::move(scale)),
        seed_(seed),
        threads_(std::max(1u, std::thread::hardware_concurrency())) {}

  std::size_t threads() const { return threads_; }

  /// Records for every run of `experiment`, in grid order.
  std::vector<Record> records_for(const Experiment& experiment) {
    std::vector<Record> records;
    for (const Run& run : experiment.runs) {
      records.push_back(make_record(
          run, train(run, experiment.id, records.size() + 1, experiment.runs.size())));
    }
    for (Record& record : records) {
      const Record& ref = reference(records, record);
      record.delta_cost = record.total_bytes - ref.total_bytes;
      record.speedup = ref.total_bytes / record.total_bytes;
      record.delta_acc = record.converge_acc - ref.converge_acc;
      record.metered_cut =
          static_cast<double>(ref.metered_bytes) / static_cast<double>(record.metered_bytes);
    }
    return records;
  }

 private:
  /// The group's first row (the FedAvg row wherever the experiment runs it).
  static const Record& reference(const std::vector<Record>& records, const Record& record) {
    for (const Record& candidate : records) {
      if (candidate.run->arch == record.run->arch &&
          candidate.run->clients == record.run->clients) {
        return candidate;
      }
    }
    return record;
  }

  /// The run's configuration without its label, and without the target
  /// unless the run stops at it: runs with equal keys train identically.
  static std::string key(Run run) {
    run.label.clear();
    if (!run.stop_at_target) run.target = 0.0;
    obs::JsonWriter json;
    json.begin_object();
    write_run(json, run);
    json.end_object();
    return json.take();
  }

  std::unique_ptr<fl::Algorithm> build_algorithm(const Run& run,
                                                 const data::SyntheticSpec& data) const {
    const fl::LocalTrainConfig local = default_local(scale_);
    const double width = scale_.width_multiplier;
    const models::ModelSpec knowledge = model_spec(run.knowledge, data, width);
    const std::vector<std::string> archs =
        run.arch == "zoo" ? std::vector<std::string>{"resnet20", "resnet32", "resnet44"}
                          : std::vector<std::string>{run.arch};
    std::vector<models::ModelSpec> clients;
    for (const std::string& arch : archs) clients.push_back(model_spec(arch, data, width));
    if (run.algorithm == "feddf") return std::make_unique<fl::FedDf>(clients.front(), local);
    if (run.algorithm == "fedmd") {
      fl::FedMdOptions options;
      options.server_student = clients.front();
      return std::make_unique<fl::FedMd>(clients, local, options);
    }
    if (run.algorithm != "fedkemf") {
      return make_algorithm(run.algorithm, clients.front(), knowledge, local);
    }
    fl::FedKemfOptions options = default_kemf(knowledge);
    options.ensemble = run.ensemble;
    options.fuse_by_weight_average = run.weight_average;
    options.payload_codec = run.codec;
    options.sanitize.enabled = run.defended;
    return std::make_unique<fl::FedKemf>(clients, local, options);
  }

  const fl::RunResult& train(const Run& run, const std::string& experiment, std::size_t index,
                             std::size_t count) {
    const std::string run_key = key(run);
    if (const auto found = cache_.find(run_key); found != cache_.end()) return found->second;

    const data::SyntheticSpec data =
        run.dataset == "mnist" ? synth_mnist(scale_) : synth_cifar(scale_);
    fl::FederationOptions federation_options;
    federation_options.data = data;
    federation_options.train_samples = scale_.train_samples;
    federation_options.test_samples = scale_.test_samples;
    federation_options.server_pool_samples = scale_.server_pool;
    federation_options.num_clients = run.clients;
    federation_options.dirichlet_alpha = run.alpha;
    federation_options.seed = seed_;
    fl::Federation federation(federation_options);

    fl::RunOptions options;
    options.rounds = run.budget * scale_.rounds;
    options.sample_ratio = run.ratio;
    options.eval_every = run.eval_every == 0 ? options.rounds : run.eval_every;
    options.num_threads = threads_;
    options.evaluate_client_models = run.client_eval;
    if (run.stop_at_target) options.stop_at_accuracy = run.target;
    if (run.poison > 0.0 || run.dropout) {
      options.sim = sim::SimOptions{};
      options.sim->adversary.poison_fraction = run.poison;
      options.sim->adversary.poison_mode = sim::PoisonMode::kSignFlip;
      if (run.dropout) {
        options.sim->network.dropout_prob = *run.dropout;
        options.sim->faults.drop_prob = 0.05;
        options.sim->faults.corrupt_prob = 0.02;
      }
    }
    if (run.defended) options.watchdog = fl::WatchdogOptions{};

    utils::Stopwatch clock;
    auto algorithm = build_algorithm(run, data);
    fl::RunResult result = fl::run_federated(federation, *algorithm, options);
    std::fprintf(stderr, "[%s %zu/%zu] %s %s: %.1f s\n", experiment.c_str(), index, count,
                 run.label.c_str(), run.arch.c_str(), clock.seconds());
    return cache_.emplace(run_key, std::move(result)).first->second;
  }

  Record make_record(const Run& run, const fl::RunResult& result) const {
    Record r;
    r.run = &run;
    r.final_acc = result.final_accuracy;
    r.best_acc = result.best_accuracy;
    r.converge_acc = result.convergence_accuracy();
    r.converge_round = result.convergence_round();
    r.rounds_to_target = result.rounds_to_accuracy(run.target);
    r.rounds_completed = result.rounds_completed;
    r.client_acc = result.history.back().client_accuracy;
    for (const fl::RoundRecord& round : result.history) {
      r.curve.emplace_back(round.round + 1, round.accuracy);
      r.sampled += round.clients_sampled;
      r.aggregated += round.clients_completed;
    }
    r.tail_stddev = tail_stddev(result);
    r.rejected = result.total_rejected_updates;
    r.rolled_back = result.total_rolled_back;
    r.degraded_rounds = result.total_degraded_rounds;
    r.stragglers = result.total_stragglers;
    r.sim_seconds = result.sim_seconds;
    r.metered_bytes = result.total_bytes;
    r.round_client_bytes =
        run.algorithm == "fedmd"
            ? std::nan("")
            : static_cast<double>(full_width_round_bytes(run.arch, run.algorithm, run.knowledge));
    r.cohort = fl::sampled_client_count(run.clients, run.ratio);
    r.cost_rounds = run.stop_at_target
                        ? r.rounds_to_target.value_or(run.budget * scale_.rounds)
                        : r.converge_round;
    r.total_bytes = static_cast<double>(r.cost_rounds) * r.round_client_bytes *
                    static_cast<double>(r.cohort);
    return r;
  }

  BenchScale scale_;
  std::uint64_t seed_;
  std::size_t threads_;
  std::map<std::string, fl::RunResult> cache_;
};

void print(const Experiment& experiment, const std::vector<Record>& records) {
  if (experiment.columns.empty()) {
    std::vector<std::string> header = {"Round"};
    for (const Record& record : records) header.push_back(record.run->label);
    utils::Table table(header);
    for (std::size_t i = 0; i < records.front().curve.size(); ++i) {
      auto row = table.row();
      row.cell(records.front().curve[i].first);
      for (const Record& record : records) row.cell(record.curve[i].second * 100.0, 1);
    }
    emit(experiment.caption, table, "");
    return;
  }
  std::vector<std::string> header;
  for (const std::string& id : experiment.columns) {
    header.push_back(cells(records.front()).at(id).first);
  }
  utils::Table table(header);
  for (const Record& record : records) {
    const auto all = cells(record);
    std::vector<std::string> row;
    for (const std::string& id : experiment.columns) row.push_back(all.at(id).second);
    table.add_row(std::move(row));
  }
  emit(experiment.caption, table, "");
}

std::string row_json(const Record& r) {
  obs::JsonWriter json;
  json.begin_object();
  write_run(json, *r.run);
  json.member("final_acc", r.final_acc);
  json.member("best_acc", r.best_acc);
  json.member("converge_acc", r.converge_acc);
  json.member("converge_round", u64(r.converge_round));
  json.member("rounds_to_target",
              r.rounds_to_target ? static_cast<double>(*r.rounds_to_target) : std::nan(""));
  json.member("rounds_completed", u64(r.rounds_completed));
  json.member("client_acc", r.client_acc);
  json.member("tail_stddev", r.tail_stddev);
  json.member("rejected", u64(r.rejected));
  json.member("rolled_back", u64(r.rolled_back));
  json.member("degraded_rounds", u64(r.degraded_rounds));
  json.member("sampled", u64(r.sampled));
  json.member("aggregated", u64(r.aggregated));
  json.member("stragglers", u64(r.stragglers));
  json.member("sim_seconds", r.sim_seconds);
  json.member("metered_bytes", u64(r.metered_bytes));
  json.member("round_client_bytes", r.round_client_bytes);
  json.member("cohort", u64(r.cohort));
  json.member("cost_rounds", u64(r.cost_rounds));
  json.member("total_bytes", r.total_bytes);
  json.member("delta_cost_bytes", r.delta_cost);
  json.member("speedup", r.speedup);
  json.member("delta_acc", r.delta_acc);
  json.member("metered_cut", r.metered_cut);
  json.key("curve");
  json.begin_array();
  for (const auto& [round, accuracy] : r.curve) {
    json.begin_array();
    json.value(u64(round));
    json.value(accuracy);
    json.end_array();
  }
  json.end_array();
  json.end_object();
  return json.take();
}

/// Writes the scorecard one row per line, so a re-run diffs row by row.
bool write_json(const std::string& path, const std::string& context,
                const std::vector<std::pair<const Experiment*, std::vector<Record>>>& done) {
  std::string body = "{\"context\": " + context + ",\n\"experiments\": [";
  for (std::size_t e = 0; e < done.size(); ++e) {
    const auto& [experiment, records] = done[e];
    body.append(e == 0 ? "\n" : ",\n")
        .append("{\"id\": \"")
        .append(obs::json_escape(experiment->id))
        .append("\", \"caption\": \"")
        .append(obs::json_escape(experiment->caption))
        .append("\", \"rows\": [");
    for (std::size_t i = 0; i < records.size(); ++i) {
      body.append(i == 0 ? "\n  " : ",\n  ").append(row_json(records[i]));
    }
    body += "]}";
  }
  body += "]}\n";

  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "bench_paper: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), file);
  std::fclose(file);
  return true;
}

/// The machine, compiler and floating-point flags the numbers came from
/// (FEDKEMF_COMPILER, FEDKEMF_MARCH and FEDKEMF_FP_CONTRACT are set by
/// bench/CMakeLists.txt).
std::string context_json(const BenchScale& scale, std::uint64_t seed, std::size_t threads) {
  obs::JsonWriter json;
  json.begin_object();
  json.member("executable", std::string("bench_paper"));
  json.member("scale", scale.name);
  json.member("seed", seed);
  json.member("cpus", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.member("threads", static_cast<std::uint64_t>(threads));
  json.member("compiler", std::string(FEDKEMF_COMPILER));
  json.member("march", std::string(FEDKEMF_MARCH));
  json.member("fp_contract", std::string(FEDKEMF_FP_CONTRACT));
  json.end_object();
  return json.take();
}

}  // namespace

int main(int argc, char** argv) {
  std::string scale_name = "quick";
  std::size_t seed = 1;
  std::string only;
  std::string out;

  utils::Cli cli("bench_paper",
                 "The paper scorecard: Tables 1-3, Figures 4-7 and the ablations");
  cli.flag("scale", &scale_name, "quick | standard | full");
  cli.flag("seed", &seed, "experiment seed");
  cli.flag("only", &only, "run one experiment id (table1, fig4-vgg11, byzantine, ...)");
  cli.flag("out", &out,
           "scorecard JSON path (default: results/BENCH_paper.json, or "
           "results/BENCH_paper_<id>.json with --only)");
  cli.parse(argc, argv);
  if (out.empty()) {
    out = only.empty() ? "results/BENCH_paper.json" : "results/BENCH_paper_" + only + ".json";
  }

  const std::vector<Experiment> list = experiments();
  bool known = only.empty();
  for (const Experiment& experiment : list) known = known || experiment.id == only;
  if (!known) {
    std::fprintf(stderr, "unknown --only '%s'; experiments:", only.c_str());
    for (const Experiment& experiment : list) std::fprintf(stderr, " %s", experiment.id.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  const BenchScale scale = BenchScale::named(scale_name);
  Scorecard scorecard(scale, seed);
  const std::string context = context_json(scale, seed, scorecard.threads());
  std::vector<std::pair<const Experiment*, std::vector<Record>>> done;
  for (const Experiment& experiment : list) {
    if (!only.empty() && experiment.id != only) continue;
    done.emplace_back(&experiment, scorecard.records_for(experiment));
    print(experiment, done.back().second);
    std::fflush(stdout);
    // Rewritten after every experiment, so an interrupted run keeps what it finished.
    if (!write_json(out, context, done)) return 1;
  }
  std::printf("(scorecard written to %s)\n", out.c_str());
  return 0;
}
