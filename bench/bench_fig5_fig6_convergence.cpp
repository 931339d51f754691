// Figures 5 & 6 reproduction:
//   Fig. 5 — convergence accuracy per method/model (bar chart -> table rows);
//   Fig. 6 — communication rounds to reach a target accuracy (lower better).
//
// Both figures come from the same training runs, so one binary regenerates
// the two assets.

#include "bench_common.hpp"

namespace {

using namespace fedkemf;
using namespace fedkemf::bench;

}  // namespace

int main(int argc, char** argv) {
  std::string scale_name = "quick";
  std::size_t clients = 10;
  double sample_ratio = 0.5;
  double alpha = 0.1;
  double target = 0.45;
  std::size_t seed = 1;
  std::string csv_dir = "results";

  fedkemf::utils::Cli cli("bench_fig5_fig6_convergence",
                          "Reproduces Figures 5 (convergence accuracy) and 6 "
                          "(rounds to target accuracy)");
  cli.flag("scale", &scale_name, "quick | standard | full");
  cli.flag("clients", &clients, "number of clients");
  cli.flag("sample-ratio", &sample_ratio, "client sample ratio per round");
  cli.flag("alpha", &alpha, "Dirichlet concentration");
  cli.flag("target", &target, "target accuracy for Figure 6 (fraction)");
  cli.flag("seed", &seed, "experiment seed");
  cli.flag("csv-dir", &csv_dir, "directory for CSV dumps ('' = none)");
  cli.parse(argc, argv);

  const BenchScale scale = BenchScale::named(scale_name);
  const data::SyntheticSpec data = synth_cifar(scale);
  const fl::LocalTrainConfig local = default_local(scale);

  const std::vector<std::string> archs = {"resnet20", "resnet32"};
  const std::vector<std::string> algorithms = {"fedavg", "fedprox", "fednova",
                                               "scaffold", "fedkemf"};

  utils::Table fig5({"Model", "Method", "Converge Acc.", "Best Acc.", "Converge Round"});
  utils::Table fig6({"Model", "Method", "Target", "Rounds to Target"});

  for (const std::string& arch : archs) {
    const models::ModelSpec client_spec = model_spec(arch, data, scale.width_multiplier);
    const models::ModelSpec knowledge_spec =
        model_spec("resnet20", data, scale.width_multiplier);
    for (const std::string& name : algorithms) {
      fl::FederationOptions fed_options;
      fed_options.data = data;
      fed_options.train_samples = scale.train_samples;
      fed_options.test_samples = scale.test_samples;
      fed_options.server_pool_samples = scale.server_pool;
      fed_options.num_clients = clients;
      fed_options.dirichlet_alpha = alpha;
      fed_options.seed = seed;
      fl::Federation federation(fed_options);

      auto algorithm = make_algorithm(name, client_spec, knowledge_spec, local);
      fl::RunOptions run;
      run.rounds = scale.rounds;
      run.sample_ratio = sample_ratio;
      run.eval_every = 2;
      const fl::RunResult result = fl::run_federated(federation, *algorithm, run);

      fig5.row()
          .cell(arch)
          .cell(algorithm_label(name))
          .cell(utils::format_percent(result.convergence_accuracy()))
          .cell(utils::format_percent(result.best_accuracy))
          .cell(static_cast<std::int64_t>(result.convergence_round()));

      const auto rounds = result.rounds_to_accuracy(target);
      fig6.row()
          .cell(arch)
          .cell(algorithm_label(name))
          .cell(utils::format_percent(target, 0))
          .cell(rounds ? std::to_string(*rounds)
                       : std::string(">").append(std::to_string(scale.rounds)).append("*"));
    }
  }

  emit("Figure 5: convergence accuracy (higher is better)", fig5,
       csv_dir.empty() ? "" : csv_dir + "/fig5_convergence_accuracy.csv");
  emit("Figure 6: communication rounds to reach target accuracy (lower is better; "
       "'*' = target not reached within the round budget)",
       fig6, csv_dir.empty() ? "" : csv_dir + "/fig6_rounds_to_target.csv");
  return 0;
}
