// Table 2 reproduction: communication cost and accuracy at convergence.
//
// Columns mirror the paper: Method, Clients, Model, Sample Ratio, Converge
// Rounds, Round/Client, Total, Speedup, Converge Acc., ΔAcc (vs FedAvg in
// the same model/clients group).  Convergence detection follows the
// "no further improvement beyond tolerance" rule in fl::RunResult.

#include <cmath>
#include <map>

#include "bench_common.hpp"

namespace {

using namespace fedkemf;
using namespace fedkemf::bench;

struct Group {
  std::size_t clients;
  double sample_ratio;
};

}  // namespace

int main(int argc, char** argv) {
  std::string scale_name = "quick";
  double alpha = 0.1;
  std::size_t seed = 1;
  std::string csv_dir = "results";

  utils::Cli cli("bench_table2_comm_cost_convergence",
                 "Reproduces Table 2: communication cost at model convergence");
  cli.flag("scale", &scale_name, "quick | standard | full");
  cli.flag("alpha", &alpha, "Dirichlet concentration");
  cli.flag("seed", &seed, "experiment seed");
  cli.flag("csv-dir", &csv_dir, "directory for CSV dumps ('' = none)");
  cli.parse(argc, argv);

  const BenchScale scale = BenchScale::named(scale_name);
  const data::SyntheticSpec data = synth_cifar(scale);
  const fl::LocalTrainConfig local = default_local(scale);

  // Scaled stand-ins for the paper's (30, 0.4), (50, 0.7), (100, 0.5) groups.
  const std::vector<Group> groups = {{10, 0.5}, {14, 0.7}};
  const std::vector<std::string> algorithms = {"fedavg", "fednova", "fedprox", "scaffold",
                                               "fedkemf"};

  utils::Table table({"Method", "Clients", "Model", "Ratio", "Converge Rounds",
                      "Round/Client", "Total", "Speedup", "Converge Acc.", "dAcc"});

  std::map<std::string, double> fedavg_total;
  std::map<std::string, double> fedavg_acc;

  for (const std::string& name : algorithms) {
    for (const Group& group : groups) {
      for (const std::string& arch : {std::string("resnet20"), std::string("resnet32"),
                                      std::string("vgg11")}) {
        if (arch == "vgg11" && group.clients != groups.front().clients) continue;

        fl::FederationOptions fed_options;
        fed_options.data = data;
        fed_options.train_samples = scale.train_samples;
        fed_options.test_samples = scale.test_samples;
        fed_options.server_pool_samples = scale.server_pool;
        fed_options.num_clients = group.clients;
        fed_options.dirichlet_alpha = alpha;
        fed_options.seed = seed;
        fl::Federation federation(fed_options);

        const models::ModelSpec client_spec = model_spec(arch, data, scale.width_multiplier);
        const models::ModelSpec knowledge_spec =
            model_spec("resnet20", data, scale.width_multiplier);
        auto algorithm = make_algorithm(name, client_spec, knowledge_spec, local);

        fl::RunOptions run;
        run.rounds = scale.rounds;
        run.sample_ratio = group.sample_ratio;
        run.eval_every = 2;
        const fl::RunResult result = fl::run_federated(federation, *algorithm, run);

        const std::size_t converge_rounds = result.convergence_round();
        const double converge_acc = result.convergence_accuracy();
        const std::size_t per_round_client = full_width_round_bytes(arch, name);
        const std::size_t sampled = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::lround(group.sample_ratio *
                                                    static_cast<double>(group.clients))));
        const double total_bytes = static_cast<double>(converge_rounds) *
                                   static_cast<double>(per_round_client) *
                                   static_cast<double>(sampled);

        const std::string key = arch + "/" + std::to_string(group.clients);
        if (name == "fedavg") {
          fedavg_total[key] = total_bytes;
          fedavg_acc[key] = converge_acc;
        }
        const double base_total =
            fedavg_total.count(key) ? fedavg_total[key] : total_bytes;
        const double base_acc = fedavg_acc.count(key) ? fedavg_acc[key] : converge_acc;
        const double dacc = converge_acc - base_acc;

        table.row()
            .cell(algorithm_label(name))
            .cell(static_cast<std::int64_t>(group.clients))
            .cell(arch)
            .cell(group.sample_ratio, 1)
            .cell(static_cast<std::int64_t>(converge_rounds))
            .cell(utils::format_bytes(static_cast<double>(per_round_client)))
            .cell(utils::format_bytes(total_bytes))
            .cell(utils::format_speedup(base_total / total_bytes))
            .cell(utils::format_percent(converge_acc))
            .cell(std::string(dacc >= 0 ? "+" : "").append(utils::format_percent(dacc)));
      }
    }
  }

  emit("Table 2: communication cost and accuracy at convergence "
       "(byte columns at full model width)",
       table, csv_dir.empty() ? "" : csv_dir + "/table2_comm_cost_convergence.csv");
  return 0;
}
