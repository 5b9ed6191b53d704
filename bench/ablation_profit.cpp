// Ablation: value skew x heuristic x admission policy under a tight energy
// account, with the econ model (src/econ) attached — the profit-objective
// companion to ablation_energy_rate. Every task carries tier-scaled revenue
// and every joule a price; the harness measures which mapping heuristic and
// admission stage convert a starved energy account into net profit rather
// than raw on-time completions.
//
// Two value models share the same workload draws: "uniform" gives every
// task type the same unit value (profit then rewards pure throughput per
// joule) and "skewed" concentrates most of the offered value in one type in
// five (profit then rewards *selectivity* — spending the scarce joules on
// the tasks that pay). Cells differ only by the value model, the mapping
// heuristic, and the admission policy; the tight streaming rate, the SLA
// tier mix, and the filter chain (en+rob) are held fixed.
//
// Expected shape: at 0.35x the sustaining rate every stack operates at a
// loss (the account pays for far more energy than the few on-time finishes
// earn back), so the profit line measures who loses least. econ-greedy
// narrows the loss by buying rho where it pays, and value-density admission
// sheds never-profitable work before it burns anything. Acceptance gates
// (exit 1 on regression): under the skewed model at this tightest budget,
// econ-greedy + value-density must achieve a mean net profit >= every paper
// heuristic's best cell; and in saturation (arrivals x8 at the sustaining
// rate, energy priced at 2e-05 /J) econ-greedy + value-density must net at
// least as much as econ-greedy + none.
//
// Usage: ./ablation_profit [num_trials | --smoke] [--json PATH]
//        (default 10 trials; --smoke = 2 trials, the CI configuration;
//        --json also writes an "ecdra-bench v1" report whose counters
//        carry the per-cell means)
#include <cstdlib>
#include <fstream>
#include <limits>
#include <iostream>
#include <string>
#include <vector>

#include "econ/econ_model.hpp"
#include "experiment/paper_config.hpp"
#include "obs/json.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/table_writer.hpp"

namespace {

struct ValueModel {
  std::string name;
  std::vector<double> type_values;
};

struct Cell {
  std::string model;
  std::string heuristic;
  std::string admission;
  ecdra::sim::SummaryStatistics summary;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ecdra;

  std::size_t num_trials = 10;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      num_trials = 2;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      num_trials = static_cast<std::size_t>(std::atoi(argv[i]));
    }
  }

  const sim::ExperimentSetup setup = sim::BuildExperimentSetup(
      experiment::kPaperMasterSeed, experiment::PaperSetupOptions());

  // The tightest budget of the energy-rate ablation: 0.35x the sustaining
  // accrual over the nominal arrival horizon. Joules are scarce enough that
  // *which* tasks get them decides the profit line.
  double horizon = 0.0;
  for (const workload::ArrivalPhase& phase : setup.workload.arrivals.phases) {
    horizon += static_cast<double>(phase.num_tasks) / phase.rate;
  }
  const double sustaining_rate = setup.energy_budget / horizon;
  const double tight_scale = 0.35;

  // Price per joule anchored to the paper's own constants: an average task
  // draws about energy_budget / budget_task_count joules (t_avg * p_avg),
  // so this price bills roughly half a base value unit per average task —
  // profitable on the whole, marginal for the cheap-value tail.
  const double energy_price = 0.5 / (setup.energy_budget / 1000.0);

  econ::EconModel base_model;
  base_model.energy_price = energy_price;
  base_model.value_decay = 2.0 * setup.t_avg;
  base_model.tiers = {
      econ::SlaTier{"gold", 3.0, 2.0, 0.8, 0.2},
      econ::SlaTier{"silver", 1.5, 1.0, 0.5, 0.3},
      econ::SlaTier{"best-effort", 1.0, 1.0, 0.0, 0.5},
  };

  const std::vector<ValueModel> value_models{
      {"uniform", {1.0}},
      // One type in five carries 25x the value of the rest (cycled over the
      // 100 task types): ~84% of the offered value sits in 20% of the tasks.
      {"skewed", {0.2, 0.2, 0.2, 0.2, 5.0}},
  };
  const std::vector<std::string> heuristics{"SQ", "MECT", "LL", "Random",
                                            "econ-greedy"};
  const std::vector<std::string> admissions{"none", "value-density"};

  std::cout << "== Ablation: value skew x heuristic x admission "
            << "(en+rob, rate x" << stats::Table::Num(tight_scale, 2) << ", "
            << num_trials << " trials) ==\n"
            << "energy price " << stats::Table::Num(energy_price, 6)
            << " /J (avg task bills ~0.5 value units)\n\n";

  stats::Table table({"model", "heuristic", "admission", "net profit",
                      "revenue", "energy cost", "offered", "on-time",
                      "dropped"});
  std::vector<Cell> cells;
  double econ_greedy_net = -std::numeric_limits<double>::infinity();
  double best_paper_net = -std::numeric_limits<double>::infinity();
  std::string best_paper_cell;

  for (const ValueModel& model : value_models) {
    for (const std::string& heuristic : heuristics) {
      for (const std::string& admission : admissions) {
        sim::RunOptions run;
        run.num_trials = num_trials;
        run.mode = policy::RunMode::kStream;
        run.stream.energy_rate = tight_scale * sustaining_rate;
        run.stream.admission = admission;
        run.econ_enabled = true;
        run.econ = base_model;
        run.econ.type_values = model.type_values;
        const std::vector<sim::TrialResult> results =
            sim::RunTrials(setup, heuristic, "en+rob", run);
        const sim::SummaryStatistics summary = sim::SummarizeTrials(results);

        table.AddRow({
            model.name,
            heuristic,
            admission,
            stats::Table::Num(summary.mean_net_profit, 1),
            stats::Table::Num(summary.mean_revenue, 1),
            stats::Table::Num(summary.mean_energy_cost, 1),
            stats::Table::Num(summary.mean_value_offered, 1),
            stats::Table::Num(summary.mean_completed, 1),
            stats::Table::Num(summary.mean_stream_dropped, 1),
        });
        cells.push_back(Cell{model.name, heuristic, admission, summary});

        if (model.name == "skewed") {
          if (heuristic == "econ-greedy" && admission == "value-density") {
            econ_greedy_net = summary.mean_net_profit;
          }
          if (heuristic != "econ-greedy" &&
              summary.mean_net_profit > best_paper_net) {
            best_paper_net = summary.mean_net_profit;
            best_paper_cell = heuristic + " + " + admission;
          }
        }
      }
    }
  }
  table.PrintText(std::cout);

  if (!json_path.empty()) {
    std::string out =
        "{\"schema\":\"ecdra-bench v1\",\"suite\":\"ablation_profit\","
        "\"results\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      if (i != 0) out += ',';
      out += "{\"name\":\"" + cell.model + "/" + cell.heuristic + "/" +
             cell.admission + "\",\"iterations\":" +
             std::to_string(num_trials) + ",\"ns_per_op\":0,\"counters\":{" +
             "\"mean_net_profit\":" +
             obs::json::Number(cell.summary.mean_net_profit) +
             ",\"mean_revenue\":" +
             obs::json::Number(cell.summary.mean_revenue) +
             ",\"mean_energy_cost\":" +
             obs::json::Number(cell.summary.mean_energy_cost) +
             ",\"mean_value_offered\":" +
             obs::json::Number(cell.summary.mean_value_offered) +
             ",\"mean_on_time\":" +
             obs::json::Number(cell.summary.mean_completed) +
             ",\"mean_dropped\":" +
             obs::json::Number(cell.summary.mean_stream_dropped) + "}}";
    }
    out += "]}\n";
    std::ofstream os(json_path, std::ios::trunc);
    os << out;
    os.flush();
    if (!os.good()) {
      std::cerr << "ablation_profit: cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nbench report written to " << json_path << "\n";
  }

  // Saturation (see the header): every arrival rate x8, sustaining rate.
  sim::SetupOptions saturated_options = experiment::PaperSetupOptions();
  for (workload::ArrivalPhase& phase :
       saturated_options.workload.arrivals.phases) {
    phase.rate *= 8.0;
  }
  const sim::ExperimentSetup saturated = sim::BuildExperimentSetup(
      experiment::kPaperMasterSeed, saturated_options);
  std::cout << "\nsaturation cell: arrivals x8, rate x1.00, econ-greedy, "
               "unit values, price 0.00002 /J, value decay 2250 s\n";
  stats::Table saturated_table(
      {"admission", "net profit", "revenue", "energy cost", "on-time"});
  double saturated_net[2] = {};  // none, value-density
  for (const int i : {0, 1}) {
    sim::RunOptions run;
    run.num_trials = num_trials;
    run.mode = policy::RunMode::kStream;
    run.stream.energy_rate = sustaining_rate;
    run.stream.admission = admissions[i];
    run.econ_enabled = true;
    run.econ.type_values = {1.0};
    run.econ.energy_price = 2e-05;
    run.econ.value_decay = 2250.0;
    const sim::SummaryStatistics summary = sim::SummarizeTrials(
        sim::RunTrials(saturated, "econ-greedy", "en+rob", run));
    saturated_table.AddRow({admissions[i],
                            stats::Table::Num(summary.mean_net_profit, 1),
                            stats::Table::Num(summary.mean_revenue, 1),
                            stats::Table::Num(summary.mean_energy_cost, 1),
                            stats::Table::Num(summary.mean_completed, 1)});
    saturated_net[i] = summary.mean_net_profit;
  }
  saturated_table.PrintText(std::cout);

  std::cout << "\nacceptance: econ-greedy + value-density mean net profit "
            << "(skewed model) = " << stats::Table::Num(econ_greedy_net, 1)
            << ", best paper heuristic = "
            << stats::Table::Num(best_paper_net, 1) << " (" << best_paper_cell
            << ")\n";
  if (econ_greedy_net < best_paper_net) {
    std::cout << "FAIL: the profit-aware stack earns less than a "
                 "value-blind paper heuristic under the skewed model.\n";
    return 1;
  }
  std::cout << "OK: econ-greedy with value-density admission earns at least "
               "as much as every paper heuristic at the tightest budget.\n";
  std::cout << "acceptance: in saturation econ-greedy + value-density mean "
            << "net profit = " << stats::Table::Num(saturated_net[1], 1)
            << ", econ-greedy + none = "
            << stats::Table::Num(saturated_net[0], 1) << "\n";
  if (saturated_net[1] < saturated_net[0]) {
    std::cout << "FAIL: value-density admission nets less than "
                 "admit-everything in saturation.\n";
    return 1;
  }
  std::cout << "OK: value-density admission nets at least as much as "
               "admit-everything in saturation.\n";
  return 0;
}
