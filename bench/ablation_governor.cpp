// Ablation: online energy governor x energy-budget tightness. The paper's
// energy constraint is enforced purely by the static fair-share filter; once
// the window is underway the run burns energy open-loop. The governor layer
// (src/governor) closes that loop, and this harness measures what each
// registered closed-loop controller buys as zeta_max shrinks: the full
// paper budget (x1), a tight one (x0.6), and a starvation budget (x0.3,
// the "tightest" point of the acceptance gate below).
//
// Every registered governor runs the same LL (en+rob) policy over common
// random numbers, so rows differ only by the control loop. Counters are
// collected for every series; the governor-action tallies (P-state caps,
// parked cores, fair-share allowance changes) are printed next to the
// schedule quality so an inert governor is visibly inert.
//
// Expected shape: "static" (open-loop paper baseline) bleeds on-time
// completions as the budget tightens — the budget exhausts mid-window and
// every later finish is over budget. "budget-feedback" (proportional
// controller on burn rate vs. the linear budget schedule) defers that
// exhaustion and must complete at least as many tasks on time as static at
// the tightest budget — the process exits 1 if that regresses. The same
// gate runs against the strongest baseline, static with idle cores
// power-gated ("--idle gated"), which beats budget-feedback at x1.0 and
// x0.6 and loses to it at x0.3.
//
// With econ off "profit-guard" never acts (it is static), so one econ-priced
// cell at the full budget follows: unit task values, an energy price of
// 2e-05 per joule and a 2250 s value decay, the regime where the bill
// outweighs the revenue (cf. Li et al., arXiv:1501.05414). There
// profit-guard must net at least as much as static and budget-feedback —
// the process exits 1 otherwise.
//
// Usage: ./ablation_governor [num_trials | --smoke]   (default 10 trials;
//        --smoke = 2 trials, the CI configuration)
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "experiment/figure_harness.hpp"
#include "experiment/paper_config.hpp"
#include "governor/governor.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/table_writer.hpp"

int main(int argc, char** argv) {
  using namespace ecdra;

  std::size_t num_trials = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      num_trials = 2;
    } else {
      num_trials = static_cast<std::size_t>(std::atoi(argv[i]));
    }
  }

  const std::vector<std::string> governors = governor::GovernorNames();
  const std::vector<double> budget_scales{1.0, 0.6, 0.3};
  const double tightest = budget_scales.back();

  std::cout << "== Ablation: energy governor x budget tightness (LL en+rob, "
            << num_trials << " trials) ==\n"
            << "governors: ";
  for (std::size_t i = 0; i < governors.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << governors[i];
  }
  std::cout << "\n\n";

  stats::Table table({"budget", "governor", "mean missed", "mean on-time",
                      "energy used", "P caps", "parks", "allowance", "invocations"});
  double static_on_time_at_tightest = 0.0;
  double feedback_on_time_at_tightest = 0.0;

  for (const double scale : budget_scales) {
    sim::SetupOptions setup_options = experiment::PaperSetupOptions();
    setup_options.budget_task_count *= scale;
    const sim::ExperimentSetup setup =
        sim::BuildExperimentSetup(experiment::kPaperMasterSeed, setup_options);

    std::vector<experiment::SeriesSpec> series;
    for (const std::string& name : governors) {
      series.push_back(experiment::SeriesSpec{
          .heuristic = "LL", .filter_variant = "en+rob", .label = name,
          .governor = name});
    }

    sim::RunOptions run;
    run.num_trials = num_trials;
    run.collect_counters = true;
    const experiment::FigureResult figure = experiment::RunFigure(
        setup, std::string("budget x").append(stats::Table::Num(scale, 1)),
        series, run);

    for (const experiment::SeriesResult& result : figure.series) {
      const obs::Counters& counters = result.summary.counters;
      table.AddRow({
          std::string("x").append(stats::Table::Num(scale, 1)),
          result.spec.label,
          stats::Table::Num(result.summary.mean_missed, 1),
          stats::Table::Num(result.summary.mean_completed, 1),
          stats::Table::Num(100.0 * result.mean_energy_fraction, 1) + "%",
          std::to_string(counters.governor_pstate_caps),
          std::to_string(counters.governor_cores_parked),
          std::to_string(counters.governor_allowance_changes),
          std::to_string(counters.governor_invocations),
      });
      if (scale == tightest && result.spec.governor == "static") {
        static_on_time_at_tightest = result.summary.mean_completed;
      }
      if (scale == tightest && result.spec.governor == "budget-feedback") {
        feedback_on_time_at_tightest = result.summary.mean_completed;
      }
    }
  }
  table.PrintText(std::cout);

  // The strongest baseline (see the header): idle cores power-gated.
  sim::SetupOptions tight_options = experiment::PaperSetupOptions();
  tight_options.budget_task_count *= tightest;
  const sim::ExperimentSetup tight_setup =
      sim::BuildExperimentSetup(experiment::kPaperMasterSeed, tight_options);
  sim::RunOptions gated_run;
  gated_run.num_trials = num_trials;
  gated_run.idle_policy = sim::IdlePolicy::kPowerGated;
  std::cout << "\ngated cell: budget x" << stats::Table::Num(tightest, 1)
            << ", idle cores power-gated\n";
  stats::Table gated_table({"governor", "mean missed", "mean on-time"});
  double gated_on_time[2] = {};  // static, budget-feedback
  for (const int i : {0, 1}) {
    gated_run.governor = i == 0 ? "static" : "budget-feedback";
    const sim::SummaryStatistics summary = sim::SummarizeTrials(
        sim::RunTrials(tight_setup, "LL", "en+rob", gated_run));
    gated_table.AddRow({gated_run.governor,
                        stats::Table::Num(summary.mean_missed, 1),
                        stats::Table::Num(summary.mean_completed, 1)});
    gated_on_time[i] = summary.mean_completed;
  }
  gated_table.PrintText(std::cout);

  sim::RunOptions econ_run;
  econ_run.num_trials = num_trials;
  econ_run.econ_enabled = true;
  econ_run.econ.type_values = {1.0};
  econ_run.econ.energy_price = 2e-05;
  econ_run.econ.value_decay = 2250.0;
  const sim::ExperimentSetup paper_setup = sim::BuildExperimentSetup(
      experiment::kPaperMasterSeed, experiment::PaperSetupOptions());
  std::cout << "\necon cell: budget x1.0, price "
            << stats::Table::Num(econ_run.econ.energy_price, 5)
            << " /J, value decay "
            << stats::Table::Num(econ_run.econ.value_decay, 0) << " s\n";
  stats::Table econ_table(
      {"governor", "net profit", "revenue", "energy cost", "mean on-time"});
  double guard_net = 0.0;
  double best_other_net = -std::numeric_limits<double>::infinity();
  for (const std::string& name : governors) {
    econ_run.governor = name;
    const sim::SummaryStatistics summary = sim::SummarizeTrials(
        sim::RunTrials(paper_setup, "LL", "en+rob", econ_run));
    econ_table.AddRow({name, stats::Table::Num(summary.mean_net_profit, 1),
                       stats::Table::Num(summary.mean_revenue, 1),
                       stats::Table::Num(summary.mean_energy_cost, 1),
                       stats::Table::Num(summary.mean_completed, 1)});
    if (name == "profit-guard") {
      guard_net = summary.mean_net_profit;
    } else {
      best_other_net = std::max(best_other_net, summary.mean_net_profit);
    }
  }
  econ_table.PrintText(std::cout);

  std::cout << "\nacceptance: budget-feedback mean on-time completions at the "
            << "tightest budget (x" << stats::Table::Num(tightest, 1)
            << ") = " << stats::Table::Num(feedback_on_time_at_tightest, 1)
            << ", static baseline = "
            << stats::Table::Num(static_on_time_at_tightest, 1) << "\n";
  if (feedback_on_time_at_tightest < static_on_time_at_tightest) {
    std::cout << "FAIL: the closed loop completes fewer tasks on time than "
                 "the open-loop baseline at the tightest budget.\n";
    return 1;
  }
  std::cout << "OK: the closed loop holds or beats the open-loop baseline "
               "under the tightest budget.\n";
  std::cout << "acceptance: with idle cores gated, budget-feedback mean "
            << "on-time completions at x" << stats::Table::Num(tightest, 1)
            << " = " << stats::Table::Num(gated_on_time[1], 1)
            << ", static baseline = " << stats::Table::Num(gated_on_time[0], 1)
            << "\n";
  if (gated_on_time[1] < gated_on_time[0]) {
    std::cout << "FAIL: the closed loop completes fewer tasks on time than "
                 "the gated open-loop baseline at the tightest budget.\n";
    return 1;
  }
  std::cout << "OK: the closed loop holds or beats the gated baseline under "
               "the tightest budget.\n";
  std::cout << "acceptance: profit-guard mean net profit in the econ cell = "
            << stats::Table::Num(guard_net, 1)
            << ", best other governor = "
            << stats::Table::Num(best_other_net, 1) << "\n";
  if (guard_net < best_other_net) {
    std::cout << "FAIL: profit-guard nets less than another governor when "
                 "energy is priced.\n";
    return 1;
  }
  std::cout << "OK: profit-guard nets the most when energy is priced.\n";
  return 0;
}
