// Ablation: correlated domain-outage rate x recovery policy. The fault-rate
// ablation kills independent cores; this harness takes out whole fault
// domains (default grouping: one domain per node, so each outage removes
// every core of a node at once) and repairs them, sweeping the per-domain
// MTBF from infinity (the paper's fault-free setting) down to a few outages
// per domain per window, under both recovery policies.
//
// The energy budget is relaxed to 3x the paper's zeta_max for the same
// reason as the fault-rate ablation: under the tight budget a dark domain
// stops drawing idle power and the budget stretch masks the capacity loss.
//
// Expected shape: on-time completions fall as the domain MTBF drops, and
// requeue >= drop — drop forfeits every task stranded on a dark domain,
// requeue re-enters them through normal mapping. The acceptance gate (exit
// 1 on regression) enforces that ordering on mean on-time completions at
// the highest outage rate.
//
// Usage: ./ablation_fault_domains [num_trials | --smoke] [--json PATH]
//        (default 10 trials; --smoke = 2 trials, the CI configuration;
//        --json also writes an "ecdra-bench v1" report whose counters
//        carry the per-cell means)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "experiment/paper_config.hpp"
#include "fault/recovery.hpp"
#include "obs/json.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/table_writer.hpp"

namespace {

struct Cell {
  double domain_mtbf = 0.0;
  std::string recovery;
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

  sim::SetupOptions setup_options = experiment::PaperSetupOptions();
  setup_options.budget_task_count = 3000.0;  // see header comment
  const sim::ExperimentSetup setup =
      sim::BuildExperimentSetup(experiment::kPaperMasterSeed, setup_options);

  // MTBF = 0 disables domain faults (the paper's baseline, printed once).
  // The finite points run from rare (about one outage per domain per
  // window) to harsh (several, with a quarter of the window dark).
  const std::vector<double> domain_mtbfs{0.0, 6.4e4, 3.2e4, 1.6e4};
  const double harshest = domain_mtbfs.back();
  const double repair_time = 4000.0;
  const std::vector<fault::RecoveryPolicy> recoveries{
      fault::RecoveryPolicy::kDropQueued,
      fault::RecoveryPolicy::kRequeueToScheduler};

  std::cout << "== Ablation: domain-outage rate x recovery policy (LL "
            << "en+rob, " << num_trials << " trials; one domain per node, "
            << "repair time " << stats::Table::Num(repair_time, 0)
            << " s; 3x energy budget) ==\n\n";

  stats::Table table({"domain mtbf", "recovery", "mean on-time",
                      "mean missed", "mean outages", "mean lost",
                      "mean remapped"});
  std::vector<Cell> cells;
  double on_time_drop = 0.0;
  double on_time_requeue = 0.0;

  for (const double domain_mtbf : domain_mtbfs) {
    for (const fault::RecoveryPolicy recovery : recoveries) {
      // The fault-free baseline is policy-independent; print it once.
      if (domain_mtbf == 0.0 &&
          recovery != fault::RecoveryPolicy::kDropQueued) {
        continue;
      }
      sim::RunOptions run;
      run.num_trials = num_trials;
      run.fault.domain_mtbf = domain_mtbf;
      run.fault.domain_repair_time = domain_mtbf == 0.0 ? 0.0 : repair_time;
      run.recovery = recovery;
      const std::vector<sim::TrialResult> results =
          sim::RunTrials(setup, "LL", "en+rob", run);
      const sim::SummaryStatistics summary = sim::SummarizeTrials(results);

      table.AddRow({
          domain_mtbf == 0.0 ? "inf" : stats::Table::Num(domain_mtbf, 0),
          domain_mtbf == 0.0
              ? "-"
              : std::string(fault::RecoveryPolicyName(recovery)),
          stats::Table::Num(summary.mean_completed, 1),
          stats::Table::Num(summary.mean_missed, 1),
          stats::Table::Num(summary.mean_domain_outages, 1),
          stats::Table::Num(summary.mean_tasks_lost, 1),
          stats::Table::Num(summary.mean_remapped, 1),
      });
      cells.push_back(
          Cell{domain_mtbf,
               domain_mtbf == 0.0
                   ? "baseline"
                   : std::string(fault::RecoveryPolicyName(recovery)),
               summary});

      if (domain_mtbf == harshest) {
        if (recovery == fault::RecoveryPolicy::kDropQueued) {
          on_time_drop = summary.mean_completed;
        } else {
          on_time_requeue = summary.mean_completed;
        }
      }
    }
  }
  table.PrintText(std::cout);

  if (!json_path.empty()) {
    std::string out =
        "{\"schema\":\"ecdra-bench v1\",\"suite\":\"ablation_fault_domains\","
        "\"results\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      if (i != 0) out += ',';
      out += "{\"name\":\"domain_mtbf_" +
             (cell.domain_mtbf == 0.0 ? std::string("inf")
                                      : obs::json::Number(cell.domain_mtbf)) +
             "/" + cell.recovery + "\",\"iterations\":" +
             std::to_string(num_trials) + ",\"ns_per_op\":0,\"counters\":{" +
             "\"mean_on_time\":" +
             obs::json::Number(cell.summary.mean_completed) +
             ",\"mean_missed\":" + obs::json::Number(cell.summary.mean_missed) +
             ",\"mean_domain_outages\":" +
             obs::json::Number(cell.summary.mean_domain_outages) +
             ",\"mean_lost\":" +
             obs::json::Number(cell.summary.mean_tasks_lost) +
             ",\"mean_remapped\":" +
             obs::json::Number(cell.summary.mean_remapped) + "}}";
    }
    out += "]}\n";
    std::ofstream os(json_path, std::ios::trunc);
    os << out;
    os.flush();
    if (!os.good()) {
      std::cerr << "ablation_fault_domains: cannot write " << json_path
                << "\n";
      return 1;
    }
    std::cout << "\nbench report written to " << json_path << "\n";
  }

  std::cout << "\nacceptance: mean on-time completions at domain mtbf "
            << stats::Table::Num(harshest, 0)
            << " -- requeue = " << stats::Table::Num(on_time_requeue, 1)
            << ", drop = " << stats::Table::Num(on_time_drop, 1) << "\n";
  if (on_time_requeue < on_time_drop) {
    std::cout << "FAIL: recovery policies must order requeue >= drop on "
                 "on-time completions at the highest outage rate.\n";
    return 1;
  }
  std::cout << "OK: requeue >= drop on on-time completions under the "
               "harshest domain-outage rate.\n";
  return 0;
}
