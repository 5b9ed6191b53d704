// Ablation: streaming energy-rate tightness x governor x admission policy.
// The paper's regime hands the whole window one budget zeta_max up front;
// the streaming service mode (src/stream) replaces it with a replenishing
// account — energy_rate joules per second against a capped balance — and
// this harness measures how schedule quality degrades as the rate shrinks
// below the workload's sustaining draw, and what the closed-loop governor
// and the admission/backpressure stage each buy back.
//
// The rate grid is anchored to the paper's own constants: the nominal
// service horizon is the arrival spec's expected span (sum of
// phase.num_tasks / phase.rate), so scale 1.0 delivers exactly zeta_max
// over that horizon and smaller scales starve the account at the same
// shape the zeta_mul ablation starves the fixed budget. Every cell runs
// LL (en+rob) over common random numbers; cells differ only by the rate,
// the governor, and the admission policy.
//
// Expected shape: at generous rates all cells coincide (the account never
// binds). As the rate tightens, "static + none" spends its opening balance
// greedily and camps in emergency mode; "budget-feedback" paces the burn
// against the accrual line and "rho" admission sheds near-certain misses
// before they burn joules. Acceptance gates (exit 1 on regression): at the
// tightest rate, budget-feedback + rho must complete strictly more tasks
// on time per window than static + none; and in saturation (arrivals x8 at
// the sustaining rate) rho must complete at least as many tasks on time as
// none under each governor.
//
// Usage: ./ablation_energy_rate [num_trials | --smoke] [--json PATH]
//        (default 10 trials; --smoke = 2 trials, the CI configuration;
//        --json also writes an "ecdra-bench v1" report whose counters
//        carry the per-cell means)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "experiment/paper_config.hpp"
#include "obs/json.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/table_writer.hpp"

namespace {

struct Cell {
  double scale = 0.0;
  std::string governor;
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

  // Nominal horizon: the expected span of the arrival process (the paper's
  // burst-lull-burst instance: 200/ (1/8) + 600/(1/48) + 200/(1/8) = 32000).
  double horizon = 0.0;
  for (const workload::ArrivalPhase& phase : setup.workload.arrivals.phases) {
    horizon += static_cast<double>(phase.num_tasks) / phase.rate;
  }
  const double sustaining_rate = setup.energy_budget / horizon;

  const std::vector<double> rate_scales{1.0, 0.6, 0.35};
  const double tightest = rate_scales.back();
  const std::vector<std::string> governors{"static", "budget-feedback"};
  const std::vector<std::string> admissions{"none", "rho"};

  std::cout << "== Ablation: energy-rate tightness x governor x admission "
            << "(LL en+rob, " << num_trials << " trials) ==\n"
            << "nominal horizon " << stats::Table::Num(horizon, 0)
            << " s, sustaining rate "
            << stats::Table::Num(sustaining_rate, 1) << " J/s\n\n";

  stats::Table table({"rate", "governor", "admission", "mean missed",
                      "mean on-time", "deferred", "dropped", "released",
                      "emergency s"});
  std::vector<Cell> cells;
  double baseline_on_time_at_tightest = 0.0;
  double closed_loop_on_time_at_tightest = 0.0;

  for (const double scale : rate_scales) {
    for (const std::string& governor : governors) {
      for (const std::string& admission : admissions) {
        sim::RunOptions run;
        run.num_trials = num_trials;
        run.governor = governor;
        run.mode = policy::RunMode::kStream;
        run.stream.energy_rate = scale * sustaining_rate;
        run.stream.admission = admission;
        const std::vector<sim::TrialResult> results =
            sim::RunTrials(setup, "LL", "en+rob", run);
        const sim::SummaryStatistics summary = sim::SummarizeTrials(results);

        table.AddRow({
            std::string("x").append(stats::Table::Num(scale, 2)),
            governor,
            admission,
            stats::Table::Num(summary.mean_missed, 1),
            stats::Table::Num(summary.mean_completed, 1),
            stats::Table::Num(summary.mean_stream_deferred, 1),
            stats::Table::Num(summary.mean_stream_dropped, 1),
            stats::Table::Num(summary.mean_stream_released, 1),
            stats::Table::Num(summary.mean_emergency_seconds, 0),
        });
        cells.push_back(Cell{scale, governor, admission, summary});

        if (scale == tightest && governor == "static" && admission == "none") {
          baseline_on_time_at_tightest = summary.mean_completed;
        }
        if (scale == tightest && governor == "budget-feedback" &&
            admission == "rho") {
          closed_loop_on_time_at_tightest = summary.mean_completed;
        }
      }
    }
  }
  table.PrintText(std::cout);

  // Saturation (see the header): every arrival rate x8, sustaining rate.
  sim::SetupOptions saturated_options = experiment::PaperSetupOptions();
  for (workload::ArrivalPhase& phase :
       saturated_options.workload.arrivals.phases) {
    phase.rate *= 8.0;
  }
  const sim::ExperimentSetup saturated = sim::BuildExperimentSetup(
      experiment::kPaperMasterSeed, saturated_options);
  std::cout << "\nsaturation cell: arrivals x8, rate x1.00\n";
  stats::Table saturated_table(
      {"governor", "admission", "mean missed", "mean on-time", "dropped"});
  bool rho_holds = true;
  for (const std::string& governor : governors) {
    double on_time[2] = {};  // none, rho
    for (const int i : {0, 1}) {
      sim::RunOptions run;
      run.num_trials = num_trials;
      run.governor = governor;
      run.mode = policy::RunMode::kStream;
      run.stream.energy_rate = sustaining_rate;
      run.stream.admission = admissions[i];
      const sim::SummaryStatistics summary = sim::SummarizeTrials(
          sim::RunTrials(saturated, "LL", "en+rob", run));
      saturated_table.AddRow(
          {governor, admissions[i], stats::Table::Num(summary.mean_missed, 1),
           stats::Table::Num(summary.mean_completed, 1),
           stats::Table::Num(summary.mean_stream_dropped, 1)});
      on_time[i] = summary.mean_completed;
    }
    rho_holds = rho_holds && on_time[1] >= on_time[0];
  }
  saturated_table.PrintText(std::cout);

  if (!json_path.empty()) {
    std::string out =
        "{\"schema\":\"ecdra-bench v1\",\"suite\":\"ablation_energy_rate\","
        "\"results\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      if (i != 0) out += ',';
      out += "{\"name\":\"rate_x" + obs::json::Number(cell.scale) + "/" +
             cell.governor + "/" + cell.admission + "\",\"iterations\":" +
             std::to_string(num_trials) + ",\"ns_per_op\":0,\"counters\":{" +
             "\"mean_missed\":" + obs::json::Number(cell.summary.mean_missed) +
             ",\"mean_on_time\":" +
             obs::json::Number(cell.summary.mean_completed) +
             ",\"mean_deferred\":" +
             obs::json::Number(cell.summary.mean_stream_deferred) +
             ",\"mean_dropped\":" +
             obs::json::Number(cell.summary.mean_stream_dropped) +
             ",\"mean_released\":" +
             obs::json::Number(cell.summary.mean_stream_released) +
             ",\"mean_emergency_seconds\":" +
             obs::json::Number(cell.summary.mean_emergency_seconds) + "}}";
    }
    out += "]}\n";
    std::ofstream os(json_path, std::ios::trunc);
    os << out;
    os.flush();
    if (!os.good()) {
      std::cerr << "ablation_energy_rate: cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nbench report written to " << json_path << "\n";
  }

  std::cout << "\nacceptance: budget-feedback + rho mean on-time completions "
            << "at the tightest rate (x" << stats::Table::Num(tightest, 2)
            << ") = " << stats::Table::Num(closed_loop_on_time_at_tightest, 1)
            << ", static + none baseline = "
            << stats::Table::Num(baseline_on_time_at_tightest, 1) << "\n";
  if (closed_loop_on_time_at_tightest <= baseline_on_time_at_tightest) {
    std::cout << "FAIL: the closed loop with admission does not beat the "
                 "open-loop admit-everything baseline at the tightest rate.\n";
    return 1;
  }
  std::cout << "OK: budget feedback plus admission strictly beats the "
               "open-loop baseline under the tightest rate.\n";
  if (!rho_holds) {
    std::cout << "FAIL: in saturation rho admission completes fewer tasks on "
                 "time than none under some governor.\n";
    return 1;
  }
  std::cout << "OK: in saturation rho admission completes at least as many "
               "tasks on time as none under every governor.\n";
  return 0;
}
