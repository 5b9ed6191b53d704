// Ablation: job shape (gang width x chain depth) x gang placement. Each
// arrival event becomes a rigid job — depth-1 jobs are a single width-w
// gang, depth-2 jobs are a width-w map stage feeding a width-1 reduce —
// and the grid sweeps width {2, 4, 8} x depth {1, 2} under the registered
// gang placements: "pack" (all-or-nothing co-scheduling, members packed
// onto the fewest nodes) against "serial" (the no-gang ablation that feeds
// members through the per-task mapper one by one).
//
// The workload is shrunk to a 40/120/40 bursty window (200 jobs) so the
// wide shapes stay fast, and the energy budget scales with the actual task
// count (3x headroom) so capacity, not energy, is the binding constraint —
// the same masking argument as the fault ablations.
//
// Expected shape: per-job on-time completions fall as gangs get wider and
// deeper (a width-8 gang needs 8 simultaneously free cores; a chain pays
// both stages' queueing). The acceptance gate (exit 1 on regression)
// enforces that all-or-nothing placement is no worse than naive
// serialization on mean per-job on-time completions at the widest, deepest
// shape — the configuration where co-scheduling matters most.
//
// Usage: ./ablation_job_shapes [num_trials | --smoke] [--json PATH]
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
#include "workload/arrival_process.hpp"

namespace {

struct Cell {
  std::size_t width = 0;
  std::size_t depth = 0;
  std::string placement;
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

  const std::size_t num_jobs = 200;  // 40/120/40 bursty window
  const std::vector<std::size_t> widths{2, 4, 8};
  const std::vector<std::size_t> depths{1, 2};
  const std::vector<std::string> placements{"pack", "serial"};
  const double deadline_scale = 1.5;

  std::cout << "== Ablation: job shape (gang width x depth) x placement "
            << "(LL en+rob, " << num_trials << " trials; " << num_jobs
            << " jobs per trial, deadline scale "
            << stats::Table::Num(deadline_scale, 1)
            << "; 3x energy budget) ==\n\n";

  stats::Table table({"width", "depth", "placement", "mean jobs on-time",
                      "mean jobs failed", "mean gangs placed", "mean waits",
                      "mean wait s"});
  std::vector<Cell> cells;
  double widest_pack = 0.0;
  double widest_serial = 0.0;

  for (const std::size_t depth : depths) {
    for (const std::size_t width : widths) {
      // One setup per shape: the job mix lives in the environment, and the
      // energy budget tracks the real task count (map gangs plus the
      // reduce) with 3x headroom so energy never masks the placement.
      sim::SetupOptions setup_options = experiment::PaperSetupOptions();
      setup_options.workload.arrivals =
          workload::ArrivalSpec::PaperBursty(40, 120);
      setup_options.workload.jobs.enabled = true;
      setup_options.workload.jobs.widths = {{width, 1.0}};
      setup_options.workload.jobs.depths = {{depth, 1.0}};
      setup_options.workload.jobs.deadline_scale = deadline_scale;
      const std::size_t tasks_per_job = depth == 1 ? width : width + 1;
      setup_options.budget_task_count =
          3.0 * static_cast<double>(num_jobs * tasks_per_job);
      const sim::ExperimentSetup setup = sim::BuildExperimentSetup(
          experiment::kPaperMasterSeed, setup_options);

      for (const std::string& placement : placements) {
        sim::RunOptions run;
        run.num_trials = num_trials;
        run.jobs_placement = placement;
        const std::vector<sim::TrialResult> results =
            sim::RunTrials(setup, "LL", "en+rob", run);
        const sim::SummaryStatistics summary = sim::SummarizeTrials(results);

        table.AddRow({
            std::to_string(width),
            std::to_string(depth),
            placement,
            stats::Table::Num(summary.mean_jobs_on_time, 1),
            stats::Table::Num(summary.mean_jobs_failed, 1),
            stats::Table::Num(summary.mean_gangs_placed, 1),
            stats::Table::Num(summary.mean_gang_waits, 1),
            stats::Table::Num(summary.mean_gang_wait_seconds, 1),
        });
        cells.push_back(Cell{width, depth, placement, summary});

        if (width == widths.back() && depth == depths.back()) {
          (placement == "pack" ? widest_pack : widest_serial) =
              summary.mean_jobs_on_time;
        }
      }
    }
  }
  table.PrintText(std::cout);

  if (!json_path.empty()) {
    std::string out =
        "{\"schema\":\"ecdra-bench v1\",\"suite\":\"ablation_job_shapes\","
        "\"results\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      if (i != 0) out += ',';
      out += "{\"name\":\"width_" + std::to_string(cell.width) + "_depth_" +
             std::to_string(cell.depth) + "/" + cell.placement +
             "\",\"iterations\":" + std::to_string(num_trials) +
             ",\"ns_per_op\":0,\"counters\":{" + "\"mean_jobs_on_time\":" +
             obs::json::Number(cell.summary.mean_jobs_on_time) +
             ",\"mean_jobs_failed\":" +
             obs::json::Number(cell.summary.mean_jobs_failed) +
             ",\"mean_gangs_placed\":" +
             obs::json::Number(cell.summary.mean_gangs_placed) +
             ",\"mean_gang_waits\":" +
             obs::json::Number(cell.summary.mean_gang_waits) +
             ",\"mean_gang_wait_seconds\":" +
             obs::json::Number(cell.summary.mean_gang_wait_seconds) +
             ",\"mean_tasks_on_time\":" +
             obs::json::Number(cell.summary.mean_completed) + "}}";
    }
    out += "]}\n";
    std::ofstream os(json_path, std::ios::trunc);
    os << out;
    os.flush();
    if (!os.good()) {
      std::cerr << "ablation_job_shapes: cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nbench report written to " << json_path << "\n";
  }

  std::cout << "\nacceptance: mean per-job on-time at width "
            << widths.back() << " depth " << depths.back() << " -- pack = "
            << stats::Table::Num(widest_pack, 1)
            << ", serial = " << stats::Table::Num(widest_serial, 1) << "\n";
  if (widest_pack < widest_serial) {
    std::cout << "FAIL: all-or-nothing gang placement must be no worse than "
                 "naive serialization on per-job on-time completions at the "
                 "widest, deepest job shape.\n";
    return 1;
  }
  std::cout << "OK: gang-aware placement >= naive serialization on per-job "
               "on-time completions at the widest, deepest shape.\n";
  return 0;
}
