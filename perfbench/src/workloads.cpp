#include "workloads.hpp"

#include <stdexcept>

#include "experiment/paper_config.hpp"
#include "sim/checkpoint.hpp"

namespace perfbench {
namespace {

namespace policy = ecdra::policy;

policy::ScenarioSpec PaperPair(const std::string& heuristic,
                               const std::string& variant) {
  policy::ScenarioSpec spec = ecdra::experiment::PaperScenario();
  spec.grid.heuristics = {heuristic};
  spec.grid.filter_variants = {variant};
  spec.grid.batch_heuristics.clear();
  return spec;
}

// The service mix as spec lines over the paper scenario. The numbers are
// anchored to the paper environment at seed 14 (zeta_max = 8.358e7 J over a
// 32000 s nominal horizon, t_avg = 1127 s):
//  * energy_rate 2300 J/s is 0.88x the 2612 J/s sustaining rate, so the
//    closed-loop governor has to stretch the account;
//  * with that rate, the job shapes and deadline scale 2 keep about 77% of
//    jobs on time, so gangs are placed and released instead of being
//    abandoned wholesale;
//  * one outage per domain (node) per 32000 s window, repaired in 4000 s,
//    with stranded work requeued through the scheduler;
//  * energy_price bills about half a value unit per average task and late
//    revenue decays over 2 t_avg.
// It avoids race-to-idle, deadline-aware, profit-guard, migrate, and the
// rho / value-density admission policies.
constexpr const char* kServiceLines =
    "run.mode = stream\n"
    "stream.energy_rate = 2300\n"
    "stream.admission = none\n"
    "run.governor = budget-feedback\n"
    "env.workload.jobs.enabled = true\n"
    "env.workload.jobs.widths = 1@0.8,2@0.15,4@0.05\n"
    "env.workload.jobs.depths = 1@0.7,2@0.3\n"
    "env.workload.jobs.deadline_scale = 2\n"
    "run.jobs.placement = pack\n"
    "run.fault.domain_mtbf = 32000\n"
    "run.fault.domain_repair_time = 4000\n"
    "run.recovery = requeue\n"
    "run.econ.enabled = true\n"
    "env.econ.values = 1\n"
    "run.econ.energy_price = 6e-06\n"
    "run.econ.value_decay = 2250\n"
    "grid.heuristics = LL\n"
    "grid.filter_variants = en+rob\n";

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames{
      "paper-ll-robust", "paper-mect-energy", "service-jobs-faults"};
  return kNames;
}

Workload MakeWorkload(std::string_view name) {
  if (name == "paper-ll-robust") {
    return Workload{.name = std::string(name),
                    .spec = PaperPair("LL", "en+rob"),
                    .trials = 20,
                    .sweep_trials = 10,
                    .min_passes = 2,
                    .golden = true,
                    .io = false};
  }
  if (name == "paper-mect-energy") {
    return Workload{.name = std::string(name),
                    .spec = PaperPair("MECT", "en"),
                    .trials = 100,
                    .sweep_trials = 100,
                    .min_passes = 1,
                    .golden = true,
                    .io = false};
  }
  if (name == "service-jobs-faults") {
    // The parser lets the last line for a key win, so the service lines
    // appended to the paper scenario's canonical text override it.
    const std::string text =
        policy::CanonicalSpecText(ecdra::experiment::PaperScenario()) +
        kServiceLines;
    return Workload{.name = std::string(name),
                    .spec = policy::ParseScenarioSpec(text),
                    .trials = 60,
                    .sweep_trials = 20,
                    .min_passes = 1,
                    .golden = false,
                    .io = true};
  }
  std::string known;
  for (const std::string& candidate : WorkloadNames()) {
    known += (known.empty() ? "" : ", ") + candidate;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) +
                              "' (known: " + known + ")");
}

std::string ResultDigest(ecdra::sim::TrialResult result) {
  result.counters = {};
  return ecdra::sim::TrialResultToJson(result);
}

double SustainingRate(const ecdra::sim::ExperimentSetup& setup) {
  double horizon = 0.0;
  for (const auto& phase : setup.workload.arrivals.phases) {
    horizon += static_cast<double>(phase.num_tasks) / phase.rate;
  }
  return setup.energy_budget / horizon;
}

}  // namespace perfbench
