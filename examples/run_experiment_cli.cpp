// Command-line experiment driver: run any (heuristic, filter variant)
// configuration with custom seed/trials/policies and emit either a summary
// table or per-trial CSV — the entry point for scripting sweeps outside the
// provided bench binaries.
//
// The CLI is a thin veneer over one declarative policy::ScenarioSpec: each
// spec flag sets one key through its knob-table row (policy::Knobs(), which
// also prints its --help), --spec FILE loads a canonical spec as the
// baseline, and --print-spec emits the effective spec (the exact text
// --spec accepts back) instead of running — so a flag soup can be frozen
// into a reproducible, diffable artifact. Policy names are validated
// against the live registries, so a heuristic or filter registered by a
// downstream user (see examples/custom_heuristic.cpp) works here by name
// with no CLI changes.
//
// Long runs are crash-safe: --checkpoint streams every completed trial to an
// append-only JSONL file, and --resume skips the trials already recorded
// there — the merged run is bit-identical to an uninterrupted one. See
// EXPERIMENTS.md, "Long runs: checkpoint, resume, watchdog".
//
// Every value is validated before anything runs: a bad spelling, number, or
// range produces a one-line diagnostic naming the flag (or spec key) and
// exits with status 2 (trial failures exit with status 1).
#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "batch/batch_heuristics.hpp"
#include "core/factory.hpp"
#include "core/gang_placement.hpp"
#include "experiment/paper_config.hpp"
#include "fault/recovery.hpp"
#include "governor/governor.hpp"
#include "policy/scenario_spec.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/summary.hpp"
#include "stats/table_writer.hpp"
#include "stream/admission.hpp"
#include "validate/validation.hpp"

namespace {

/// The registered names for a registry-named flag, listed by --help;
/// nullopt for any other. RunOptionsFromSpec refuses an unregistered name,
/// from a flag or a spec file alike.
std::optional<std::string> LookUpRegistry(std::string_view flag) {
  using namespace ecdra;
  if (flag == "--governor") return governor::GovernorRegistry().JoinedNames();
  if (flag == "--admission") return stream::AdmissionRegistry().JoinedNames();
  if (flag == "--gang-policy") {
    return core::GangPlacementRegistry().JoinedNames();
  }
  return std::nullopt;
}

/// A knob-table row's help: the flag, the spec key it sets with its default
/// (or the value a switch sets), then the row's help lines.
void PrintKnob(std::ostream& os, const ecdra::policy::Knob& knob,
               const ecdra::policy::ScenarioSpec& defaults) {
  const std::string indent(21, ' ');
  std::string head = std::string("  ").append(knob.flag);
  if (!knob.arg.empty()) head.append(" ").append(knob.arg);
  os << head
     << (head.size() < 21 ? std::string(21 - head.size(), ' ')
                          : std::string("\n") + indent);
  if (knob.switch_value.empty()) {
    const std::string value = knob.get(defaults);
    os << knob.key << " (default " << (value.empty() ? "empty" : value)
       << ")\n";
  } else {
    os << knob.key << " = " << knob.switch_value << "\n";
  }
  for (std::string_view help = knob.help; !help.empty();) {
    const std::size_t newline = help.find('\n');
    os << indent << help.substr(0, newline) << "\n";
    help.remove_prefix(newline == std::string_view::npos ? help.size()
                                                         : newline + 1);
  }
  if (const auto registered = LookUpRegistry(knob.flag)) {
    os << indent << "(registered: " << *registered << ")\n";
  }
}

void PrintUsage(std::ostream& os, const char* argv0) {
  using ecdra::core::FilterRegistry;
  using ecdra::core::HeuristicRegistry;
  os << "usage: " << argv0 << " [options]  (--flag value or --flag=value)\n"
     << "scenario (defaults = the paper's §VI study):\n"
     << "  --spec FILE        load a canonical ScenarioSpec as the baseline\n"
     << "                     (later flags override individual fields)\n"
     << "  --print-spec       print the effective spec and exit (the output\n"
     << "                     is exactly what --spec accepts back)\n"
     << "  --heuristic NAME   registered: " << HeuristicRegistry().JoinedNames()
     << "\n"
     << "                     (default LL)\n"
     << "  --variant NAME     none, or '+'-joined registered filters\n"
     << "                     (registered: " << FilterRegistry().JoinedNames()
     << "; default en+rob)\n"
     << "  --budget-scale X   scale zeta_max by X       (default 1.0)\n"
     << "  --list-policies    print every registered heuristic, filter,\n"
     << "                     batch heuristic, governor, admission, gang\n"
     << "                     placement, and recovery policy, then exit\n"
     << "spec knobs (each flag sets the spec key shown):\n";
  const ecdra::policy::ScenarioSpec defaults =
      ecdra::experiment::PaperScenario();
  for (const ecdra::policy::Knob& knob : ecdra::policy::Knobs()) {
    if (!knob.flag.empty()) PrintKnob(os, knob, defaults);
  }
  os << "output / crash-safe harness (not part of the spec):\n"
     << "  --csv              per-trial CSV instead of the summary table\n"
     << "  --counters         collect per-trial scheduler counters and\n"
     << "                     print the cross-trial aggregate\n"
     << "  --trace-out PATH   write a JSONL decision/energy trace (one\n"
     << "                     record per arrival; implies --counters)\n"
     << "  --checkpoint PATH  append each completed trial to a JSONL\n"
     << "                     checkpoint (header pins seed + config)\n"
     << "  --resume           skip trials already in the --checkpoint file;\n"
     << "                     the merged run is bit-identical to an\n"
     << "                     uninterrupted one (physical damage beyond a\n"
     << "                     torn tail line is refused)\n"
     << "  --resume-salvage   like --resume, but truncate the checkpoint to\n"
     << "                     its longest valid prefix first (CRC-verified),\n"
     << "                     reporting how many damaged records re-run\n"
     << "  --trial-timeout T  wall-clock watchdog per trial attempt, real\n"
     << "                     seconds (0 = off, default)\n"
     << "  --max-retries N    extra attempts after a failed/timed-out trial\n"
     << "                     (same substreams; default 0)\n";
}

/// One-line usage diagnostic -> stderr, exit 2 (trial failures use exit 1).
[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "run_experiment_cli: " << message << "\n";
  std::exit(2);
}

/// Strict numeric parsing for the flags outside the spec: the whole value
/// must be consumed, no locale, no silent truncation — "10x", "", and
/// "1e999" all fail with a diagnostic.
template <typename T>
T ParseNumber(std::string_view flag, const std::string& value) {
  T parsed{};
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc() || ptr != value.data() + value.size() ||
      value.empty()) {
    Fail(std::string(flag) + " '" + value + "': expected a number");
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ecdra;

  // Everything a flag can change about *what runs* lives in the spec; the
  // paper's scenario is the baseline. Output and harness mechanics (CSV,
  // counters, traces, checkpointing, watchdog/retries) stay outside it —
  // they cannot change what a trial computes.
  policy::ScenarioSpec spec = experiment::PaperScenario();
  std::string heuristic = "LL";
  std::string variant = "en+rob";
  double budget_scale = 1.0;
  bool csv = false;
  bool resume = false;
  bool salvage = false;
  bool print_spec = false;
  bool collect_counters = false;
  std::string trace_path;
  std::string checkpoint_path;
  double trial_timeout = 0.0;
  std::size_t max_attempts = 1;

  // Split "--flag=value" into a flag and an inline value; "--flag value"
  // consumes the next argument instead.
  const std::vector<std::string> args(argv + 1, argv + argc);
  const std::span<const policy::Knob> knobs = policy::Knobs();
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string flag = args[i];
    std::optional<std::string> inline_value;
    if (const std::size_t eq = flag.find('=');
        flag.rfind("--", 0) == 0 && eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag.resize(eq);
    }
    bool value_used = false;
    const auto next = [&]() -> std::string {
      value_used = true;
      if (inline_value) return *inline_value;
      if (i + 1 >= args.size()) Fail(flag + ": missing value");
      return args[++i];
    };

    if (flag == "--help" || flag == "-h") {
      PrintUsage(std::cout, argv[0]);
      return 0;
    } else if (flag == "--list-policies") {
      // Machine-friendly inventory of every policy registry — including
      // anything a downstream example registered before main() ran.
      std::cout << "heuristics: " << core::HeuristicRegistry().JoinedNames()
                << "\nfilters: " << core::FilterRegistry().JoinedNames()
                << "\nbatch-heuristics: "
                << batch::BatchHeuristicRegistry().JoinedNames()
                << "\ngovernors: "
                << governor::GovernorRegistry().JoinedNames()
                << "\nadmission: " << stream::AdmissionRegistry().JoinedNames()
                << "\ngang-placements: "
                << core::GangPlacementRegistry().JoinedNames()
                << "\nrecovery: " << fault::RecoveryPolicyNames() << "\n";
      return 0;
    } else if (flag == "--spec") {
      const std::string path = next();
      std::ifstream is(path);
      if (!is.good()) Fail("--spec: cannot read '" + path + "'");
      std::ostringstream text;
      text << is.rdbuf();
      try {
        spec = policy::ParseScenarioSpec(text.str());
      } catch (const std::invalid_argument& error) {
        Fail("--spec: " + path + ": " + error.what());
      }
    } else if (flag == "--print-spec") {
      print_spec = true;
    } else if (flag == "--heuristic") {
      heuristic = next();
      if (!core::HeuristicRegistry().Contains(heuristic)) {
        Fail("--heuristic: unknown heuristic '" + heuristic +
             "' (registered: " + core::HeuristicRegistry().JoinedNames() +
             ")");
      }
    } else if (flag == "--variant") {
      variant = next();
      // A variant is "none" or '+'-joined registered filter names; building
      // the chain is the validation (unknown names throw listing the keys).
      try {
        (void)core::MakeFilterChain(variant, spec.filter_options);
      } catch (const std::invalid_argument& error) {
        Fail("--variant: " + std::string(error.what()) +
             "; compose filters with '+', e.g. en+rob");
      }
    } else if (flag == "--budget-scale") {
      budget_scale = ParseNumber<double>(flag, next());
      if (!(budget_scale > 0.0)) Fail("--budget-scale: must be > 0");
    } else if (flag == "--csv") {
      csv = true;
    } else if (flag == "--counters") {
      collect_counters = true;
    } else if (flag == "--trace-out") {
      trace_path = next();
      collect_counters = true;
    } else if (flag == "--checkpoint") {
      checkpoint_path = next();
      if (checkpoint_path.empty()) Fail("--checkpoint: empty path");
    } else if (flag == "--resume") {
      resume = true;
    } else if (flag == "--resume-salvage") {
      resume = true;
      salvage = true;
    } else if (flag == "--trial-timeout") {
      trial_timeout = ParseNumber<double>(flag, next());
      if (!(trial_timeout >= 0.0)) Fail("--trial-timeout: must be >= 0");
    } else if (flag == "--max-retries") {
      max_attempts = 1 + ParseNumber<std::size_t>(flag, next());
    } else if (const auto knob = std::ranges::find(knobs, flag,
                                                   &policy::Knob::flag);
               knob != knobs.end()) {
      // Every other flag sets one spec key through its knob-table row;
      // ranges and policy names are checked once all flags are in
      // (RunOptionsFromSpec).
      const std::string value = knob->switch_value.empty()
                                    ? next()
                                    : std::string(knob->switch_value);
      try {
        knob->set(spec, value);
      } catch (const std::invalid_argument& error) {
        Fail(flag + " '" + value + "': " + error.what());
      }
      if (knob->on_switch != nullptr) knob->on_switch(spec);
    } else {
      std::cerr << "run_experiment_cli: unknown flag '" << args[i] << "'\n";
      PrintUsage(std::cerr, argv[0]);
      return 2;
    }
    if (inline_value && !value_used) {
      Fail(flag + ": does not take a value");
    }
  }
  if (resume && checkpoint_path.empty()) {
    Fail(std::string(salvage ? "--resume-salvage" : "--resume") +
         " requires --checkpoint PATH");
  }
  spec.environment.budget_task_count *= budget_scale;

  // Spec files and flags meet here: whichever set a knob, the runner's own
  // checks refuse it in one line (a value out of its range, a stream block
  // without --stream), before a spec is printed or a trial runs.
  sim::RunOptions run;
  try {
    run = sim::RunOptionsFromSpec(spec);
  } catch (const std::invalid_argument& error) {
    Fail(error.what());
  }

  if (print_spec) {
    std::cout << policy::CanonicalSpecText(spec);
    return 0;
  }

  const sim::ExperimentSetup setup = sim::BuildExperimentSetup(spec);
  run.collect_counters = collect_counters;
  run.trace_path = trace_path;
  run.checkpoint_path = checkpoint_path;
  run.trial_timeout = trial_timeout;
  run.max_attempts = max_attempts;

  std::optional<sim::CheckpointStore> store;
  if (resume) {
    try {
      // --resume tolerates exactly one kind of damage: a final line cut
      // mid-write by a crash is dropped and that trial re-runs. Anything
      // else (wrong schema, wrong config, CRC mismatch, malformed interior
      // record) refuses loudly. --resume-salvage additionally truncates the
      // file to its longest CRC-valid prefix and re-runs everything after
      // it — still refusing logical mismatches (wrong schema/seed/config).
      store = sim::CheckpointStore::Load(
          run.checkpoint_path,
          {.allow_partial_tail = true, .salvage = salvage});
      run.resume = &*store;
      if (store->dropped_records() > 0) {
        std::cerr << "note: salvage dropped " << store->dropped_records()
                  << (store->dropped_records() == 1
                          ? " damaged checkpoint record"
                          : " damaged checkpoint records")
                  << "; re-running from the last valid trial\n";
      } else if (!store->header_valid()) {
        std::cerr << "note: salvage found a damaged checkpoint header; "
                     "starting the checkpoint over\n";
      } else if (store->dropped_partial_tail()) {
        std::cerr << "note: dropped a checkpoint record cut mid-write; "
                     "re-running that trial\n";
      }
    } catch (const sim::CheckpointError& error) {
      std::cerr << "run_experiment_cli: cannot resume: " << error.what()
                << "\n";
      return 2;
    }
  }

  sim::SweepResult sweep;
  try {
    sweep = sim::RunSweep(setup, heuristic, variant, run);
  } catch (const sim::CheckpointError& error) {
    std::cerr << "run_experiment_cli: " << error.what() << "\n";
    return 2;
  }

  for (const sim::TrialFailure& failure : sweep.failures) {
    std::cerr << "trial failed: heuristic=" << failure.heuristic
              << " filter=" << failure.filter_variant
              << " trial=" << failure.trial_index << " after "
              << failure.attempts
              << (failure.attempts == 1 ? " attempt" : " attempts")
              << (failure.timed_out ? " (timed out)" : "") << ": "
              << failure.error << "\n";
  }

  if (csv) {
    stats::Table table({"trial", "missed", "completed", "discarded", "late",
                        "over_budget", "cancelled", "energy", "exhausted_at",
                        "makespan"});
    for (std::size_t i = 0; i < sweep.results.size(); ++i) {
      const sim::TrialResult& trial = sweep.results[i];
      table.AddRow({std::to_string(sweep.trial_indices[i]),
                    std::to_string(trial.missed_deadlines),
                    std::to_string(trial.completed),
                    std::to_string(trial.discarded),
                    std::to_string(trial.finished_late),
                    std::to_string(trial.on_time_but_over_budget),
                    std::to_string(trial.cancelled),
                    stats::Table::Num(trial.total_energy, 0),
                    trial.energy_exhausted_at
                        ? stats::Table::Num(*trial.energy_exhausted_at, 1)
                        : "-",
                    stats::Table::Num(trial.makespan, 1)});
    }
    table.PrintCsv(std::cout);
    return sweep.complete() ? 0 : 1;
  }

  std::vector<double> misses;
  misses.reserve(sweep.results.size());
  for (const sim::TrialResult& trial : sweep.results) {
    misses.push_back(static_cast<double>(trial.missed_deadlines));
  }
  std::cout << heuristic << " (" << variant << ")"
            << (run.governor != "static" ? " [" + run.governor + "]" : "")
            << ", seed " << spec.master_seed
            << ", " << run.num_trials << " trials, budget x" << budget_scale
            << ":\n";
  if (!misses.empty()) {
    std::cout << "  missed deadlines: " << stats::Summarize(misses) << "\n";
  } else {
    std::cout << "  no completed trials\n";
  }
  if (sweep.trials_resumed > 0 || sweep.trials_retried > 0 ||
      !sweep.failures.empty()) {
    std::cout << "  harness: " << sweep.trials_resumed << " resumed, "
              << sweep.trials_retried << " retried, " << sweep.failures.size()
              << " failed\n";
  }
  const sim::SummaryStatistics summary = sim::SummarizeSweep(sweep);
  if (run.fault.enabled() && !sweep.results.empty()) {
    std::cout << "  faults (recovery="
              << fault::RecoveryPolicyName(run.recovery) << "): mean failures "
              << summary.mean_failures << ", mean tasks lost "
              << summary.mean_tasks_lost << ", mean remapped "
              << summary.mean_remapped << " (on time "
              << summary.mean_remapped_on_time << ")\n";
    if (summary.mean_domain_outages > 0.0) {
      std::cout << "    domains: mean outages " << summary.mean_domain_outages
                << "\n";
    }
  }
  if (run.mode == policy::RunMode::kStream && !sweep.results.empty()) {
    std::cout << "  stream (admission=" << run.stream.admission
              << "): mean deferred " << summary.mean_stream_deferred
              << ", dropped " << summary.mean_stream_dropped << ", released "
              << summary.mean_stream_released << ", emergency "
              << summary.mean_emergency_seconds << " s\n";
  }
  if (summary.job_trials > 0) {
    std::cout << "  jobs (placement=" << run.jobs_placement
              << "): mean on time " << summary.mean_jobs_on_time
              << ", failed " << summary.mean_jobs_failed
              << ", gangs placed " << summary.mean_gangs_placed
              << ", waits " << summary.mean_gang_waits << " ("
              << summary.mean_gang_wait_seconds << " s)\n";
  }
  if (summary.econ_trials > 0) {
    std::cout << "  econ (price=" << run.econ.energy_price
              << "/J): mean revenue " << summary.mean_revenue
              << ", energy cost " << summary.mean_energy_cost
              << ", net profit " << summary.mean_net_profit
              << " (offered " << summary.mean_value_offered << ")\n";
  }
  if (run.validation != validate::ValidationMode::kOff) {
    std::cout << "  validation ("
              << validate::ValidationModeName(run.validation)
              << "): " << summary.validation_checks << " checks, "
              << summary.validation_violations << " violations\n";
  }
  if (run.collect_counters && !sweep.results.empty()) {
    std::cout << '\n' << summary << '\n';
  }
  if (!run.trace_path.empty()) {
    std::cout << "trace written to " << run.trace_path << "\n";
  }
  if (!run.checkpoint_path.empty()) {
    std::cout << "checkpoint written to " << run.checkpoint_path << "\n";
  }
  return sweep.complete() ? 0 : 1;
}
