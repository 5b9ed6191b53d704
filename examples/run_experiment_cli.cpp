// Command-line experiment driver: run any (heuristic, filter variant)
// configuration with custom seed/trials/policies and emit either a summary
// table or per-trial CSV — the entry point for scripting sweeps outside the
// provided bench binaries.
//
// The CLI is a thin veneer over one declarative policy::ScenarioSpec: flags
// edit fields of the spec, --spec FILE loads a canonical spec as the
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
// Every flag value is validated up front: a bad spelling or number produces
// a one-line diagnostic naming the flag and the valid choices and exits
// with status 2 (trial failures exit with status 1).
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "batch/batch_heuristics.hpp"
#include "core/factory.hpp"
#include "core/gang_placement.hpp"
#include "econ/econ_model.hpp"
#include "experiment/paper_config.hpp"
#include "fault/recovery.hpp"
#include "governor/governor.hpp"
#include "policy/scenario_spec.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/summary.hpp"
#include "stream/admission.hpp"
#include "stats/table_writer.hpp"
#include "validate/validation.hpp"
#include "workload/workload_generator.hpp"

namespace {

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
     << "  --trials N         Monte-Carlo trials        (default 50)\n"
     << "  --seed S           master seed               (default paper's)\n"
     << "  --budget-scale X   scale zeta_max by X       (default 1.0)\n"
     << "  --idle POLICY      deepest | stay | gated    (default deepest)\n"
     << "  --cancel POLICY    never | hopeless          (default never)\n"
     << "  --rho-thresh P     robustness threshold      (default 0.5)\n"
     << "  --fault-mtbf T     mean time to permanent core failure\n"
     << "                     (simulated seconds; 0 = fault-free, default)\n"
     << "  --fault-duration T mean outage before a failed core is repaired\n"
     << "                     (0 = failures are permanent, default)\n"
     << "  --throttle-interval T / --throttle-duration T / --throttle-floor S\n"
     << "                     transient P-state throttling (0 = off)\n"
     << "  --domain-mtbf T    mean time to whole-domain outage (simulated\n"
     << "                     seconds; 0 = no domain faults, default)\n"
     << "  --domain-repair T  mean outage before a downed domain repairs\n"
     << "                     (0 = outages are permanent, default)\n"
     << "  --cascade-throttle propagate per-core throttles to every core in\n"
     << "                     the same fault domain\n"
     << "  --fault-domains S  correlated fault-domain layout, comma-separated\n"
     << "                     'name:lo-hi' flat-core ranges covering every\n"
     << "                     core (default: one domain per cluster node)\n"
     << "  --recovery POLICY  " << ecdra::fault::RecoveryPolicyNames()
     << "  (default drop)\n"
     << "  --governor NAME    online energy governor (registered: "
     << ecdra::governor::GovernorRegistry().JoinedNames() << ";\n"
     << "                     default static = the paper's open-loop run)\n"
     << "streaming service mode (rolling energy-rate budget; src/stream):\n"
     << "  --stream           run in streaming mode (requires --energy-rate\n"
     << "                     or a spec with stream.energy_rate > 0)\n"
     << "  --energy-rate R    joules per second accruing into the account\n"
     << "  --stream-window T  rolling metrics window, simulated seconds\n"
     << "                     (0 = derived from the environment, default)\n"
     << "  --accrual-cap J    account ceiling in joules (0 = derived)\n"
     << "  --admission NAME   admission policy (registered: "
     << ecdra::stream::AdmissionRegistry().JoinedNames() << ";\n"
     << "                     default none = admit everything)\n"
     << "  --degraded-enter F / --degraded-exit F\n"
     << "                     degraded-mode hysteresis on the fraction of\n"
     << "                     cores lost to faults, 0 <= exit < enter <= 1\n"
     << "                     (default 0.25 / 0.1)\n"
     << "  --degraded-rho-scale X\n"
     << "                     multiply rho admission thresholds by X while\n"
     << "                     degraded (>= 1; default 1.5)\n"
     << "gang jobs and precedence chains (src/workload/job.hpp):\n"
     << "  --jobs             generate map->reduce jobs instead of\n"
     << "                     independent tasks (stage widths/depths drawn\n"
     << "                     from the --job-widths / --job-depths mixes)\n"
     << "  --job-widths LIST  comma-separated width@probability classes,\n"
     << "                     e.g. 1@0.5,4@0.5 (default 1@1)\n"
     << "  --job-depths LIST  comma-separated depth@probability classes\n"
     << "                     (stages per job; default 1@1)\n"
     << "  --job-deadline-scale X\n"
     << "                     stretch job deadlines by X relative to the\n"
     << "                     equivalent independent-task deadline (>= 1;\n"
     << "                     default 1)\n"
     << "  --gang-policy NAME gang placement heuristic (registered: "
     << ecdra::core::GangPlacementRegistry().JoinedNames() << ";\n"
     << "                     default pack)\n"
     << "economics and SLA tiers (src/econ):\n"
     << "  --econ             attach the econ model: tasks carry value and\n"
     << "                     an SLA tier, trials meter revenue against the\n"
     << "                     energy bill (try heuristic econ-greedy,\n"
     << "                     filter ...+sla, admission value-density,\n"
     << "                     governor profit-guard)\n"
     << "  --econ-values LIST comma-separated per-type revenue values,\n"
     << "                     cycled over task types (e.g. 1,5,20;\n"
     << "                     default 1)\n"
     << "  --sla-tiers LIST   comma-separated name@vmult@smult@rhofloor@prob\n"
     << "                     tiers, e.g. gold@3@2@0.9@0.2,be@1@1@0@0.8\n"
     << "                     (default: one neutral tier)\n"
     << "  --energy-price X   price charged per joule drawn (default 0 =\n"
     << "                     free energy)\n"
     << "  --value-decay W    late finishes earn linearly decaying revenue\n"
     << "                     over W simulated seconds past the deadline\n"
     << "                     (default 0 = late earns nothing)\n"
     << "  --list-policies    print every registered heuristic, filter,\n"
     << "                     batch heuristic, governor, admission, gang\n"
     << "                     placement, and recovery policy, then exit\n"
     << "  --validate MODE    off | cheap | deep runtime invariant checks\n"
     << "                     (default off; violations are recorded, not\n"
     << "                     fatal)\n"
     << "output / crash-safe harness (not part of the spec):\n"
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

/// Strict numeric parsing: the whole value must be consumed, no locale, no
/// silent truncation — "10x", "", and "1e999" all fail with a diagnostic.
std::uint64_t ParseUint64(std::string_view flag, const std::string& value) {
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc() || ptr != value.data() + value.size() ||
      value.empty()) {
    Fail(std::string(flag) + ": '" + value +
         "' is not a non-negative integer");
  }
  return parsed;
}

double ParseDouble(std::string_view flag, const std::string& value) {
  double parsed = 0.0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc() || ptr != value.data() + value.size() ||
      value.empty()) {
    Fail(std::string(flag) + ": '" + value + "' is not a number");
  }
  return parsed;
}

double ParseNonNegative(std::string_view flag, const std::string& value) {
  const double parsed = ParseDouble(flag, value);
  if (parsed < 0.0) {
    Fail(std::string(flag) + ": '" + value + "' must be >= 0");
  }
  return parsed;
}

/// "value@probability,value@probability" -> shape classes, the CLI-side
/// mirror of the spec's env.workload.jobs.widths/.depths syntax. Values must
/// be >= 1 (a width-0 gang or depth-0 chain is meaningless); probabilities
/// must be > 0 — the generator normalizes them, so 1@3,4@1 reads "3:1 odds".
std::vector<ecdra::workload::ShapeClass> ParseShapeClasses(
    std::string_view flag, const std::string& value) {
  std::vector<ecdra::workload::ShapeClass> classes;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string token =
        value.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    const std::size_t at = token.find('@');
    if (at == std::string::npos) {
      Fail(std::string(flag) + ": '" + token +
           "' is not a value@probability class (e.g. 4@0.5)");
    }
    const std::uint64_t shape = ParseUint64(flag, token.substr(0, at));
    const double probability = ParseDouble(flag, token.substr(at + 1));
    if (shape == 0) Fail(std::string(flag) + ": shape values must be >= 1");
    if (probability <= 0.0) {
      Fail(std::string(flag) + ": class probabilities must be > 0");
    }
    classes.push_back(ecdra::workload::ShapeClass{
        static_cast<std::size_t>(shape), probability});
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (classes.empty()) Fail(std::string(flag) + ": empty class list");
  return classes;
}

/// "1,5,20" -> per-type value table (env.econ.values syntax). Values must
/// be >= 0; the model cycles the list over task types.
std::vector<double> ParseEconValues(std::string_view flag,
                                    const std::string& value) {
  std::vector<double> values;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string token =
        value.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    const double v = ParseDouble(flag, token);
    if (v < 0.0) Fail(std::string(flag) + ": values must be >= 0");
    values.push_back(v);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (values.empty()) Fail(std::string(flag) + ": empty value list");
  return values;
}

/// "gold@3@2@0.9@0.2,be@1@1@0@0.8" -> SLA tiers (env.econ.tiers syntax):
/// name @ value multiplier @ fair-share multiplier @ rho floor @ mix
/// probability. The generator normalizes probabilities.
std::vector<ecdra::econ::SlaTier> ParseSlaTiers(std::string_view flag,
                                                const std::string& value) {
  std::vector<ecdra::econ::SlaTier> tiers;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    std::string token =
        value.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    std::vector<std::string> parts;
    std::size_t part_start = 0;
    while (part_start <= token.size()) {
      const std::size_t at = token.find('@', part_start);
      parts.push_back(token.substr(
          part_start,
          at == std::string::npos ? std::string::npos : at - part_start));
      if (at == std::string::npos) break;
      part_start = at + 1;
    }
    if (parts.size() != 5 || parts[0].empty()) {
      Fail(std::string(flag) + ": '" + token +
           "' is not a name@vmult@smult@rhofloor@prob tier");
    }
    ecdra::econ::SlaTier tier;
    tier.name = parts[0];
    tier.value_multiplier = ParseDouble(flag, parts[1]);
    tier.share_multiplier = ParseDouble(flag, parts[2]);
    tier.rho_floor = ParseDouble(flag, parts[3]);
    tier.probability = ParseDouble(flag, parts[4]);
    if (tier.value_multiplier < 0.0 || tier.share_multiplier < 0.0) {
      Fail(std::string(flag) + ": tier multipliers must be >= 0");
    }
    if (tier.rho_floor < 0.0 || tier.rho_floor > 1.0) {
      Fail(std::string(flag) + ": rho floors must be in [0, 1]");
    }
    if (tier.probability <= 0.0) {
      Fail(std::string(flag) + ": tier probabilities must be > 0");
    }
    tiers.push_back(std::move(tier));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (tiers.empty()) Fail(std::string(flag) + ": empty tier list");
  return tiers;
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
        Fail("--heuristic: unknown heuristic '" + heuristic + "' (registered: " +
             core::HeuristicRegistry().JoinedNames() + ")");
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
    } else if (flag == "--trials") {
      spec.num_trials = static_cast<std::size_t>(ParseUint64(flag, next()));
      if (spec.num_trials == 0) Fail("--trials: must be >= 1");
    } else if (flag == "--seed") {
      spec.master_seed = ParseUint64(flag, next());
    } else if (flag == "--budget-scale") {
      budget_scale = ParseDouble(flag, next());
      if (budget_scale <= 0.0) Fail("--budget-scale: must be > 0");
    } else if (flag == "--idle") {
      const std::string value = next();
      const auto parsed = policy::ParseIdlePolicy(value);
      if (!parsed) {
        Fail("--idle: unknown policy '" + value +
             "' (valid: deepest, stay, gated)");
      }
      spec.idle_policy = *parsed;
    } else if (flag == "--cancel") {
      const std::string value = next();
      const auto parsed = policy::ParseCancelPolicy(value);
      if (!parsed) {
        Fail("--cancel: unknown policy '" + value +
             "' (valid: never, hopeless)");
      }
      spec.cancel_policy = *parsed;
    } else if (flag == "--rho-thresh") {
      spec.filter_options.robustness_threshold =
          ParseNonNegative(flag, next());
    } else if (flag == "--csv") {
      csv = true;
    } else if (flag == "--counters") {
      collect_counters = true;
    } else if (flag == "--trace-out") {
      trace_path = next();
      collect_counters = true;
    } else if (flag == "--fault-mtbf") {
      spec.fault.mtbf = ParseNonNegative(flag, next());
    } else if (flag == "--fault-duration") {
      spec.fault.repair_time = ParseNonNegative(flag, next());
    } else if (flag == "--throttle-interval") {
      spec.fault.throttle_interval = ParseNonNegative(flag, next());
    } else if (flag == "--throttle-duration") {
      spec.fault.throttle_duration = ParseNonNegative(flag, next());
    } else if (flag == "--throttle-floor") {
      spec.fault.throttle_floor =
          static_cast<std::size_t>(ParseUint64(flag, next()));
      if (spec.fault.throttle_floor >= cluster::kNumPStates) {
        Fail("--throttle-floor: must be < " +
             std::to_string(cluster::kNumPStates));
      }
    } else if (flag == "--domain-mtbf") {
      spec.fault.domain_mtbf = ParseNonNegative(flag, next());
    } else if (flag == "--domain-repair") {
      spec.fault.domain_repair_time = ParseNonNegative(flag, next());
    } else if (flag == "--cascade-throttle") {
      spec.fault.cascade_throttle = true;
    } else if (flag == "--fault-domains") {
      // Validated against the sampled cluster at trial setup
      // (fault::ResolveFaultDomains); the CLI only carries the text.
      spec.fault_domains = next();
    } else if (flag == "--recovery") {
      const std::string value = next();
      try {
        spec.recovery = fault::ParseRecoveryPolicy(value);
      } catch (const std::invalid_argument&) {
        Fail("--recovery: unknown policy '" + value + "' (valid: " +
             std::string(fault::RecoveryPolicyNames()) + ")");
      }
    } else if (flag == "--governor") {
      spec.governor = next();
      if (!governor::GovernorRegistry().Contains(spec.governor)) {
        Fail("--governor: unknown governor '" + spec.governor +
             "' (registered: " + governor::GovernorRegistry().JoinedNames() +
             ")");
      }
    } else if (flag == "--stream") {
      spec.mode = policy::RunMode::kStream;
    } else if (flag == "--energy-rate") {
      spec.stream.energy_rate = ParseNonNegative(flag, next());
      if (spec.stream.energy_rate == 0.0) {
        Fail("--energy-rate: must be > 0");
      }
    } else if (flag == "--stream-window") {
      spec.stream.window_length = ParseNonNegative(flag, next());
    } else if (flag == "--accrual-cap") {
      spec.stream.accrual_cap = ParseNonNegative(flag, next());
    } else if (flag == "--admission") {
      spec.stream.admission = next();
      if (!stream::AdmissionRegistry().Contains(spec.stream.admission)) {
        Fail("--admission: unknown policy '" + spec.stream.admission +
             "' (registered: " + stream::AdmissionRegistry().JoinedNames() +
             ")");
      }
    } else if (flag == "--degraded-enter") {
      spec.stream.degraded_enter_fraction = ParseNonNegative(flag, next());
    } else if (flag == "--degraded-exit") {
      spec.stream.degraded_exit_fraction = ParseNonNegative(flag, next());
    } else if (flag == "--degraded-rho-scale") {
      spec.stream.degraded_rho_scale = ParseNonNegative(flag, next());
      if (spec.stream.degraded_rho_scale < 1.0) {
        Fail("--degraded-rho-scale: must be >= 1");
      }
    } else if (flag == "--jobs") {
      spec.environment.workload.jobs.enabled = true;
    } else if (flag == "--job-widths") {
      spec.environment.workload.jobs.widths = ParseShapeClasses(flag, next());
    } else if (flag == "--job-depths") {
      spec.environment.workload.jobs.depths = ParseShapeClasses(flag, next());
    } else if (flag == "--job-deadline-scale") {
      spec.environment.workload.jobs.deadline_scale =
          ParseNonNegative(flag, next());
      if (spec.environment.workload.jobs.deadline_scale < 1.0) {
        Fail("--job-deadline-scale: must be >= 1");
      }
    } else if (flag == "--gang-policy") {
      spec.jobs_placement = next();
      if (!core::GangPlacementRegistry().Contains(spec.jobs_placement)) {
        Fail("--gang-policy: unknown placement '" + spec.jobs_placement +
             "' (registered: " +
             core::GangPlacementRegistry().JoinedNames() + ")");
      }
    } else if (flag == "--econ") {
      spec.econ_enabled = true;
      // A bare --econ should meter something: default every type to unit
      // value unless --econ-values overrides it.
      if (spec.econ.type_values.empty()) spec.econ.type_values = {1.0};
    } else if (flag == "--econ-values") {
      spec.econ.type_values = ParseEconValues(flag, next());
    } else if (flag == "--sla-tiers") {
      spec.econ.tiers = ParseSlaTiers(flag, next());
    } else if (flag == "--energy-price") {
      spec.econ.energy_price = ParseDouble(flag, next());
    } else if (flag == "--value-decay") {
      spec.econ.value_decay = ParseDouble(flag, next());
    } else if (flag == "--checkpoint") {
      checkpoint_path = next();
      if (checkpoint_path.empty()) Fail("--checkpoint: empty path");
    } else if (flag == "--resume") {
      resume = true;
    } else if (flag == "--resume-salvage") {
      resume = true;
      salvage = true;
    } else if (flag == "--trial-timeout") {
      trial_timeout = ParseNonNegative(flag, next());
    } else if (flag == "--max-retries") {
      max_attempts = 1 + static_cast<std::size_t>(ParseUint64(flag, next()));
    } else if (flag == "--validate") {
      const std::string value = next();
      const auto mode = validate::ParseValidationMode(value);
      if (!mode) {
        Fail("--validate: unknown mode '" + value +
             "' (valid: off, cheap, deep)");
      }
      spec.validation = *mode;
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
  // checks refuse it in one line (a stream block without --stream, a
  // negative econ knob), before a spec is printed or a trial runs.
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
    if (summary.mean_domain_outages > 0.0 || summary.mean_migrated > 0.0) {
      std::cout << "    domains: mean outages " << summary.mean_domain_outages
                << ", mean migrated " << summary.mean_migrated << " (on time "
                << summary.mean_migrated_on_time << ")\n";
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
    std::cout << "  jobs (placement=" << run.gang_placement
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
    std::cout << "  validation (" << validate::ValidationModeName(run.validation)
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
