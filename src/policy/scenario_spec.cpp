#include "policy/scenario_spec.hpp"

#include <charconv>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace ecdra::policy {

std::string_view IdlePolicyName(IdlePolicy policy) noexcept {
  switch (policy) {
    case IdlePolicy::kDeepestPState:
      return "deepest";
    case IdlePolicy::kStayAtLast:
      return "stay";
    case IdlePolicy::kPowerGated:
      return "gated";
  }
  return "deepest";
}

std::optional<IdlePolicy> ParseIdlePolicy(std::string_view name) noexcept {
  if (name == "deepest") return IdlePolicy::kDeepestPState;
  if (name == "stay") return IdlePolicy::kStayAtLast;
  if (name == "gated") return IdlePolicy::kPowerGated;
  return std::nullopt;
}

std::string_view CancelPolicyName(CancelPolicy policy) noexcept {
  switch (policy) {
    case CancelPolicy::kRunToCompletion:
      return "never";
    case CancelPolicy::kCancelHopelessQueued:
      return "hopeless";
  }
  return "never";
}

std::optional<CancelPolicy> ParseCancelPolicy(std::string_view name) noexcept {
  if (name == "never") return CancelPolicy::kRunToCompletion;
  if (name == "hopeless") return CancelPolicy::kCancelHopelessQueued;
  return std::nullopt;
}

std::uint64_t Fnv1a64(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Fnv1a64Hex(std::string_view text) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const std::uint64_t hash = Fnv1a64(text);
  std::string hex(16, '0');
  for (int i = 0; i < 16; ++i) {
    hex[i] = kDigits[(hash >> (60 - 4 * i)) & 0xF];
  }
  return hex;
}

namespace {

constexpr std::string_view kHeaderLine = "ecdra-scenario v1";
// v2: the run.governor line joined the result-shaping subset. Bumping the
// header changes every fingerprint, which is exactly right: a v1 checkpoint
// cannot attest what governor produced its trials.
// v3: run.mode and the stream.* block joined — a v2 checkpoint cannot
// attest whether its trials ran fixed-trace or streaming semantics.
// v4: the fault-domain block (run.fault.domain_*, run.fault.domains) and the
// degraded-mode knobs (stream.degraded_*) joined — a v3 checkpoint cannot
// attest whether correlated outages or degraded-mode tightening shaped its
// trials.
// v5: the job block (env.workload.jobs.*, run.jobs.placement) joined — a v4
// checkpoint cannot attest whether gang jobs and precedence chains shaped
// its trials, nor which gang-placement policy chose the core sets.
// v6: the econ block (env.econ.*, run.econ.*) joined — a v5 checkpoint
// cannot attest whether per-task value, SLA tiers, or the energy price
// shaped its trials.
constexpr std::string_view kFingerprintHeaderLine =
    "ecdra-scenario-fingerprint v6";

std::string_view LifetimeName(fault::LifetimeDistribution lifetime) noexcept {
  return lifetime == fault::LifetimeDistribution::kWeibull ? "weibull"
                                                           : "exponential";
}

std::string Num(double value) { return obs::json::Number(value); }

std::string ArrivalsValue(const workload::ArrivalSpec& arrivals) {
  std::string value;
  for (const workload::ArrivalPhase& phase : arrivals.phases) {
    if (!value.empty()) value += ",";
    value += std::to_string(phase.num_tasks) + "@" + Num(phase.rate);
  }
  return value;
}

std::string PrioritiesValue(
    const std::vector<workload::PriorityClass>& classes) {
  std::string value;
  for (const workload::PriorityClass& cls : classes) {
    if (!value.empty()) value += ",";
    value += Num(cls.weight) + "@" + Num(cls.probability);
  }
  return value;
}

std::string ShapesValue(const std::vector<workload::ShapeClass>& classes) {
  std::string value;
  for (const workload::ShapeClass& cls : classes) {
    if (!value.empty()) value += ",";
    value += std::to_string(cls.value) + "@" + Num(cls.probability);
  }
  return value;
}

std::string ValuesValue(const std::vector<double>& values) {
  std::string value;
  for (const double v : values) {
    if (!value.empty()) value += ",";
    value += Num(v);
  }
  return value;
}

std::string TiersValue(const std::vector<econ::SlaTier>& tiers) {
  std::string value;
  for (const econ::SlaTier& tier : tiers) {
    if (!value.empty()) value += ",";
    value += tier.name + "@" + Num(tier.value_multiplier) + "@" +
             Num(tier.share_multiplier) + "@" + Num(tier.rho_floor) + "@" +
             Num(tier.probability);
  }
  return value;
}

std::string NamesValue(const std::vector<std::string>& names) {
  std::string value;
  for (const std::string& name : names) {
    if (!value.empty()) value += ",";
    value += name;
  }
  return value;
}

/// One "key = value" line. The emission order below IS the canonical order;
/// both serializations (full and fingerprint) walk the same emitters.
void Emit(std::string& out, std::string_view key, std::string_view value) {
  out += key;
  out += " = ";
  out += value;
  out += '\n';
}

void EmitResultShapingLines(std::string& out, const ScenarioSpec& spec) {
  Emit(out, "seed", std::to_string(spec.master_seed));

  const cluster::ClusterBuilderOptions& cl = spec.environment.cluster;
  Emit(out, "env.cluster.num_nodes", std::to_string(cl.num_nodes));
  Emit(out, "env.cluster.min_processors", std::to_string(cl.min_processors));
  Emit(out, "env.cluster.max_processors", std::to_string(cl.max_processors));
  Emit(out, "env.cluster.min_cores_per_processor",
       std::to_string(cl.min_cores_per_processor));
  Emit(out, "env.cluster.max_cores_per_processor",
       std::to_string(cl.max_cores_per_processor));
  Emit(out, "env.cluster.min_power_efficiency", Num(cl.min_power_efficiency));
  Emit(out, "env.cluster.max_power_efficiency", Num(cl.max_power_efficiency));
  Emit(out, "env.cluster.min_step_gain", Num(cl.min_step_gain));
  Emit(out, "env.cluster.max_step_gain", Num(cl.max_step_gain));
  Emit(out, "env.cluster.min_frequency_fraction",
       Num(cl.min_frequency_fraction));
  Emit(out, "env.cluster.min_p0_power_watts", Num(cl.min_p0_power_watts));
  Emit(out, "env.cluster.max_p0_power_watts", Num(cl.max_p0_power_watts));
  Emit(out, "env.cluster.min_low_voltage", Num(cl.min_low_voltage));
  Emit(out, "env.cluster.max_low_voltage", Num(cl.max_low_voltage));
  Emit(out, "env.cluster.min_high_voltage", Num(cl.min_high_voltage));
  Emit(out, "env.cluster.max_high_voltage", Num(cl.max_high_voltage));

  // cvb.num_machines is deliberately absent: BuildExperimentSetup overrides
  // it to num_nodes, so it can never shape a result.
  const workload::CvbOptions& cvb = spec.environment.cvb;
  Emit(out, "env.cvb.num_task_types", std::to_string(cvb.num_task_types));
  Emit(out, "env.cvb.task_mean", Num(cvb.task_mean));
  Emit(out, "env.cvb.task_cov", Num(cvb.task_cov));
  Emit(out, "env.cvb.machine_cov", Num(cvb.machine_cov));

  const pmf::DiscretizeOptions& disc = spec.environment.discretize;
  Emit(out, "env.discretize.num_impulses", std::to_string(disc.num_impulses));
  Emit(out, "env.discretize.tail_clip", Num(disc.tail_clip));

  const workload::WorkloadGeneratorOptions& wl = spec.environment.workload;
  Emit(out, "env.workload.arrivals", ArrivalsValue(wl.arrivals));
  Emit(out, "env.workload.load_factor_scale", Num(wl.load_factor_scale));
  Emit(out, "env.workload.priorities", PrioritiesValue(wl.priority_classes));
  Emit(out, "env.workload.jobs.enabled", wl.jobs.enabled ? "true" : "false");
  Emit(out, "env.workload.jobs.widths", ShapesValue(wl.jobs.widths));
  Emit(out, "env.workload.jobs.depths", ShapesValue(wl.jobs.depths));
  Emit(out, "env.workload.jobs.deadline_scale", Num(wl.jobs.deadline_scale));

  Emit(out, "env.budget_task_count", Num(spec.environment.budget_task_count));
  Emit(out, "env.exec_cov", Num(spec.environment.exec_cov));

  Emit(out, "run.idle_policy", IdlePolicyName(spec.idle_policy));
  Emit(out, "run.cancel_policy", CancelPolicyName(spec.cancel_policy));
  Emit(out, "run.pstate_transition_latency",
       Num(spec.pstate_transition_latency));
  Emit(out, "run.power_cov", Num(spec.power_cov));
  Emit(out, "run.governor", spec.governor);

  const core::EnergyFilterOptions& en = spec.filter_options.energy;
  Emit(out, "run.filter.en.low_multiplier", Num(en.low_multiplier));
  Emit(out, "run.filter.en.mid_multiplier", Num(en.mid_multiplier));
  Emit(out, "run.filter.en.high_multiplier", Num(en.high_multiplier));
  Emit(out, "run.filter.en.low_depth", Num(en.low_depth));
  Emit(out, "run.filter.en.high_depth", Num(en.high_depth));
  Emit(out, "run.filter.en.scale_by_priority",
       en.scale_fair_share_by_priority ? "true" : "false");
  Emit(out, "run.filter.en.priority_baseline", Num(en.priority_baseline));
  Emit(out, "run.filter.rho_thresh",
       Num(spec.filter_options.robustness_threshold));

  const fault::FaultModelOptions& fault = spec.fault;
  Emit(out, "run.fault.mtbf", Num(fault.mtbf));
  Emit(out, "run.fault.lifetime", LifetimeName(fault.lifetime));
  Emit(out, "run.fault.weibull_shape", Num(fault.weibull_shape));
  Emit(out, "run.fault.repair_time", Num(fault.repair_time));
  Emit(out, "run.fault.throttle_interval", Num(fault.throttle_interval));
  Emit(out, "run.fault.throttle_duration", Num(fault.throttle_duration));
  Emit(out, "run.fault.throttle_floor",
       std::to_string(std::size_t{fault.throttle_floor}));
  Emit(out, "run.fault.horizon", Num(fault.horizon));
  Emit(out, "run.fault.domain_mtbf", Num(fault.domain_mtbf));
  Emit(out, "run.fault.domain_repair_time", Num(fault.domain_repair_time));
  Emit(out, "run.fault.cascade_throttle",
       fault.cascade_throttle ? "true" : "false");
  Emit(out, "run.fault.domains", spec.fault_domains);
  Emit(out, "run.recovery", fault::RecoveryPolicyName(spec.recovery));
  Emit(out, "run.jobs.placement", spec.jobs_placement);

  const StreamSpec& stream = spec.stream;
  Emit(out, "run.mode", RunModeName(spec.mode));
  Emit(out, "stream.energy_rate", Num(stream.energy_rate));
  Emit(out, "stream.accrual_cap", Num(stream.accrual_cap));
  Emit(out, "stream.initial_energy", Num(stream.initial_energy));
  Emit(out, "stream.window_length", Num(stream.window_length));
  Emit(out, "stream.emergency_enter", Num(stream.emergency_enter_fraction));
  Emit(out, "stream.emergency_exit", Num(stream.emergency_exit_fraction));
  Emit(out, "stream.admission", stream.admission);
  Emit(out, "stream.defer_rho", Num(stream.defer_rho));
  Emit(out, "stream.drop_rho", Num(stream.drop_rho));
  Emit(out, "stream.fairness_wait", Num(stream.fairness_wait));
  Emit(out, "stream.degraded_enter", Num(stream.degraded_enter_fraction));
  Emit(out, "stream.degraded_exit", Num(stream.degraded_exit_fraction));
  Emit(out, "stream.degraded_rho_scale", Num(stream.degraded_rho_scale));

  Emit(out, "env.econ.values", ValuesValue(spec.econ.type_values));
  Emit(out, "env.econ.tiers", TiersValue(spec.econ.tiers));
  Emit(out, "run.econ.enabled", spec.econ_enabled ? "true" : "false");
  Emit(out, "run.econ.energy_price", Num(spec.econ.energy_price));
  Emit(out, "run.econ.value_decay", Num(spec.econ.value_decay));
}

void EmitGridAndHarnessLines(std::string& out, const ScenarioSpec& spec) {
  Emit(out, "grid.heuristics", NamesValue(spec.grid.heuristics));
  Emit(out, "grid.filter_variants", NamesValue(spec.grid.filter_variants));
  Emit(out, "grid.batch_heuristics", NamesValue(spec.grid.batch_heuristics));
  Emit(out, "harness.trials", std::to_string(spec.num_trials));
  Emit(out, "harness.validation",
       validate::ValidationModeName(spec.validation));
}

[[noreturn]] void ParseFail(std::string_view line, const std::string& why) {
  throw std::invalid_argument("scenario spec: " + why + " in line '" +
                              std::string(line) + "'");
}

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

std::uint64_t ParseUint(std::string_view line, std::string_view value) {
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc() || ptr != value.data() + value.size() ||
      value.empty()) {
    ParseFail(line, "expected a non-negative integer");
  }
  return parsed;
}

double ParseNum(std::string_view line, std::string_view value) {
  const std::string copy(value);  // strtod needs a terminator
  char* end = nullptr;
  const double parsed = std::strtod(copy.c_str(), &end);
  if (copy.empty() || end != copy.c_str() + copy.size()) {
    ParseFail(line, "expected a number");
  }
  return parsed;
}

bool ParseBool(std::string_view line, std::string_view value) {
  if (value == "true") return true;
  if (value == "false") return false;
  ParseFail(line, "expected true or false");
}

/// Splits "a,b,c" into trimmed tokens; an empty value is an empty list.
std::vector<std::string_view> SplitList(std::string_view value) {
  std::vector<std::string_view> tokens;
  while (!value.empty()) {
    const std::size_t comma = value.find(',');
    tokens.push_back(Trim(value.substr(0, comma)));
    if (comma == std::string_view::npos) break;
    value.remove_prefix(comma + 1);
  }
  return tokens;
}

workload::ArrivalSpec ParseArrivals(std::string_view line,
                                    std::string_view value) {
  workload::ArrivalSpec arrivals;
  for (const std::string_view token : SplitList(value)) {
    const std::size_t at = token.find('@');
    if (at == std::string_view::npos) {
      ParseFail(line, "expected num_tasks@rate phases");
    }
    arrivals.phases.push_back(workload::ArrivalPhase{
        static_cast<std::size_t>(ParseUint(line, token.substr(0, at))),
        ParseNum(line, token.substr(at + 1))});
  }
  return arrivals;
}

std::vector<workload::PriorityClass> ParsePriorities(std::string_view line,
                                                     std::string_view value) {
  std::vector<workload::PriorityClass> classes;
  for (const std::string_view token : SplitList(value)) {
    const std::size_t at = token.find('@');
    if (at == std::string_view::npos) {
      ParseFail(line, "expected weight@probability classes");
    }
    classes.push_back(workload::PriorityClass{
        ParseNum(line, token.substr(0, at)),
        ParseNum(line, token.substr(at + 1))});
  }
  return classes;
}

std::vector<workload::ShapeClass> ParseShapes(std::string_view line,
                                              std::string_view value) {
  std::vector<workload::ShapeClass> classes;
  for (const std::string_view token : SplitList(value)) {
    const std::size_t at = token.find('@');
    if (at == std::string_view::npos) {
      ParseFail(line, "expected value@probability classes");
    }
    classes.push_back(workload::ShapeClass{
        static_cast<std::size_t>(ParseUint(line, token.substr(0, at))),
        ParseNum(line, token.substr(at + 1))});
  }
  return classes;
}

std::vector<double> ParseValues(std::string_view line, std::string_view value) {
  std::vector<double> values;
  for (const std::string_view token : SplitList(value)) {
    values.push_back(ParseNum(line, token));
  }
  return values;
}

std::vector<econ::SlaTier> ParseTiers(std::string_view line,
                                      std::string_view value) {
  std::vector<econ::SlaTier> tiers;
  for (std::string_view token : SplitList(value)) {
    econ::SlaTier tier;
    std::vector<std::string_view> parts;
    while (!token.empty()) {
      const std::size_t at = token.find('@');
      parts.push_back(token.substr(0, at));
      if (at == std::string_view::npos) break;
      token.remove_prefix(at + 1);
    }
    if (parts.size() != 5 || parts[0].empty()) {
      ParseFail(line, "expected name@vmult@smult@rhofloor@prob tiers");
    }
    tier.name = std::string(parts[0]);
    tier.value_multiplier = ParseNum(line, parts[1]);
    tier.share_multiplier = ParseNum(line, parts[2]);
    tier.rho_floor = ParseNum(line, parts[3]);
    tier.probability = ParseNum(line, parts[4]);
    tiers.push_back(std::move(tier));
  }
  return tiers;
}

std::vector<std::string> ParseNames(std::string_view value) {
  std::vector<std::string> names;
  for (const std::string_view token : SplitList(value)) {
    names.emplace_back(token);
  }
  return names;
}

}  // namespace

std::string CanonicalSpecText(const ScenarioSpec& spec) {
  std::string out;
  out.reserve(2048);
  out += kHeaderLine;
  out += '\n';
  EmitResultShapingLines(out, spec);
  EmitGridAndHarnessLines(out, spec);
  return out;
}

std::string FingerprintText(const ScenarioSpec& spec) {
  std::string out;
  out.reserve(2048);
  out += kFingerprintHeaderLine;
  out += '\n';
  EmitResultShapingLines(out, spec);
  return out;
}

std::string SpecFingerprint(const ScenarioSpec& spec) {
  return Fnv1a64Hex(FingerprintText(spec));
}

void RequireValidEcon(const econ::EconModel& econ) {
  const auto require_non_negative = [](std::string_view key,
                                       std::string_view flag, double value) {
    if (value >= 0.0) return;  // also refuses NaN
    std::ostringstream message;
    message << key << " (" << flag << ") must be >= 0, got " << value;
    throw std::invalid_argument(message.str());
  };
  require_non_negative("run.econ.energy_price", "--energy-price",
                       econ.energy_price);
  require_non_negative("run.econ.value_decay", "--value-decay",
                       econ.value_decay);
}

ScenarioSpec ParseScenarioSpec(std::string_view text) {
  ScenarioSpec spec;
  bool saw_header = false;

  while (!text.empty()) {
    const std::size_t newline = text.find('\n');
    const std::string_view raw_line = text.substr(0, newline);
    text.remove_prefix(newline == std::string_view::npos ? text.size()
                                                         : newline + 1);
    const std::string_view line = Trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    if (!saw_header) {
      if (line != kHeaderLine) {
        ParseFail(line, "expected header '" + std::string(kHeaderLine) + "'");
      }
      saw_header = true;
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) ParseFail(line, "expected 'key = value'");
    const std::string_view key = Trim(line.substr(0, eq));
    const std::string_view value = Trim(line.substr(eq + 1));

    cluster::ClusterBuilderOptions& cl = spec.environment.cluster;
    workload::CvbOptions& cvb = spec.environment.cvb;
    pmf::DiscretizeOptions& disc = spec.environment.discretize;
    workload::WorkloadGeneratorOptions& wl = spec.environment.workload;
    core::EnergyFilterOptions& en = spec.filter_options.energy;
    fault::FaultModelOptions& fault = spec.fault;

    if (key == "seed") {
      spec.master_seed = ParseUint(line, value);
    } else if (key == "env.cluster.num_nodes") {
      cl.num_nodes = ParseUint(line, value);
    } else if (key == "env.cluster.min_processors") {
      cl.min_processors = ParseUint(line, value);
    } else if (key == "env.cluster.max_processors") {
      cl.max_processors = ParseUint(line, value);
    } else if (key == "env.cluster.min_cores_per_processor") {
      cl.min_cores_per_processor = ParseUint(line, value);
    } else if (key == "env.cluster.max_cores_per_processor") {
      cl.max_cores_per_processor = ParseUint(line, value);
    } else if (key == "env.cluster.min_power_efficiency") {
      cl.min_power_efficiency = ParseNum(line, value);
    } else if (key == "env.cluster.max_power_efficiency") {
      cl.max_power_efficiency = ParseNum(line, value);
    } else if (key == "env.cluster.min_step_gain") {
      cl.min_step_gain = ParseNum(line, value);
    } else if (key == "env.cluster.max_step_gain") {
      cl.max_step_gain = ParseNum(line, value);
    } else if (key == "env.cluster.min_frequency_fraction") {
      cl.min_frequency_fraction = ParseNum(line, value);
    } else if (key == "env.cluster.min_p0_power_watts") {
      cl.min_p0_power_watts = ParseNum(line, value);
    } else if (key == "env.cluster.max_p0_power_watts") {
      cl.max_p0_power_watts = ParseNum(line, value);
    } else if (key == "env.cluster.min_low_voltage") {
      cl.min_low_voltage = ParseNum(line, value);
    } else if (key == "env.cluster.max_low_voltage") {
      cl.max_low_voltage = ParseNum(line, value);
    } else if (key == "env.cluster.min_high_voltage") {
      cl.min_high_voltage = ParseNum(line, value);
    } else if (key == "env.cluster.max_high_voltage") {
      cl.max_high_voltage = ParseNum(line, value);
    } else if (key == "env.cvb.num_task_types") {
      cvb.num_task_types = ParseUint(line, value);
    } else if (key == "env.cvb.task_mean") {
      cvb.task_mean = ParseNum(line, value);
    } else if (key == "env.cvb.task_cov") {
      cvb.task_cov = ParseNum(line, value);
    } else if (key == "env.cvb.machine_cov") {
      cvb.machine_cov = ParseNum(line, value);
    } else if (key == "env.discretize.num_impulses") {
      disc.num_impulses = ParseUint(line, value);
    } else if (key == "env.discretize.tail_clip") {
      disc.tail_clip = ParseNum(line, value);
    } else if (key == "env.workload.arrivals") {
      wl.arrivals = ParseArrivals(line, value);
    } else if (key == "env.workload.load_factor_scale") {
      wl.load_factor_scale = ParseNum(line, value);
    } else if (key == "env.workload.priorities") {
      wl.priority_classes = ParsePriorities(line, value);
    } else if (key == "env.workload.jobs.enabled") {
      wl.jobs.enabled = ParseBool(line, value);
    } else if (key == "env.workload.jobs.widths") {
      wl.jobs.widths = ParseShapes(line, value);
    } else if (key == "env.workload.jobs.depths") {
      wl.jobs.depths = ParseShapes(line, value);
    } else if (key == "env.workload.jobs.deadline_scale") {
      wl.jobs.deadline_scale = ParseNum(line, value);
    } else if (key == "env.budget_task_count") {
      spec.environment.budget_task_count = ParseNum(line, value);
    } else if (key == "env.exec_cov") {
      spec.environment.exec_cov = ParseNum(line, value);
    } else if (key == "run.idle_policy") {
      const auto policy = ParseIdlePolicy(value);
      if (!policy) ParseFail(line, "expected deepest, stay, or gated");
      spec.idle_policy = *policy;
    } else if (key == "run.cancel_policy") {
      const auto policy = ParseCancelPolicy(value);
      if (!policy) ParseFail(line, "expected never or hopeless");
      spec.cancel_policy = *policy;
    } else if (key == "run.pstate_transition_latency") {
      spec.pstate_transition_latency = ParseNum(line, value);
    } else if (key == "run.power_cov") {
      spec.power_cov = ParseNum(line, value);
    } else if (key == "run.governor") {
      // Any non-empty token parses; the registry rejects unknown names when
      // the trial is constructed (examples may register governors the spec
      // layer has never heard of).
      if (value.empty()) ParseFail(line, "expected a governor name");
      spec.governor = std::string(value);
    } else if (key == "run.filter.en.low_multiplier") {
      en.low_multiplier = ParseNum(line, value);
    } else if (key == "run.filter.en.mid_multiplier") {
      en.mid_multiplier = ParseNum(line, value);
    } else if (key == "run.filter.en.high_multiplier") {
      en.high_multiplier = ParseNum(line, value);
    } else if (key == "run.filter.en.low_depth") {
      en.low_depth = ParseNum(line, value);
    } else if (key == "run.filter.en.high_depth") {
      en.high_depth = ParseNum(line, value);
    } else if (key == "run.filter.en.scale_by_priority") {
      en.scale_fair_share_by_priority = ParseBool(line, value);
    } else if (key == "run.filter.en.priority_baseline") {
      en.priority_baseline = ParseNum(line, value);
    } else if (key == "run.filter.rho_thresh") {
      spec.filter_options.robustness_threshold = ParseNum(line, value);
    } else if (key == "run.fault.mtbf") {
      fault.mtbf = ParseNum(line, value);
    } else if (key == "run.fault.lifetime") {
      if (value == "exponential") {
        fault.lifetime = fault::LifetimeDistribution::kExponential;
      } else if (value == "weibull") {
        fault.lifetime = fault::LifetimeDistribution::kWeibull;
      } else {
        ParseFail(line, "expected exponential or weibull");
      }
    } else if (key == "run.fault.weibull_shape") {
      fault.weibull_shape = ParseNum(line, value);
    } else if (key == "run.fault.repair_time") {
      fault.repair_time = ParseNum(line, value);
    } else if (key == "run.fault.throttle_interval") {
      fault.throttle_interval = ParseNum(line, value);
    } else if (key == "run.fault.throttle_duration") {
      fault.throttle_duration = ParseNum(line, value);
    } else if (key == "run.fault.throttle_floor") {
      fault.throttle_floor =
          static_cast<cluster::PStateIndex>(ParseUint(line, value));
    } else if (key == "run.fault.horizon") {
      fault.horizon = ParseNum(line, value);
    } else if (key == "run.fault.domain_mtbf") {
      fault.domain_mtbf = ParseNum(line, value);
    } else if (key == "run.fault.domain_repair_time") {
      fault.domain_repair_time = ParseNum(line, value);
    } else if (key == "run.fault.cascade_throttle") {
      fault.cascade_throttle = ParseBool(line, value);
    } else if (key == "run.fault.domains") {
      // Any value parses (empty = the derived node-per-domain grouping);
      // fault::ResolveFaultDomains validates against the cluster at setup.
      spec.fault_domains = std::string(value);
    } else if (key == "run.recovery") {
      try {
        spec.recovery = fault::ParseRecoveryPolicy(value);
      } catch (const std::invalid_argument&) {
        ParseFail(line, "expected one of: " +
                            std::string(fault::RecoveryPolicyNames()));
      }
    } else if (key == "run.jobs.placement") {
      // Any non-empty token parses; the gang-placement registry rejects
      // unknown names at trial setup, like run.governor.
      if (value.empty()) ParseFail(line, "expected a gang-placement name");
      spec.jobs_placement = std::string(value);
    } else if (key == "run.mode") {
      // Batch mode is a stack, not a spec-selectable trial mode.
      if (value == "fixed") {
        spec.mode = RunMode::kFixedTrace;
      } else if (value == "stream") {
        spec.mode = RunMode::kStream;
      } else {
        ParseFail(line, "expected fixed or stream");
      }
    } else if (key == "stream.energy_rate") {
      spec.stream.energy_rate = ParseNum(line, value);
    } else if (key == "stream.accrual_cap") {
      spec.stream.accrual_cap = ParseNum(line, value);
    } else if (key == "stream.initial_energy") {
      spec.stream.initial_energy = ParseNum(line, value);
    } else if (key == "stream.window_length") {
      spec.stream.window_length = ParseNum(line, value);
    } else if (key == "stream.emergency_enter") {
      spec.stream.emergency_enter_fraction = ParseNum(line, value);
    } else if (key == "stream.emergency_exit") {
      spec.stream.emergency_exit_fraction = ParseNum(line, value);
    } else if (key == "stream.admission") {
      // Any non-empty token parses; the admission registry rejects unknown
      // names at trial setup, like run.governor.
      if (value.empty()) ParseFail(line, "expected an admission policy name");
      spec.stream.admission = std::string(value);
    } else if (key == "stream.defer_rho") {
      spec.stream.defer_rho = ParseNum(line, value);
    } else if (key == "stream.drop_rho") {
      spec.stream.drop_rho = ParseNum(line, value);
    } else if (key == "stream.fairness_wait") {
      spec.stream.fairness_wait = ParseNum(line, value);
    } else if (key == "stream.degraded_enter") {
      spec.stream.degraded_enter_fraction = ParseNum(line, value);
    } else if (key == "stream.degraded_exit") {
      spec.stream.degraded_exit_fraction = ParseNum(line, value);
    } else if (key == "stream.degraded_rho_scale") {
      spec.stream.degraded_rho_scale = ParseNum(line, value);
    } else if (key == "env.econ.values") {
      spec.econ.type_values = ParseValues(line, value);
    } else if (key == "env.econ.tiers") {
      spec.econ.tiers = ParseTiers(line, value);
    } else if (key == "run.econ.enabled") {
      spec.econ_enabled = ParseBool(line, value);
    } else if (key == "run.econ.energy_price") {
      spec.econ.energy_price = ParseNum(line, value);
    } else if (key == "run.econ.value_decay") {
      spec.econ.value_decay = ParseNum(line, value);
    } else if (key == "grid.heuristics") {
      spec.grid.heuristics = ParseNames(value);
    } else if (key == "grid.filter_variants") {
      spec.grid.filter_variants = ParseNames(value);
    } else if (key == "grid.batch_heuristics") {
      spec.grid.batch_heuristics = ParseNames(value);
    } else if (key == "harness.trials") {
      spec.num_trials = ParseUint(line, value);
    } else if (key == "harness.validation") {
      const auto mode = validate::ParseValidationMode(value);
      if (!mode) ParseFail(line, "expected off, cheap, or deep");
      spec.validation = *mode;
    } else {
      ParseFail(line, "unknown key '" + std::string(key) + "'");
    }
  }
  if (!saw_header) {
    throw std::invalid_argument("scenario spec: empty input (expected '" +
                                std::string(kHeaderLine) + "')");
  }
  return spec;
}

}  // namespace ecdra::policy
