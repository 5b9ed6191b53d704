#include "policy/scenario_spec.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <concepts>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "obs/json.hpp"

namespace ecdra::policy {
namespace {

constexpr std::string_view kHeaderLine = "ecdra-scenario v1";
// Fingerprint versions: v2 added run.governor; v3 run.mode and stream.*;
// v4 the fault domains (run.fault.domain_*, run.fault.domains) and
// stream.degraded_*; v5 the job block (env.workload.jobs.*,
// run.jobs.placement); v6 the econ block (env.econ.*, run.econ.*). Each bump
// changes every fingerprint, which is exactly right: an older checkpoint
// cannot attest what the new keys did to its trials.
constexpr std::string_view kFingerprintHeaderLine =
    "ecdra-scenario-fingerprint v6";

/// Strips leading blanks and trailing blanks and carriage returns.
std::string_view Trim(std::string_view text) {
  const std::size_t last = text.find_last_not_of(" \t\r");
  if (last == std::string_view::npos) return {};
  text = text.substr(0, last + 1);
  return text.substr(text.find_first_not_of(" \t"));
}

// -- Value codecs, chosen by field type. Write gives the canonical text;
// Read parses it or throws std::invalid_argument saying what it expected.

std::string Write(double value) { return obs::json::Number(value); }
std::string Write(bool value) { return value ? "true" : "false"; }
std::string Write(const std::string& value) { return value; }
template <std::unsigned_integral T>
std::string Write(T value) {
  return std::to_string(value);
}

/// Strict: the whole value must parse, so "10x", "" and "1e999" fail.
template <typename T>
void ReadNumber(std::string_view text, T& out, const char* expected) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (text.empty() || ec != std::errc() || ptr != text.data() + text.size()) {
    throw std::invalid_argument(expected);
  }
}
void Read(std::string_view text, double& out) {
  ReadNumber(text, out, "expected a number");
}
template <std::unsigned_integral T>
void Read(std::string_view text, T& out) {
  std::uint64_t parsed = 0;
  ReadNumber(text, parsed, "expected a non-negative integer");
  out = static_cast<T>(parsed);
}
void Read(std::string_view text, bool& out) {
  if (text != "true" && text != "false") {
    throw std::invalid_argument("expected true or false");
  }
  out = text == "true";
}
void Read(std::string_view text, std::string& out) { out = text; }

/// The spec names of each spec-selectable enum.
template <typename E, std::size_t N>
using NameTable = std::array<std::pair<std::string_view, E>, N>;

template <typename E, typename... More>
NameTable<E, 1 + sizeof...(More)> Named(auto name, E first, More... more) {
  return {{{name(first), first}, {name(more), more}...}};
}
constexpr NameTable<IdlePolicy, 3> EnumNames(IdlePolicy) {
  return {{{"deepest", IdlePolicy::kDeepestPState},
           {"stay", IdlePolicy::kStayAtLast},
           {"gated", IdlePolicy::kPowerGated}}};
}
constexpr NameTable<CancelPolicy, 2> EnumNames(CancelPolicy) {
  return {{{"never", CancelPolicy::kRunToCompletion},
           {"hopeless", CancelPolicy::kCancelHopelessQueued}}};
}
constexpr NameTable<fault::LifetimeDistribution, 2> EnumNames(
    fault::LifetimeDistribution) {
  return {{{"exponential", fault::LifetimeDistribution::kExponential},
           {"weibull", fault::LifetimeDistribution::kWeibull}}};
}
auto EnumNames(fault::RecoveryPolicy) {
  using enum fault::RecoveryPolicy;
  return Named(fault::RecoveryPolicyName, kDropQueued, kRequeueToScheduler,
               kMigrateQueued);
}
// Batch mode is a stack, not a spec-selectable trial mode.
auto EnumNames(RunMode) {
  return Named(RunModeName, RunMode::kFixedTrace, RunMode::kStream);
}
auto EnumNames(validate::ValidationMode) {
  using enum validate::ValidationMode;
  return Named(validate::ValidationModeName, kOff, kCheap, kDeep);
}

template <typename E>
  requires std::is_enum_v<E>
std::string Write(E value) {
  for (const auto& [name, named] : EnumNames(value)) {
    if (named == value) return std::string(name);
  }
  return {};
}
template <typename E>
  requires std::is_enum_v<E>
void Read(std::string_view text, E& out) {
  std::string valid;
  for (const auto& [name, value] : EnumNames(out)) {
    if (name == text) {
      out = value;
      return;
    }
    valid += (valid.empty() ? "" : ", ") + std::string(name);
  }
  throw std::invalid_argument("unknown value (valid: " + valid + ")");
}

/// Splits an '@'-joined list element into exactly N parts.
template <std::size_t N>
std::array<std::string_view, N> Parts(std::string_view token,
                                      const char* expected) {
  std::array<std::string_view, N> parts;
  for (std::size_t i = 0; i < N; ++i) {
    const std::size_t at = token.find('@');
    if ((at == std::string_view::npos) != (i + 1 == N)) {
      throw std::invalid_argument(expected);
    }
    parts[i] = token.substr(0, at);
    token.remove_prefix(i + 1 == N ? token.size() : at + 1);
  }
  return parts;
}

std::string Write(const workload::ArrivalPhase& phase) {
  return Write(phase.num_tasks) + "@" + Write(phase.rate);
}
void Read(std::string_view text, workload::ArrivalPhase& phase) {
  const auto [tasks, rate] = Parts<2>(text, "expected num_tasks@rate phases");
  Read(tasks, phase.num_tasks);
  Read(rate, phase.rate);
}
std::string Write(const workload::PriorityClass& cls) {
  return Write(cls.weight) + "@" + Write(cls.probability);
}
void Read(std::string_view text, workload::PriorityClass& cls) {
  const auto [weight, probability] =
      Parts<2>(text, "expected weight@probability classes");
  Read(weight, cls.weight);
  Read(probability, cls.probability);
}
std::string Write(const workload::ShapeClass& cls) {
  return Write(cls.value) + "@" + Write(cls.probability);
}
void Read(std::string_view text, workload::ShapeClass& cls) {
  const auto [value, probability] =
      Parts<2>(text, "expected value@probability classes");
  Read(value, cls.value);
  Read(probability, cls.probability);
}
std::string Write(const econ::SlaTier& tier) {
  return tier.name + "@" + Write(tier.value_multiplier) + "@" +
         Write(tier.share_multiplier) + "@" + Write(tier.rho_floor) + "@" +
         Write(tier.probability);
}
void Read(std::string_view text, econ::SlaTier& tier) {
  constexpr const char* kExpected =
      "expected name@vmult@smult@rhofloor@prob tiers";
  const auto [name, vmult, smult, floor, probability] =
      Parts<5>(text, kExpected);
  if (name.empty()) throw std::invalid_argument(kExpected);
  tier.name = std::string(name);
  Read(vmult, tier.value_multiplier);
  Read(smult, tier.share_multiplier);
  Read(floor, tier.rho_floor);
  Read(probability, tier.probability);
}

/// Lists are comma-separated; an empty value is an empty list.
template <typename T>
std::string Write(const std::vector<T>& items) {
  std::string out;
  for (const T& item : items) {
    if (!out.empty()) out += ",";
    out += Write(item);
  }
  return out;
}
template <typename T>
void Read(std::string_view text, std::vector<T>& items) {
  items.clear();
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    Read(Trim(text.substr(0, comma)), items.emplace_back());
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
}

/// Registry-named knobs: any non-empty token parses; the registry rejects
/// unknown names at trial setup (examples may register policies the spec
/// layer has never heard of).
struct NonEmpty {
  static void Read(std::string_view text, std::string& out) {
    if (text.empty()) throw std::invalid_argument("expected a policy name");
    out = text;
  }
};

// -- Bounds: the range a knob's value must lie in, checked by
// RequireValidSpec. Comparisons are written so NaN fails them.

struct Unbounded {
  static constexpr std::string_view kText{};
  bool operator()(const auto&) const { return true; }
};
struct AtLeast0 {
  static constexpr std::string_view kText = "must be >= 0";
  bool operator()(double value) const { return value >= 0.0; }
};
struct AtLeast1 {
  static constexpr std::string_view kText = "must be >= 1";
  bool operator()(auto value) const { return value >= 1; }
};
struct PStateIndex {
  static_assert(cluster::kNumPStates == 5, "kText names the P-state count");
  static constexpr std::string_view kText = "must be < 5";
  bool operator()(std::size_t value) const {
    return value < cluster::kNumPStates;
  }
};
struct ValidShapes {
  static constexpr std::string_view kText =
      "must have values >= 1 and probabilities > 0";
  bool operator()(const std::vector<workload::ShapeClass>& classes) const {
    return std::ranges::all_of(classes, [](const workload::ShapeClass& cls) {
      return cls.value >= 1 && cls.probability > 0.0;
    });
  }
};
struct ValidValues {
  static constexpr std::string_view kText = "must have values >= 0";
  bool operator()(const std::vector<double>& values) const {
    return std::ranges::all_of(values, AtLeast0{});
  }
};
struct ValidTiers {
  static constexpr std::string_view kText =
      "must have multipliers >= 0, rho floors in [0, 1] and probabilities > 0";
  bool operator()(const std::vector<econ::SlaTier>& tiers) const {
    return std::ranges::all_of(tiers, [](const econ::SlaTier& tier) {
      return tier.value_multiplier >= 0.0 && tier.share_multiplier >= 0.0 &&
             tier.rho_floor >= 0.0 && tier.rho_floor <= 1.0 &&
             tier.probability > 0.0;
    });
  }
};

/// A row's command-line flag (see Knob).
struct Flag {
  constexpr Flag() = default;
  constexpr Flag(std::string_view flag, std::string_view placeholder,
                 std::string_view text)
      : name(flag), arg(placeholder), help(text) {}
  std::string_view name;
  std::string_view arg;
  std::string_view help;
  std::string_view sets;
  void (*also)(ScenarioSpec&) = nullptr;
};

/// A flag that takes no value: it sets `value` (and runs `also`).
constexpr Flag Switch(std::string_view name, std::string_view help,
                      std::string_view value,
                      void (*also)(ScenarioSpec&) = nullptr) {
  Flag flag(name, "", help);
  flag.sets = value;
  flag.also = also;
  return flag;
}

/// One table row. `Field` is a captureless lambda returning a reference into
/// the spec (FIELD); its type picks the codec unless `Codec` overrides it.
template <typename Bound = Unbounded, typename Codec = void, typename Field>
constexpr Knob Row(std::string_view key, Field, Flag flag = {}) {
  return Knob{
      .key = key,
      .flag = flag.name,
      .arg = flag.arg,
      .help = flag.help,
      .switch_value = flag.sets,
      .on_switch = flag.also,
      .shapes_results =
          !key.starts_with("grid.") && !key.starts_with("harness."),
      .get = [](const ScenarioSpec& spec) { return Write(Field{}(spec)); },
      .set =
          [](ScenarioSpec& spec, std::string_view value) {
            if constexpr (std::is_void_v<Codec>) {
              Read(value, Field{}(spec));
            } else {
              Codec::Read(value, Field{}(spec));
            }
          },
      .bound = Bound::kText,
      .in_bounds = [](const ScenarioSpec& spec) {
        return Bound{}(Field{}(spec));
      },
  };
}

// Field accessors for the rows: captureless lambdas, so Row can
// default-construct them.
#define FIELD(path) [](auto& spec) -> auto& { return spec.path; }
#define ENV(path) FIELD(environment.path)

// The table. Row order IS the canonical text order; the grid and harness
// rows come last, so the fingerprint is a prefix of the canonical text.
// cvb.num_machines is deliberately absent: BuildExperimentSetup overrides
// it to num_nodes, so it can never shape a result.
constexpr Knob kKnobs[] = {
    Row("seed", FIELD(master_seed), {"--seed", "S", "master seed"}),
    Row("env.cluster.num_nodes", ENV(cluster.num_nodes)),
    Row("env.cluster.min_processors", ENV(cluster.min_processors)),
    Row("env.cluster.max_processors", ENV(cluster.max_processors)),
    Row("env.cluster.min_cores_per_processor",
        ENV(cluster.min_cores_per_processor)),
    Row("env.cluster.max_cores_per_processor",
        ENV(cluster.max_cores_per_processor)),
    Row("env.cluster.min_power_efficiency", ENV(cluster.min_power_efficiency)),
    Row("env.cluster.max_power_efficiency", ENV(cluster.max_power_efficiency)),
    Row("env.cluster.min_step_gain", ENV(cluster.min_step_gain)),
    Row("env.cluster.max_step_gain", ENV(cluster.max_step_gain)),
    Row("env.cluster.min_frequency_fraction",
        ENV(cluster.min_frequency_fraction)),
    Row("env.cluster.min_p0_power_watts", ENV(cluster.min_p0_power_watts)),
    Row("env.cluster.max_p0_power_watts", ENV(cluster.max_p0_power_watts)),
    Row("env.cluster.min_low_voltage", ENV(cluster.min_low_voltage)),
    Row("env.cluster.max_low_voltage", ENV(cluster.max_low_voltage)),
    Row("env.cluster.min_high_voltage", ENV(cluster.min_high_voltage)),
    Row("env.cluster.max_high_voltage", ENV(cluster.max_high_voltage)),
    Row("env.cvb.num_task_types", ENV(cvb.num_task_types)),
    Row("env.cvb.task_mean", ENV(cvb.task_mean)),
    Row("env.cvb.task_cov", ENV(cvb.task_cov)),
    Row("env.cvb.machine_cov", ENV(cvb.machine_cov)),
    Row("env.discretize.num_impulses", ENV(discretize.num_impulses)),
    Row("env.discretize.tail_clip", ENV(discretize.tail_clip)),
    Row("env.workload.arrivals", ENV(workload.arrivals.phases)),
    Row("env.workload.load_factor_scale", ENV(workload.load_factor_scale)),
    Row("env.workload.priorities", ENV(workload.priority_classes)),
    Row("env.workload.jobs.enabled", ENV(workload.jobs.enabled),
        Switch("--jobs", "generate map->reduce gang jobs", "true")),
    Row<ValidShapes>("env.workload.jobs.widths", ENV(workload.jobs.widths),
                     {"--job-widths", "LIST", "width@probability classes"}),
    Row<ValidShapes>("env.workload.jobs.depths", ENV(workload.jobs.depths),
                     {"--job-depths", "LIST", "depth@probability classes"}),
    Row<AtLeast1>("env.workload.jobs.deadline_scale",
                  ENV(workload.jobs.deadline_scale),
                  {"--job-deadline-scale", "X",
                   "job deadline stretch over the equivalent\n"
                   "independent-task deadline"}),
    Row("env.budget_task_count", ENV(budget_task_count)),
    Row("env.exec_cov", ENV(exec_cov)),
    Row("run.idle_policy", FIELD(idle_policy),
        {"--idle", "POLICY", "deepest | stay | gated"}),
    Row("run.cancel_policy", FIELD(cancel_policy),
        {"--cancel", "POLICY", "never | hopeless"}),
    Row("run.pstate_transition_latency", FIELD(pstate_transition_latency)),
    Row("run.power_cov", FIELD(power_cov)),
    Row<Unbounded, NonEmpty>("run.governor", FIELD(governor),
                             {"--governor", "NAME", "online energy governor"}),
    Row("run.filter.en.low_multiplier",
        FIELD(filter_options.energy.low_multiplier)),
    Row("run.filter.en.mid_multiplier",
        FIELD(filter_options.energy.mid_multiplier)),
    Row("run.filter.en.high_multiplier",
        FIELD(filter_options.energy.high_multiplier)),
    Row("run.filter.en.low_depth", FIELD(filter_options.energy.low_depth)),
    Row("run.filter.en.high_depth", FIELD(filter_options.energy.high_depth)),
    Row("run.filter.en.scale_by_priority",
        FIELD(filter_options.energy.scale_fair_share_by_priority)),
    Row("run.filter.en.priority_baseline",
        FIELD(filter_options.energy.priority_baseline)),
    Row<AtLeast0>("run.filter.rho_thresh",
                  FIELD(filter_options.robustness_threshold),
                  {"--rho-thresh", "P", "robustness threshold"}),
    Row<AtLeast0>("run.fault.mtbf", FIELD(fault.mtbf),
                  {"--fault-mtbf", "T", "mean time to core failure (0 = off)"}),
    Row("run.fault.lifetime", FIELD(fault.lifetime)),
    Row("run.fault.weibull_shape", FIELD(fault.weibull_shape)),
    Row<AtLeast0>("run.fault.repair_time", FIELD(fault.repair_time),
                  {"--fault-duration", "T", "mean repair time (0 = never)"}),
    Row<AtLeast0>("run.fault.throttle_interval", FIELD(fault.throttle_interval),
                  {"--throttle-interval", "T", "mean time between throttles"}),
    Row<AtLeast0>("run.fault.throttle_duration", FIELD(fault.throttle_duration),
                  {"--throttle-duration", "T", "mean throttle length"}),
    Row<PStateIndex>("run.fault.throttle_floor", FIELD(fault.throttle_floor),
                     {"--throttle-floor", "S", "P-state a throttle forces"}),
    Row("run.fault.horizon", FIELD(fault.horizon)),
    Row<AtLeast0>("run.fault.domain_mtbf", FIELD(fault.domain_mtbf),
                  {"--domain-mtbf", "T", "mean time to a domain outage"}),
    Row<AtLeast0>("run.fault.domain_repair_time",
                  FIELD(fault.domain_repair_time),
                  {"--domain-repair", "T", "mean domain outage (0 = never)"}),
    Row("run.fault.cascade_throttle", FIELD(fault.cascade_throttle),
        Switch("--cascade-throttle", "throttles spread across a domain",
               "true")),
    Row("run.fault.domains", FIELD(fault_domains),
        {"--fault-domains", "S",
         "'name:lo-hi' flat-core ranges covering every\n"
         "core (empty: one domain per cluster node)"}),
    Row("run.recovery", FIELD(recovery),
        {"--recovery", "POLICY", "drop | requeue | migrate"}),
    Row<Unbounded, NonEmpty>("run.jobs.placement", FIELD(jobs_placement),
                             {"--gang-policy", "NAME", "gang placement"}),
    Row("run.mode", FIELD(mode),
        Switch("--stream", "streaming mode (needs stream.energy_rate > 0)",
               "stream")),
    Row<AtLeast0>("stream.energy_rate", FIELD(stream.energy_rate),
                  {"--energy-rate", "R", "joules per second into the account"}),
    Row<AtLeast0>("stream.accrual_cap", FIELD(stream.accrual_cap),
                  {"--accrual-cap", "J", "account ceiling (0 = derived)"}),
    Row("stream.initial_energy", FIELD(stream.initial_energy)),
    Row<AtLeast0>("stream.window_length", FIELD(stream.window_length),
                  {"--stream-window", "T", "metrics window (0 = derived)"}),
    Row("stream.emergency_enter", FIELD(stream.emergency_enter_fraction)),
    Row("stream.emergency_exit", FIELD(stream.emergency_exit_fraction)),
    Row<Unbounded, NonEmpty>("stream.admission", FIELD(stream.admission),
                             {"--admission", "NAME", "admission policy"}),
    Row("stream.defer_rho", FIELD(stream.defer_rho)),
    Row("stream.drop_rho", FIELD(stream.drop_rho)),
    Row("stream.fairness_wait", FIELD(stream.fairness_wait)),
    Row<AtLeast0>("stream.degraded_enter",
                  FIELD(stream.degraded_enter_fraction),
                  {"--degraded-enter", "F", "enter at this lost-core share"}),
    Row<AtLeast0>("stream.degraded_exit", FIELD(stream.degraded_exit_fraction),
                  {"--degraded-exit", "F", "leave at this lost-core share"}),
    Row<AtLeast1>("stream.degraded_rho_scale", FIELD(stream.degraded_rho_scale),
                  {"--degraded-rho-scale", "X", "rho threshold scale"}),
    Row<ValidValues>("env.econ.values", FIELD(econ.type_values),
                     {"--econ-values", "LIST", "per-type values, cycled"}),
    Row<ValidTiers>("env.econ.tiers", FIELD(econ.tiers),
                    {"--sla-tiers", "LIST",
                     "name@vmult@smult@rhofloor@prob tiers\n"
                     "(empty: one neutral tier)"}),
    Row("run.econ.enabled", FIELD(econ_enabled),
        Switch("--econ", "meter value (1 per task unless values are set)",
               "true",
               [](ScenarioSpec& spec) {
                 if (spec.econ.type_values.empty()) {
                   spec.econ.type_values = {1.0};
                 }
               })),
    Row<AtLeast0>("run.econ.energy_price", FIELD(econ.energy_price),
                  {"--energy-price", "X", "price per joule drawn"}),
    Row<AtLeast0>("run.econ.value_decay", FIELD(econ.value_decay),
                  {"--value-decay", "W", "late-revenue decay window"}),
    Row("grid.heuristics", FIELD(grid.heuristics)),
    Row("grid.filter_variants", FIELD(grid.filter_variants)),
    Row("grid.batch_heuristics", FIELD(grid.batch_heuristics)),
    Row<AtLeast1>("harness.trials", FIELD(num_trials),
                  {"--trials", "N", "Monte-Carlo trials"}),
    Row("harness.validation", FIELD(validation),
        {"--validate", "MODE", "off | cheap | deep invariant checks"}),
};

#undef ENV
#undef FIELD

void AppendLines(std::string& out, const ScenarioSpec& spec,
                 bool shaping_only) {
  for (const Knob& knob : kKnobs) {
    if (shaping_only && !knob.shapes_results) continue;
    out += knob.key;
    out += " = ";
    out += knob.get(spec);
    out += '\n';
  }
}

[[noreturn]] void ParseFail(std::string_view line, const std::string& why) {
  throw std::invalid_argument("scenario spec: " + why + " in line '" +
                              std::string(line) + "'");
}

}  // namespace

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

std::span<const Knob> Knobs() noexcept { return kKnobs; }

std::string CanonicalSpecText(const ScenarioSpec& spec) {
  std::string out(kHeaderLine);
  out += '\n';
  AppendLines(out, spec, /*shaping_only=*/false);
  return out;
}

std::string FingerprintText(const ScenarioSpec& spec) {
  std::string out(kFingerprintHeaderLine);
  out += '\n';
  AppendLines(out, spec, /*shaping_only=*/true);
  return out;
}

std::string SpecFingerprint(const ScenarioSpec& spec) {
  return Fnv1a64Hex(FingerprintText(spec));
}

void RequireValidSpec(const ScenarioSpec& spec) {
  for (const Knob& knob : kKnobs) {
    if (knob.in_bounds(spec)) continue;
    std::string message(knob.key);
    if (!knob.flag.empty()) message += " (" + std::string(knob.flag) + ")";
    throw std::invalid_argument(message + " " + std::string(knob.bound) +
                                ", got " + knob.get(spec));
  }
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
    const auto knob = std::ranges::find(kKnobs, key, &Knob::key);
    if (knob == std::end(kKnobs)) {
      ParseFail(line, "unknown key '" + std::string(key) + "'");
    }
    try {
      knob->set(spec, Trim(line.substr(eq + 1)));
    } catch (const std::invalid_argument& error) {
      ParseFail(line, error.what());
    }
  }
  if (!saw_header) {
    throw std::invalid_argument("scenario spec: empty input (expected '" +
                                std::string(kHeaderLine) + "')");
  }
  return spec;
}

}  // namespace ecdra::policy
