// The declarative ScenarioSpec: canonical serialization round-trips
// byte-stably, parse diagnostics name the offending line, the fingerprint
// covers exactly the result-shaping subset (grid/harness knobs excluded),
// and the checkpoint ConfigFingerprint is the same hash — one recipe, one
// fingerprint, every consumer.
#include "policy/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "experiment/paper_config.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment_runner.hpp"

namespace ecdra {
namespace {

/// A spec with every knob moved off its default, so a round-trip, a copy, or
/// a fingerprint that silently drops a key would be caught.
policy::ScenarioSpec FullyCustomSpec() {
  policy::ScenarioSpec spec;
  spec.master_seed = 77;
  cluster::ClusterBuilderOptions& cl = spec.environment.cluster;
  cl.num_nodes = 5;
  cl.min_processors = 2;
  cl.max_processors = 3;
  cl.min_cores_per_processor = 2;
  cl.max_cores_per_processor = 3;
  cl.min_power_efficiency = 0.85;
  cl.max_power_efficiency = 0.95;
  cl.min_step_gain = 0.1;
  cl.max_step_gain = 0.3;
  cl.min_frequency_fraction = 0.5;
  cl.min_p0_power_watts = 110.0;
  cl.max_p0_power_watts = 140.0;
  cl.min_low_voltage = 0.95;
  cl.max_low_voltage = 1.1;
  cl.min_high_voltage = 1.35;
  cl.max_high_voltage = 1.6;
  spec.environment.cvb.num_task_types = 25;
  spec.environment.cvb.task_mean = 500.0;
  spec.environment.cvb.task_cov = 0.3;
  spec.environment.cvb.machine_cov = 0.2;
  spec.environment.discretize.num_impulses = 16;
  spec.environment.discretize.tail_clip = 1e-5;
  workload::WorkloadGeneratorOptions& wl = spec.environment.workload;
  wl.arrivals =
      workload::ArrivalSpec::PaperBursty(30, 60, 1.0 / 7.0, 1.0 / 31.0);
  wl.load_factor_scale = 1.25;
  wl.priority_classes = {{1.0, 0.7}, {4.0, 0.3}};
  wl.jobs.enabled = true;
  wl.jobs.widths = {{1, 0.6}, {2, 0.4}};
  wl.jobs.depths = {{1, 0.5}, {2, 0.5}};
  wl.jobs.deadline_scale = 1.5;
  spec.environment.budget_task_count = 800.0;
  spec.environment.exec_cov = 0.4;
  spec.idle_policy = policy::IdlePolicy::kPowerGated;
  spec.cancel_policy = policy::CancelPolicy::kCancelHopelessQueued;
  spec.pstate_transition_latency = 0.25;
  spec.power_cov = 0.1;
  core::EnergyFilterOptions& en = spec.filter_options.energy;
  en.low_multiplier = 1.1;
  en.mid_multiplier = 1.2;
  en.high_multiplier = 1.4;
  en.low_depth = 0.7;
  en.high_depth = 1.3;
  en.scale_fair_share_by_priority = true;
  en.priority_baseline = 2.0;
  spec.filter_options.robustness_threshold = 0.65;
  spec.fault.mtbf = 5000.0;
  spec.fault.lifetime = fault::LifetimeDistribution::kWeibull;
  spec.fault.weibull_shape = 1.7;
  spec.fault.repair_time = 120.0;
  spec.fault.throttle_interval = 300.0;
  spec.fault.throttle_duration = 30.0;
  spec.fault.throttle_floor = 3;
  spec.fault.horizon = 9999.0;
  spec.fault.domain_mtbf = 20000.0;
  spec.fault.domain_repair_time = 600.0;
  spec.fault.cascade_throttle = true;
  spec.fault_domains = "rackA:0-2,rackB:3-4";
  spec.recovery = fault::RecoveryPolicy::kRequeueToScheduler;
  spec.jobs_placement = "serial";
  spec.governor = "budget-feedback";
  spec.mode = policy::RunMode::kStream;
  spec.stream.energy_rate = 80.0;
  spec.stream.accrual_cap = 5e5;
  spec.stream.initial_energy = 1e5;
  spec.stream.window_length = 900.0;
  spec.stream.emergency_enter_fraction = 0.1;
  spec.stream.emergency_exit_fraction = 0.3;
  spec.stream.admission = "rho";
  spec.stream.defer_rho = 0.4;
  spec.stream.drop_rho = 0.1;
  spec.stream.fairness_wait = 2000.0;
  spec.stream.degraded_enter_fraction = 0.3;
  spec.stream.degraded_exit_fraction = 0.15;
  spec.stream.degraded_rho_scale = 2.0;
  spec.econ_enabled = true;
  spec.econ.type_values = {1.0, 4.0, 0.5};
  spec.econ.tiers = {econ::SlaTier{"gold", 3.0, 2.0, 0.8, 0.2},
                     econ::SlaTier{"best-effort", 1.0, 1.0, 0.0, 0.8}};
  spec.econ.energy_price = 2.5e-6;
  spec.econ.value_decay = 150.0;
  spec.grid.heuristics = {"LL", "MECT"};
  spec.grid.filter_variants = {"en", "en+rob"};
  spec.grid.batch_heuristics = {"MinMinCT"};
  spec.num_trials = 7;
  spec.validation = validate::ValidationMode::kCheap;
  return spec;
}

TEST(ScenarioSpec, SerializeParseSerializeIsByteStable) {
  for (const policy::ScenarioSpec& spec :
       {policy::ScenarioSpec{}, experiment::PaperScenario(),
        FullyCustomSpec()}) {
    const std::string text = policy::CanonicalSpecText(spec);
    const policy::ScenarioSpec parsed = policy::ParseScenarioSpec(text);
    EXPECT_EQ(policy::CanonicalSpecText(parsed), text);
    // The fingerprint survives the round-trip too (it reads the same
    // fields), so a parsed spec resumes the original's checkpoints.
    EXPECT_EQ(policy::SpecFingerprint(parsed), policy::SpecFingerprint(spec));
  }
}

TEST(ScenarioSpec, ParseToleratesCommentsWhitespaceAndDefaults) {
  const policy::ScenarioSpec parsed = policy::ParseScenarioSpec(
      "# a comment\n"
      "ecdra-scenario v1\n"
      "\n"
      "  seed =  42  \n"
      "# another comment\n"
      "run.filter.rho_thresh = 0.75\n");
  EXPECT_EQ(parsed.master_seed, 42u);
  EXPECT_EQ(parsed.filter_options.robustness_threshold, 0.75);
  // Unset keys keep their defaults.
  EXPECT_EQ(parsed.num_trials, 50u);
  EXPECT_EQ(parsed.environment.cvb.task_mean,
            policy::ScenarioSpec{}.environment.cvb.task_mean);
}

TEST(ScenarioSpec, ParseDiagnosticsNameTheOffendingLine) {
  try {
    (void)policy::ParseScenarioSpec("not-a-header\nseed = 1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("not-a-header"),
              std::string::npos)
        << error.what();
  }

  try {
    (void)policy::ParseScenarioSpec("ecdra-scenario v1\nno.such.key = 3\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("no.such.key"), std::string::npos)
        << error.what();
  }

  try {
    (void)policy::ParseScenarioSpec("ecdra-scenario v1\nseed = banana\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("seed = banana"),
              std::string::npos)
        << error.what();
  }

  EXPECT_THROW((void)policy::ParseScenarioSpec(""), std::invalid_argument);
}

TEST(ScenarioSpec, MalformedTierTokensNameTheExpectedShape) {
  try {
    (void)policy::ParseScenarioSpec(
        "ecdra-scenario v1\nenv.econ.tiers = gold@3@2\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what())
                  .find("name@vmult@smult@rhofloor@prob"),
              std::string::npos)
        << error.what();
  }
}

TEST(ScenarioSpec, FingerprintCoversResultShapingKnobsOnly) {
  const policy::ScenarioSpec base;
  const std::string fingerprint = policy::SpecFingerprint(base);
  EXPECT_EQ(fingerprint.size(), 16u);
  EXPECT_EQ(fingerprint, policy::SpecFingerprint(base));  // deterministic

  // Result-shaping fields change the hash...
  policy::ScenarioSpec changed = base;
  changed.master_seed = 999;
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.filter_options.robustness_threshold = 0.9;
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.environment.budget_task_count = 1.0;
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.fault.mtbf = 100.0;
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.fault.domain_mtbf = 100.0;
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.fault_domains = "all:0-15";
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.governor = "budget-feedback";
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  // The v5 job block shapes results too: gangs change placement and
  // per-job accounting, so every knob must perturb the hash.
  changed = base;
  changed.environment.workload.jobs.enabled = true;
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.environment.workload.jobs.widths = {{4, 1.0}};
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.environment.workload.jobs.depths = {{2, 1.0}};
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.environment.workload.jobs.deadline_scale = 1.5;
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.jobs_placement = "spread";
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  // The v6 econ block: values, tiers, the enable flag, the energy price,
  // and the decay window all shape results (policies read them), so every
  // one must perturb the hash.
  changed = base;
  changed.econ_enabled = true;
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.econ.type_values = {1.0, 5.0};
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.econ.tiers = {econ::SlaTier{"gold", 3.0, 2.0, 0.8, 1.0}};
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.econ.energy_price = 1e-6;
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));
  changed = base;
  changed.econ.value_decay = 200.0;
  EXPECT_NE(fingerprint, policy::SpecFingerprint(changed));

  // ...grid and harness knobs do not (so a resume with more trials or a
  // different sweep grid accepts the same checkpoints).
  policy::ScenarioSpec harness = base;
  harness.num_trials = 9999;
  harness.grid.heuristics = {"OnlyThis"};
  harness.grid.filter_variants = {"none"};
  harness.grid.batch_heuristics = {"MinMinCT"};
  harness.validation = validate::ValidationMode::kDeep;
  EXPECT_EQ(fingerprint, policy::SpecFingerprint(harness));

  // The full serialization does cover them (they are part of the artifact,
  // just not of the fingerprint).
  EXPECT_NE(policy::CanonicalSpecText(harness),
            policy::CanonicalSpecText(base));
}

TEST(ScenarioSpec, CheckpointConfigFingerprintIsTheSpecFingerprint) {
  policy::ScenarioSpec shrunk = experiment::PaperScenario();
  // Shrink so BuildExperimentSetup stays fast.
  shrunk.environment.cluster.num_nodes = 3;
  shrunk.environment.cvb.num_task_types = 10;
  shrunk.environment.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(10, 20, 1.0 / 8.0, 1.0 / 48.0);
  shrunk.filter_options.robustness_threshold = 0.6;
  shrunk.idle_policy = policy::IdlePolicy::kStayAtLast;

  // FullyCustomSpec moves every run knob, gang placement included, so a
  // knob the checkpoint path drops changes the hash.
  for (const policy::ScenarioSpec& spec : {shrunk, FullyCustomSpec()}) {
    const sim::ExperimentSetup setup = sim::BuildExperimentSetup(spec);
    const sim::RunOptions options = sim::RunOptionsFromSpec(spec);
    EXPECT_EQ(sim::ConfigFingerprint(setup, options),
              policy::SpecFingerprint(spec));
  }
}

TEST(ScenarioSpec, BuildExperimentSetupRecordsItsRecipe) {
  policy::ScenarioSpec spec;
  spec.master_seed = 5;
  spec.environment.cluster.num_nodes = 3;
  spec.environment.cvb.num_task_types = 10;
  spec.environment.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(10, 20, 1.0 / 8.0, 1.0 / 48.0);
  spec.environment.exec_cov = 0.33;

  const sim::ExperimentSetup setup = sim::BuildExperimentSetup(spec);
  EXPECT_EQ(setup.master_seed, 5u);
  EXPECT_EQ(setup.environment.cluster.num_nodes, 3u);
  EXPECT_EQ(setup.environment.exec_cov, 0.33);
  // The recorded recipe reproduces the identical environment.
  const sim::ExperimentSetup again =
      sim::BuildExperimentSetup(setup.master_seed, setup.environment);
  EXPECT_EQ(again.t_avg, setup.t_avg);
  EXPECT_EQ(again.p_avg, setup.p_avg);
  EXPECT_EQ(again.energy_budget, setup.energy_budget);
}

TEST(ScenarioSpec, RunOptionsFromSpecCopiesEveryRunKnob) {
  const policy::ScenarioSpec spec = FullyCustomSpec();
  const sim::RunOptions options = sim::RunOptionsFromSpec(spec);
  EXPECT_EQ(options.num_trials, spec.num_trials);
  EXPECT_EQ(options.idle_policy, spec.idle_policy);
  EXPECT_EQ(options.cancel_policy, spec.cancel_policy);
  EXPECT_EQ(options.pstate_transition_latency,
            spec.pstate_transition_latency);
  EXPECT_EQ(options.power_cov, spec.power_cov);
  EXPECT_EQ(options.filter_options.robustness_threshold,
            spec.filter_options.robustness_threshold);
  EXPECT_EQ(options.filter_options.energy.low_multiplier,
            spec.filter_options.energy.low_multiplier);
  EXPECT_EQ(options.fault.mtbf, spec.fault.mtbf);
  EXPECT_EQ(options.fault.domain_mtbf, spec.fault.domain_mtbf);
  EXPECT_EQ(options.fault.domain_repair_time, spec.fault.domain_repair_time);
  EXPECT_EQ(options.fault.cascade_throttle, spec.fault.cascade_throttle);
  EXPECT_EQ(options.fault_domains, spec.fault_domains);
  EXPECT_EQ(options.recovery, spec.recovery);
  EXPECT_EQ(options.jobs_placement, spec.jobs_placement);
  EXPECT_EQ(options.governor, spec.governor);
  EXPECT_EQ(options.mode, spec.mode);
  EXPECT_EQ(options.stream.energy_rate, spec.stream.energy_rate);
  EXPECT_EQ(options.stream.admission, spec.stream.admission);
  EXPECT_EQ(options.stream.degraded_rho_scale,
            spec.stream.degraded_rho_scale);
  EXPECT_EQ(options.validation, spec.validation);
  EXPECT_EQ(options.econ_enabled, spec.econ_enabled);
  EXPECT_EQ(options.econ, spec.econ);

  // Every knob, through the table: the run knobs copied back over the
  // spec's seed, environment, and grid reproduce its canonical text.
  policy::ScenarioSpec back;
  static_cast<policy::RunKnobs&>(back) = options;
  back.master_seed = spec.master_seed;
  back.environment = spec.environment;
  back.grid = spec.grid;
  EXPECT_EQ(policy::CanonicalSpecText(back), policy::CanonicalSpecText(spec));
}

TEST(ScenarioSpec, RunOptionsFromSpecRefusesNegativeEconKnobs) {
  for (const char* line :
       {"run.econ.energy_price = -5", "run.econ.value_decay = -1"}) {
    SCOPED_TRACE(line);
    const policy::ScenarioSpec spec = policy::ParseScenarioSpec(
        policy::CanonicalSpecText(policy::ScenarioSpec{}) + line + "\n");
    try {
      (void)sim::RunOptionsFromSpec(spec);
      ADD_FAILURE() << "accepted " << line;
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("must be >= 0"), std::string::npos) << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  }
  policy::ScenarioSpec zero;
  zero.econ.energy_price = 0.0;
  zero.econ.value_decay = 0.0;
  EXPECT_NO_THROW((void)sim::RunOptionsFromSpec(zero));
}

TEST(ScenarioSpec, EveryKnobRowAppearsOnceAndFullyCustomMovesIt) {
  const std::string text = policy::CanonicalSpecText(FullyCustomSpec());
  const policy::ScenarioSpec defaults;
  std::size_t rows = 0;
  for (const policy::Knob& knob : policy::Knobs()) {
    SCOPED_TRACE(std::string(knob.key));
    ++rows;
    const std::string line = std::string("\n").append(knob.key) + " = ";
    const std::size_t at = text.find(line);
    ASSERT_NE(at, std::string::npos);
    EXPECT_EQ(text.find(line, at + 1), std::string::npos);
    // A knob the fixture leaves at its default would let a dropped field
    // pass the round-trip and copy tests unnoticed.
    EXPECT_NE(knob.get(FullyCustomSpec()), knob.get(defaults));
    EXPECT_EQ(knob.violation(FullyCustomSpec()), "");
  }
  // One line per row plus the header: no key is emitted outside the table.
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(),
                                                '\n')),
            rows + 1);
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(ECDRA_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ScenarioSpec, CanonicalTextMatchesTheRecordedFormat) {
  // Recorded from the per-key emitter that preceded the knob table: the
  // table must reproduce it byte for byte, fingerprint subset included.
  const std::pair<const char*, policy::ScenarioSpec> cases[] = {
      {"spec_paper.txt", experiment::PaperScenario()},
      {"spec_fully_custom.txt", FullyCustomSpec()}};
  for (const auto& [name, spec] : cases) {
    SCOPED_TRACE(name);
    const std::string golden = ReadGolden(name);
    EXPECT_EQ(policy::CanonicalSpecText(spec), golden);
    const std::size_t grid = golden.find("grid.heuristics = ");
    ASSERT_NE(grid, std::string::npos);
    EXPECT_EQ(policy::FingerprintText(spec),
              "ecdra-scenario-fingerprint v6\n" +
                  golden.substr(golden.find('\n') + 1,
                                grid - golden.find('\n') - 1));
  }
}

TEST(ScenarioSpec, RequireValidSpecNamesTheKeyFlagAndValue) {
  policy::ScenarioSpec spec;
  spec.environment.workload.jobs.widths = {{0, 1.0}};
  try {
    policy::RequireValidSpec(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "env.workload.jobs.widths (--job-widths) must have values "
                 ">= 1 and probabilities > 0, got 0@1");
  }
  EXPECT_NO_THROW(policy::RequireValidSpec(policy::ScenarioSpec{}));
  EXPECT_NO_THROW(policy::RequireValidSpec(experiment::PaperScenario()));
}

TEST(Fnv1a64, MatchesKnownVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(policy::Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(policy::Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(policy::Fnv1a64Hex(""), "cbf29ce484222325");
}

}  // namespace
}  // namespace ecdra
