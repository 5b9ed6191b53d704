// The single declarative description of an experiment (docs/ARCHITECTURE.md,
// "policy"): the sampled environment's generating options, the
// result-shaping trial knobs, the (heuristic x filter-variant) policy grid,
// and the harness knobs, with one canonical text serialization.
//
// Every knob is declared once: a struct field plus one row of the knob table
// (Knobs()). The canonical text, the checkpoint fingerprint, the spec
// parser, the range checks, and run_experiment_cli's flags and --help all
// walk that table, so a configuration cannot mean different things in
// different stacks. The checkpoint fingerprint is FNV-1a over
// FingerprintText(), the canonical serialization of the result-shaping
// subset (grid and harness knobs excluded: they select *which* trials run
// and how, never what a trial computes).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_builder.hpp"
#include "core/factory.hpp"
#include "econ/econ_model.hpp"
#include "fault/fault_model.hpp"
#include "fault/recovery.hpp"
#include "pmf/distribution_factory.hpp"
#include "policy/run_policies.hpp"
#include "policy/stream_spec.hpp"
#include "validate/validation.hpp"
#include "workload/etc_matrix.hpp"
#include "workload/workload_generator.hpp"

namespace ecdra::policy {

/// The generating options of the §VI environment "held constant" across
/// trials: cluster shape, ETC heterogeneity, pmf discretization, workload
/// recipe, and the energy-budget scale. (sim::SetupOptions is an alias of
/// this struct.)
struct EnvironmentSpec {
  cluster::ClusterBuilderOptions cluster;
  workload::CvbOptions cvb;  // num_machines is overridden to num_nodes
  pmf::DiscretizeOptions discretize;
  workload::WorkloadGeneratorOptions workload;
  /// zeta_max = t_avg * p_avg * budget_task_count — "the energy required to
  /// execute an average task one thousand times" (§VI).
  double budget_task_count = 1000.0;
  /// Execution-time *uncertainty* (the per-(type, node) pmf CoV). 0 uses
  /// cvb.task_cov, the paper's coupling of heterogeneity and uncertainty;
  /// a positive value decouples them for the uncertainty ablation.
  double exec_cov = 0.0;
};

/// The policy grid of a study: which registered heuristics run against
/// which filter variants (the paper's §V-VI grid by default), plus the
/// batch-mode heuristics for immediate-vs-batch comparisons (empty = no
/// batch series).
struct PolicyGrid {
  std::vector<std::string> heuristics{"SQ", "MECT", "LL", "Random"};
  std::vector<std::string> filter_variants{"none", "en", "rob", "en+rob"};
  std::vector<std::string> batch_heuristics;
};

/// The run knobs a ScenarioSpec and a sim::RunOptions both carry. Both
/// derive from it, so sim::RunOptionsFromSpec and the checkpoint fingerprint
/// copy the whole set in one assignment and cannot drop a field.
struct RunKnobs {
  // -- Result-shaping trial knobs (fingerprinted) --
  IdlePolicy idle_policy = IdlePolicy::kDeepestPState;
  CancelPolicy cancel_policy = CancelPolicy::kRunToCompletion;
  /// DVFS switching delay and stochastic-power CoV (see sim::TrialOptions).
  double pstate_transition_latency = 0.0;
  double power_cov = 0.0;
  /// Options for every filter either stack constructs — the one source of
  /// truth for e.g. the robustness threshold.
  core::FilterChainOptions filter_options;
  /// Fault extension (src/fault); a zero horizon is derived per trial.
  fault::FaultModelOptions fault;
  /// Correlated fault-domain grouping: comma-separated "name:lo-hi" flat-core
  /// ranges (fault::ResolveFaultDomains); empty derives one domain per
  /// cluster node.
  std::string fault_domains;
  fault::RecoveryPolicy recovery = fault::RecoveryPolicy::kDropQueued;
  /// Job extension (src/workload/job.hpp): registered gang-placement policy
  /// ("pack", "spread", or the "serial" no-gang ablation) used when the
  /// workload's job shapes are enabled; inert otherwise.
  std::string jobs_placement = "pack";
  /// Registered governor name (src/governor). "static" is the paper's
  /// open-loop baseline; the registry validates the name at trial setup.
  std::string governor = "static";
  /// Run mode (stream_spec.hpp): the paper's fixed-trace window, or the
  /// streaming service mode. Explicit, never inferred from the stream
  /// block — a mismatch is a typed refusal (RequireStreamCompatible), so a
  /// stream block can never be silently executed under paper semantics.
  RunMode mode = RunMode::kFixedTrace;
  /// Streaming service knobs (src/stream); inert unless mode == kStream.
  StreamSpec stream;
  /// Econ extension (src/econ): per-type value, SLA tiers, energy price, and
  /// the late-revenue decay window. A disabled or trivial (all-zero) model
  /// takes the exact pre-econ trial path — bit-identical to the paper grid.
  bool econ_enabled = false;
  econ::EconModel econ;

  // -- Harness knobs (serialized, but not fingerprinted) --
  std::size_t num_trials = 50;
  validate::ValidationMode validation = validate::ValidationMode::kOff;
};

struct ScenarioSpec : RunKnobs {
  std::uint64_t master_seed = 0;
  EnvironmentSpec environment;
  /// Serialized, but not fingerprinted.
  PolicyGrid grid;
};

/// One row of the knob table: a spec key and everything that reads or
/// writes it.
struct Knob {
  std::string_view key;
  /// Command-line flag ("" = spec-only), its value placeholder, and its
  /// help text ('\n' between lines). A switch flag takes no value and
  /// applies `switch_value` (plus `on_switch`, if set) instead.
  std::string_view flag;
  std::string_view arg;
  std::string_view help;
  std::string_view switch_value;
  void (*on_switch)(ScenarioSpec&) = nullptr;
  /// Joins the fingerprint (false only for the grid and harness keys).
  bool shapes_results = true;
  /// The canonical value text, and its parser (throws
  /// std::invalid_argument saying what was expected).
  std::string (*get)(const ScenarioSpec&) = nullptr;
  void (*set)(ScenarioSpec& spec, std::string_view value) = nullptr;
  /// The rule the value breaks ("must be finite", "must be >= 0"), or ""
  /// when every number in it is finite and it lies in the knob's range.
  std::string_view (*violation)(const ScenarioSpec&) = nullptr;
};

/// Every spec key, in canonical order.
[[nodiscard]] std::span<const Knob> Knobs() noexcept;

/// Canonical serialization: a "ecdra-scenario v1" header line followed by
/// one "key = value" line per knob in table order. Doubles use the shortest
/// decimal that round-trips bit-exactly (std::to_chars), so serialize ->
/// parse -> serialize is byte-stable.
[[nodiscard]] std::string CanonicalSpecText(const ScenarioSpec& spec);

/// Inverse of CanonicalSpecText. Unset keys keep their defaults; unknown
/// keys, malformed values, and a missing/wrong header line throw
/// std::invalid_argument naming the offending line. Ranges are not checked
/// here (RequireValidSpec is).
[[nodiscard]] ScenarioSpec ParseScenarioSpec(std::string_view text);

/// The result-shaping subset of CanonicalSpecText (seed, environment, run
/// knobs; no grid/harness lines) — the checkpoint fingerprint's preimage.
[[nodiscard]] std::string FingerprintText(const ScenarioSpec& spec);

/// Throws std::invalid_argument for the first knob holding a non-finite
/// number or lying outside its range, with a one-line "key (flag) must be
/// ..., got value" message.
/// sim::RunOptionsFromSpec calls it, so a spec file and the command line are
/// refused by the same check.
void RequireValidSpec(const ScenarioSpec& spec);

/// FNV-1a (16 hex chars) over FingerprintText.
[[nodiscard]] std::string SpecFingerprint(const ScenarioSpec& spec);

/// FNV-1a 64-bit over arbitrary text (the hash the fingerprint and the
/// golden-regression tests share).
[[nodiscard]] std::uint64_t Fnv1a64(std::string_view text) noexcept;
[[nodiscard]] std::string Fnv1a64Hex(std::string_view text);

}  // namespace ecdra::policy
