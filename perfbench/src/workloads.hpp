// The benchmark's workloads, each a declarative ScenarioSpec that runs one
// (heuristic, filter variant) pair through the library's public entry
// points. perfbench/README.md says why each one was chosen.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "policy/scenario_spec.hpp"
#include "sim/experiment_runner.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// spec.grid holds exactly one heuristic and one filter variant.
  ecdra::policy::ScenarioSpec spec;
  /// Trials per measured pass.
  std::size_t trials = 0;
  /// Trials per RunSweep call of an end-to-end pass; divides `trials`.
  std::size_t sweep_trials = 0;
  /// Passes every end-to-end run makes, whatever --seconds says; the tail
  /// percentile is chosen for trials x min_passes samples.
  std::size_t min_passes = 1;
  /// Trials 0-1 at the paper seed have hashes in tests/golden/paper_grid.txt.
  bool golden = false;
  /// Writes the program's JSONL decision trace and a checkpoint store.
  bool io = false;

  [[nodiscard]] const std::string& heuristic() const {
    return spec.grid.heuristics.front();
  }
  [[nodiscard]] const std::string& variant() const {
    return spec.grid.filter_variants.front();
  }
  [[nodiscard]] bool gangs() const {
    return spec.environment.workload.jobs.enabled;
  }
};

[[nodiscard]] const std::vector<std::string>& WorkloadNames();

/// Throws std::invalid_argument naming the known workloads for an unknown
/// name.
[[nodiscard]] Workload MakeWorkload(std::string_view name);

/// Canonical form of a trial result for bit-for-bit comparison between
/// passes: the counters carry wall-clock decision time, so they are cleared.
[[nodiscard]] std::string ResultDigest(ecdra::sim::TrialResult result);

/// The streaming energy rate (J/s) at which the accrued energy over the
/// nominal arrival horizon equals the paper's fixed budget zeta_max.
[[nodiscard]] double SustainingRate(const ecdra::sim::ExperimentSetup& setup);

}  // namespace perfbench
