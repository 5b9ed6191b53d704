// Per-layer timing from outside the library.
//
// The traced benchmark pass times the calls into each layer without
// touching the library: every registered heuristic, filter, and governor
// gets a "timed." twin in its policy registry whose object wraps the real
// one and adds its wall time to the trial's LayerClock, and a TraceSink
// decorator times the program's own trace writes. Counts come from the
// library's obs::Counters, which are exact and deterministic.
//
// Each trial runs on exactly one thread, so the wrappers find their clock
// through a thread-local pointer (LayerClockScope), exactly like the
// library's own counters. A wrapper reports the wrapped policy's name():
// the scheduler routes counter slots and the gang energy check on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

/// Wall time spent inside the wrapped policies during one trial.
struct LayerClock {
  double heuristic_s = 0.0;
  std::uint64_t heuristic_calls = 0;
  double filter_en_s = 0.0;
  double filter_rob_s = 0.0;
  double filter_other_s = 0.0;
  double govern_s = 0.0;
  double trace_write_s = 0.0;
  std::uint64_t trace_records = 0;
};

/// Installs `clock` as the current thread's clock for the scope's lifetime.
class LayerClockScope {
 public:
  explicit LayerClockScope(LayerClock& clock) noexcept;
  ~LayerClockScope();

  LayerClockScope(const LayerClockScope&) = delete;
  LayerClockScope& operator=(const LayerClockScope&) = delete;

 private:
  LayerClock* previous_;
};

/// Prefix of every timing wrapper's registry name.
inline constexpr std::string_view kTimedPrefix = "timed.";

/// Registers a "timed.<name>" twin for every heuristic, filter, and
/// governor registered so far. Idempotent.
void RegisterTimedPolicies();

/// Checks every registered twin against the policy it wraps and returns one
/// line per problem (empty when all agree): the twin must report the
/// wrapped policy's name(), and a governor twin its cadence().
[[nodiscard]] std::vector<std::string> CheckTimedIdentity();

/// True when the scheduler finds the filter by its concrete type
/// (ImmediateModeScheduler::ConfigureGangs dynamic_casts the robustness
/// filter to read the gang threshold), so a wrapper cannot stand in for it
/// on a workload with gangs.
[[nodiscard]] bool FilterIsTypeRouted(std::string_view filter);

/// The "timed." spelling of a filter variant ("en+rob" ->
/// "timed.en+timed.rob"). With `gangs`, type-routed filters stay unwrapped
/// and their time is left inside the pipeline's self time.
[[nodiscard]] std::string TimedVariant(std::string_view variant, bool gangs);

/// TraceSink decorator: forwards every record to `inner` and adds the
/// forwarding time and a record count to the current thread's LayerClock.
class TimingTraceSink final : public ecdra::obs::TraceSink {
 public:
  /// `inner` must outlive the decorator and be safe for the threads that
  /// record through it.
  explicit TimingTraceSink(ecdra::obs::TraceSink& inner) : inner_(&inner) {}

  void Record(const ecdra::obs::MappingDecisionRecord& record) override;
  void Record(const ecdra::obs::EnergySnapshotRecord& record) override;
  void Record(const ecdra::obs::FaultEventRecord& record) override;
  void Record(const ecdra::obs::GovernorActionRecord& record) override;
  void Record(const ecdra::obs::StreamWindowRecord& record) override;
  void Record(const ecdra::obs::ProfitRecord& record) override;
  void Flush() override { inner_->Flush(); }

 private:
  template <typename R>
  void Forward(const R& record);

  ecdra::obs::TraceSink* inner_;
};

/// Everything the traced pass measures about one trial.
struct TrialLayers {
  double wall_s = 0.0;      // RunSingleTrial, traced
  double generate_s = 0.0;  // GenerateWorkload on the trial's substream
  LayerClock clock;
  ecdra::obs::Counters counters;
  ecdra::sim::JobStats jobs;
  std::size_t domain_outages = 0;
  std::size_t tasks_remapped = 0;

  /// counters.decision_seconds: wall time inside MapTask/MapGang.
  [[nodiscard]] double map_s() const noexcept;
  /// Mapping time outside the heuristic and the timed filters. Under gangs
  /// it also holds MapGang's decision-trace work, which runs before the
  /// decision clock stops.
  [[nodiscard]] double pipeline_self_s() const noexcept;
  /// Trial wall time outside mapping and workload generation.
  [[nodiscard]] double engine_self_s() const noexcept;
};

/// A per-trial layer metric, reported as its median over the traced trials.
struct LayerMetric {
  std::string_view name;
  std::string_view unit;
  std::string_view better;
  double (*value)(const TrialLayers&);
};

/// Every per-trial layer metric of a traced run. The run-level ones
/// (parallel efficiency, file sizes, trace overhead) are computed by the
/// benchmark itself.
[[nodiscard]] std::span<const LayerMetric> PerTrialLayerMetrics();

/// Layer sanity for one trial: heuristic + filters <= map <= trial wall, and
/// no self time is negative. Returns one line per violation.
[[nodiscard]] std::vector<std::string> CheckLayerSanity(
    const TrialLayers& trial);

/// The exact (deterministic) counter slots of `counters` as name=value
/// text; decision_seconds, the one wall-clock slot, is left out.
[[nodiscard]] std::string ExactCounts(const ecdra::obs::Counters& counters);

}  // namespace perfbench
