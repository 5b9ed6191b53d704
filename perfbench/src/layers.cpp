#include "layers.hpp"

#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "core/factory.hpp"
#include "core/robustness_filter.hpp"
#include "governor/governor.hpp"

namespace perfbench {
namespace {

namespace core = ecdra::core;
namespace governor = ecdra::governor;
using Clock = std::chrono::steady_clock;

thread_local LayerClock* t_clock = nullptr;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class TimedHeuristic final : public core::Heuristic {
 public:
  explicit TimedHeuristic(std::unique_ptr<core::Heuristic> inner)
      : inner_(std::move(inner)) {}

  std::optional<core::Candidate> Select(
      const core::MappingContext& ctx) override {
    LayerClock* const clock = t_clock;
    if (clock == nullptr) return inner_->Select(ctx);
    const Clock::time_point start = Clock::now();
    std::optional<core::Candidate> chosen = inner_->Select(ctx);
    clock->heuristic_s += SecondsSince(start);
    ++clock->heuristic_calls;
    return chosen;
  }

  std::string_view name() const noexcept override { return inner_->name(); }

 private:
  std::unique_ptr<core::Heuristic> inner_;
};

class TimedFilter final : public core::Filter {
 public:
  explicit TimedFilter(std::unique_ptr<core::Filter> inner)
      : inner_(std::move(inner)),
        slot_(inner_->name() == "en"    ? &LayerClock::filter_en_s
              : inner_->name() == "rob" ? &LayerClock::filter_rob_s
                                        : &LayerClock::filter_other_s) {}

  void Apply(core::MappingContext& ctx) override {
    LayerClock* const clock = t_clock;
    if (clock == nullptr) return inner_->Apply(ctx);
    const Clock::time_point start = Clock::now();
    inner_->Apply(ctx);
    clock->*slot_ += SecondsSince(start);
  }

  std::string_view name() const noexcept override { return inner_->name(); }

 private:
  std::unique_ptr<core::Filter> inner_;
  double LayerClock::* slot_;
};

class TimedGovernor final : public governor::Governor {
 public:
  explicit TimedGovernor(std::unique_ptr<governor::Governor> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  governor::GovernorCadence cadence() const override {
    return inner_->cadence();
  }

  void Govern(const governor::GovernorObservation& observation,
              governor::GovernorHost& host) override {
    LayerClock* const clock = t_clock;
    if (clock == nullptr) return inner_->Govern(observation, host);
    const Clock::time_point start = Clock::now();
    inner_->Govern(observation, host);
    clock->govern_s += SecondsSince(start);
  }

 private:
  std::unique_ptr<governor::Governor> inner_;
};

bool IsTimed(std::string_view name) { return name.starts_with(kTimedPrefix); }

std::string Timed(std::string_view name) {
  return std::string(kTimedPrefix) + std::string(name);
}

}  // namespace

LayerClockScope::LayerClockScope(LayerClock& clock) noexcept
    : previous_(t_clock) {
  t_clock = &clock;
}

LayerClockScope::~LayerClockScope() { t_clock = previous_; }

void RegisterTimedPolicies() {
  auto& heuristics = core::HeuristicRegistry();
  for (const std::string& name : heuristics.Names()) {
    if (IsTimed(name) || heuristics.Contains(Timed(name))) continue;
    heuristics.Register(Timed(name), [name](ecdra::util::RngStream rng) {
      return std::make_unique<TimedHeuristic>(
          core::HeuristicRegistry().Make(name, std::move(rng)));
    });
  }
  auto& filters = core::FilterRegistry();
  for (const std::string& name : filters.Names()) {
    if (IsTimed(name) || filters.Contains(Timed(name))) continue;
    filters.Register(Timed(name), [name](const core::FilterChainOptions& o) {
      return std::make_unique<TimedFilter>(
          core::FilterRegistry().Make(name, o));
    });
  }
  auto& governors = governor::GovernorRegistry();
  for (const std::string& name : governors.Names()) {
    if (IsTimed(name) || governors.Contains(Timed(name))) continue;
    governors.Register(Timed(name), [name] {
      return std::make_unique<TimedGovernor>(
          governor::GovernorRegistry().Make(name));
    });
  }
}

std::vector<std::string> CheckTimedIdentity() {
  std::vector<std::string> problems;
  const auto mismatch = [&](std::string_view kind, std::string_view name,
                            std::string_view wrapped, std::string_view got) {
    problems.push_back(std::string(kind) + " '" + Timed(name) +
                       "' reports name '" + std::string(got) + "', not '" +
                       std::string(wrapped) + "'");
  };
  for (const std::string& name : core::HeuristicRegistry().Names()) {
    if (IsTimed(name)) continue;
    const auto plain =
        core::HeuristicRegistry().Make(name, ecdra::util::RngStream(0));
    const auto timed =
        core::HeuristicRegistry().Make(Timed(name), ecdra::util::RngStream(0));
    if (plain->name() != timed->name()) {
      mismatch("heuristic", name, plain->name(), timed->name());
    }
  }
  const core::FilterChainOptions options;
  for (const std::string& name : core::FilterRegistry().Names()) {
    if (IsTimed(name)) continue;
    const auto plain = core::FilterRegistry().Make(name, options);
    const auto timed = core::FilterRegistry().Make(Timed(name), options);
    if (plain->name() != timed->name()) {
      mismatch("filter", name, plain->name(), timed->name());
    }
  }
  for (const std::string& name : governor::GovernorRegistry().Names()) {
    if (IsTimed(name)) continue;
    const auto plain = governor::GovernorRegistry().Make(name);
    const auto timed = governor::GovernorRegistry().Make(Timed(name));
    if (plain->name() != timed->name()) {
      mismatch("governor", name, plain->name(), timed->name());
    }
    const governor::GovernorCadence a = plain->cadence();
    const governor::GovernorCadence b = timed->cadence();
    if (a.on_assignment != b.on_assignment ||
        a.on_completion != b.on_completion || a.tick_period != b.tick_period) {
      problems.push_back("governor '" + Timed(name) +
                         "' reports another cadence than '" + name + "'");
    }
  }
  return problems;
}

bool FilterIsTypeRouted(std::string_view filter) {
  const auto made =
      core::FilterRegistry().Make(filter, core::FilterChainOptions{});
  return dynamic_cast<const core::RobustnessFilter*>(made.get()) != nullptr;
}

std::string TimedVariant(std::string_view variant, bool gangs) {
  if (variant == "none") return std::string(variant);
  std::string timed;
  while (true) {
    const std::size_t plus = variant.find('+');
    const std::string_view name = variant.substr(0, plus);
    if (!timed.empty()) timed += '+';
    timed += gangs && FilterIsTypeRouted(name) ? std::string(name)
                                               : Timed(name);
    if (plus == std::string_view::npos) break;
    variant.remove_prefix(plus + 1);
  }
  return timed;
}

template <typename R>
void TimingTraceSink::Forward(const R& record) {
  LayerClock* const clock = t_clock;
  if (clock == nullptr) return inner_->Record(record);
  const Clock::time_point start = Clock::now();
  inner_->Record(record);
  clock->trace_write_s += SecondsSince(start);
  ++clock->trace_records;
}

void TimingTraceSink::Record(const ecdra::obs::MappingDecisionRecord& r) {
  Forward(r);
}
void TimingTraceSink::Record(const ecdra::obs::EnergySnapshotRecord& r) {
  Forward(r);
}
void TimingTraceSink::Record(const ecdra::obs::FaultEventRecord& r) {
  Forward(r);
}
void TimingTraceSink::Record(const ecdra::obs::GovernorActionRecord& r) {
  Forward(r);
}
void TimingTraceSink::Record(const ecdra::obs::StreamWindowRecord& r) {
  Forward(r);
}
void TimingTraceSink::Record(const ecdra::obs::ProfitRecord& r) { Forward(r); }

double TrialLayers::map_s() const noexcept {
  return counters.decision_seconds;
}

double TrialLayers::pipeline_self_s() const noexcept {
  return map_s() - clock.heuristic_s - clock.filter_en_s -
         clock.filter_rob_s - clock.filter_other_s;
}

double TrialLayers::engine_self_s() const noexcept {
  return wall_s - map_s() - generate_s;
}

namespace {

double Count(std::uint64_t value) { return static_cast<double>(value); }

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

std::span<const LayerMetric> PerTrialLayerMetrics() {
  using L = const TrialLayers&;
  static const LayerMetric kMetrics[] = {
      {"workload.generate_s", "s", "lower", [](L l) { return l.generate_s; }},
      {"core.map_s", "s", "lower", [](L l) { return l.map_s(); }},
      {"core.decisions", "count", "lower",
       [](L l) { return Count(l.counters.decisions()); }},
      {"core.heuristic_s", "s", "lower",
       [](L l) { return l.clock.heuristic_s; }},
      {"core.heuristic_calls", "count", "lower",
       [](L l) { return Count(l.clock.heuristic_calls); }},
      {"core.filter.en_s", "s", "lower",
       [](L l) { return l.clock.filter_en_s; }},
      {"core.filter.rob_s", "s", "lower",
       [](L l) { return l.clock.filter_rob_s; }},
      {"core.pipeline_self_s", "s", "lower",
       [](L l) { return l.pipeline_self_s(); }},
      {"core.candidates_per_decision", "count", "lower",
       [](L l) {
         return Share(Count(l.counters.candidates_generated),
                      Count(l.counters.decisions()));
       }},
      {"core.survivor_ratio", "ratio", "higher",
       [](L l) {
         const ecdra::obs::Counters& c = l.counters;
         const double generated = Count(c.candidates_generated);
         return Share(generated - Count(c.pruned_energy) -
                          Count(c.pruned_robustness) - Count(c.pruned_other),
                      generated);
       }},
      {"robustness.ready_pmf_hits", "count", "higher",
       [](L l) { return Count(l.counters.ready_pmf_hits); }},
      {"robustness.ready_pmf_misses", "count", "lower",
       [](L l) { return Count(l.counters.ready_pmf_misses); }},
      {"robustness.ready_pmf_hit_rate", "ratio", "higher",
       [](L l) { return l.counters.ready_pmf_hit_rate(); }},
      {"pmf.convolutions", "count", "lower",
       [](L l) { return Count(l.counters.pmf_convolutions); }},
      {"pmf.prob_sum_leq", "count", "lower",
       [](L l) { return Count(l.counters.pmf_prob_sum_leq); }},
      {"pmf.truncations", "count", "lower",
       [](L l) { return Count(l.counters.pmf_truncations); }},
      {"pmf.compactions", "count", "lower",
       [](L l) { return Count(l.counters.pmf_compactions); }},
      {"pmf.max_ops", "count", "lower",
       [](L l) { return Count(l.counters.pmf_max_ops); }},
      {"sim.engine_self_s", "s", "lower",
       [](L l) { return l.engine_self_s(); }},
      {"sim.pstate_switches", "count", "lower",
       [](L l) { return Count(l.counters.pstate_switches); }},
      {"governor.govern_s", "s", "lower", [](L l) { return l.clock.govern_s; }},
      {"governor.invocations", "count", "lower",
       [](L l) { return Count(l.counters.governor_invocations); }},
      {"stream.windows", "count", "lower",
       [](L l) { return Count(l.counters.stream_windows); }},
      {"fault.domain_outages", "count", "lower",
       [](L l) { return Count(l.domain_outages); }},
      {"fault.tasks_remapped", "count", "lower",
       [](L l) { return Count(l.tasks_remapped); }},
      {"jobs.gangs_placed", "count", "higher",
       [](L l) { return Count(l.jobs.gangs_placed); }},
      {"jobs.gang_waits", "count", "lower",
       [](L l) { return Count(l.jobs.gang_waits); }},
      {"jobs.place_ratio", "ratio", "higher",
       [](L l) {
         return Share(Count(l.jobs.gangs_placed),
                      Count(l.jobs.gangs_placed + l.jobs.gang_waits));
       }},
      {"io.trace_records", "count", "lower",
       [](L l) { return Count(l.clock.trace_records); }},
      {"io.trace_write_s", "s", "lower",
       [](L l) { return l.clock.trace_write_s; }},
  };
  return kMetrics;
}

std::vector<std::string> CheckLayerSanity(const TrialLayers& trial) {
  // Sums of the same intervals accumulated in another order differ by
  // rounding only.
  constexpr double kSlack = 1e-9;
  std::vector<std::string> problems;
  const auto check = [&](bool ok, const char* what, double value) {
    if (ok) return;
    std::ostringstream os;
    os << what << " (" << value << " s)";
    problems.push_back(os.str());
  };
  const double timed_parts = trial.clock.heuristic_s + trial.clock.filter_en_s +
                             trial.clock.filter_rob_s +
                             trial.clock.filter_other_s;
  check(timed_parts <= trial.map_s() + kSlack,
        "heuristic + filters exceed core.map_s", timed_parts - trial.map_s());
  check(trial.map_s() <= trial.wall_s, "core.map_s exceeds the trial wall",
        trial.map_s() - trial.wall_s);
  check(trial.pipeline_self_s() >= -kSlack, "core.pipeline_self_s < 0",
        trial.pipeline_self_s());
  check(trial.engine_self_s() >= 0.0, "sim.engine_self_s < 0",
        trial.engine_self_s());
  check(trial.clock.govern_s <= trial.wall_s,
        "governor.govern_s exceeds the trial wall", trial.clock.govern_s);
  return problems;
}

std::string ExactCounts(const ecdra::obs::Counters& counters) {
  std::string text;
  for (const ecdra::obs::CounterField& field : ecdra::obs::CounterFields()) {
    text += std::string(field.name) + '=' +
            std::to_string(counters.*field.slot) + ' ';
  }
  return text;
}

}  // namespace perfbench
