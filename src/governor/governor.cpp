#include "governor/governor.hpp"

#include <algorithm>
#include <cmath>

namespace ecdra::governor {

GovernorRegistryType& GovernorRegistry() {
  static GovernorRegistryType registry("governor");
  return registry;
}

std::vector<std::string> GovernorNames() {
  return GovernorRegistry().Names();
}

std::unique_ptr<Governor> MakeGovernor(std::string_view name) {
  return GovernorRegistry().Make(name);
}

namespace {

/// The paper baseline: never invoked. The all-off cadence makes the engine
/// skip every governor hook, so a "static" trial takes the exact pre-governor
/// event path — the golden paper-grid fixture holds bit-identically.
class StaticGovernor final : public Governor {
 public:
  [[nodiscard]] std::string_view name() const override { return "static"; }
  [[nodiscard]] GovernorCadence cadence() const override { return {}; }
  void Govern(const GovernorObservation&, GovernorHost&) override {}
};

/// Proportional controller on the observed burn against the linear budget
/// schedule zeta_max * t / horizon. Over-burning tightens the fair-share
/// allowance, raises a global P-state floor (slower, lower-power states
/// spend fewer joules per task), and parks idle cores; under-burning lifts
/// the floor and loosens the allowance back toward (and slightly past) the
/// paper's static filter.
class BudgetFeedbackGovernor final : public Governor {
 public:
  /// Deficit fraction treated as "on schedule" (no action).
  static constexpr double kDeadband = 0.02;
  /// One extra floor step per this much over-burn deficit.
  static constexpr double kFloorGain = 0.04;
  /// Fair-share scale sensitivity to the deficit.
  static constexpr double kScaleGain = 4.0;
  static constexpr double kMinScale = 0.2;
  static constexpr double kMaxScale = 1.5;

  [[nodiscard]] std::string_view name() const override {
    return "budget-feedback";
  }
  [[nodiscard]] GovernorCadence cadence() const override {
    return GovernorCadence{.on_assignment = true, .on_completion = true};
  }
  void Govern(const GovernorObservation& observation,
              GovernorHost& host) override {
    if (observation.budget <= 0.0 || observation.horizon <= 0.0) return;
    // err > 0: ahead of the linear schedule (over-burning).
    const double schedule =
        observation.budget *
        std::min(1.0, observation.now / observation.horizon);
    const double err =
        (observation.consumed - schedule) / observation.budget;

    cluster::PStateIndex floor = 0;
    double scale = 1.0;
    if (err > kDeadband) {
      floor = static_cast<cluster::PStateIndex>(
          std::min<double>(cluster::kNumPStates - 1.0,
                           std::floor((err - kDeadband) / kFloorGain) + 1.0));
      scale = std::max(kMinScale, 1.0 - kScaleGain * err);
      for (std::size_t flat = 0; flat < observation.cores.size(); ++flat) {
        const CoreView& core = observation.cores[flat];
        if (!core.busy && !core.parked) (void)host.ParkIdleCore(flat);
      }
    } else if (err < -kDeadband) {
      scale = std::min(kMaxScale, 1.0 - kScaleGain * err);
    }
    for (std::size_t flat = 0; flat < observation.cores.size(); ++flat) {
      host.SetPStateFloor(flat, floor);
    }
    host.SetFairShareScale(scale);
  }
};

/// Econ extension: trades speed against the energy bill by the observed
/// revenue-per-joule. While the run is earning more per joule than the
/// meter charges (ratio >= 1) the cluster runs uncapped; as the margin
/// thins the governor raises a cluster-wide P-state floor in bands —
/// slower, lower-power states spend fewer joules per task, cutting the
/// bill at the cost of some late revenue. No-op without an energy price
/// (pre-econ runs unchanged) and during the warm-up before any revenue or
/// joules exist, where the ratio is meaningless.
class ProfitGuardGovernor final : public Governor {
 public:
  static constexpr double kTickPeriod = 100.0;
  /// Floor deepens one step each time the revenue/bill ratio falls through
  /// another band of this width below 1.
  static constexpr double kBandWidth = 0.25;

  [[nodiscard]] std::string_view name() const override {
    return "profit-guard";
  }
  [[nodiscard]] GovernorCadence cadence() const override {
    return GovernorCadence{.on_completion = true, .tick_period = kTickPeriod};
  }
  void Govern(const GovernorObservation& observation,
              GovernorHost& host) override {
    if (observation.energy_price <= 0.0) return;
    if (observation.consumed <= 0.0) return;
    const double bill = observation.energy_price * observation.consumed;
    const double ratio = observation.realized_revenue / bill;
    cluster::PStateIndex floor = 0;
    if (ratio < 1.0) {
      floor = static_cast<cluster::PStateIndex>(
          std::min<double>(cluster::kNumPStates - 1.0,
                           std::floor((1.0 - ratio) / kBandWidth) + 1.0));
    }
    for (std::size_t flat = 0; flat < observation.cores.size(); ++flat) {
      host.SetPStateFloor(flat, floor);
    }
    // Margin under water also means idle draw is pure loss: park what sleeps.
    if (ratio < 1.0) {
      for (std::size_t flat = 0; flat < observation.cores.size(); ++flat) {
        const CoreView& core = observation.cores[flat];
        if (!core.busy && !core.parked) (void)host.ParkIdleCore(flat);
      }
    }
  }
};

// -- Built-in registrations. Kept in this translation unit (retained by any
// binary that calls MakeGovernor) for the same static-library reason as
// core/factory.cpp. --

ECDRA_REGISTER_GOVERNOR("static",
                        [] { return std::make_unique<StaticGovernor>(); })
ECDRA_REGISTER_GOVERNOR("budget-feedback", [] {
  return std::make_unique<BudgetFeedbackGovernor>();
})
ECDRA_REGISTER_GOVERNOR("profit-guard", [] {
  return std::make_unique<ProfitGuardGovernor>();
})

}  // namespace

}  // namespace ecdra::governor
