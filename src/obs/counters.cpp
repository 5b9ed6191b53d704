#include "obs/counters.hpp"

#include <array>
#include <ostream>

namespace ecdra::obs {

thread_local Counters* t_active_counters = nullptr;

namespace {

constexpr std::array kFields{
    CounterField{"tasks_mapped", &Counters::tasks_mapped},
    CounterField{"tasks_discarded", &Counters::tasks_discarded},
    CounterField{"candidates_generated", &Counters::candidates_generated},
    CounterField{"pruned_energy", &Counters::pruned_energy},
    CounterField{"pruned_robustness", &Counters::pruned_robustness},
    CounterField{"pruned_other", &Counters::pruned_other},
    CounterField{"discarded_by_energy", &Counters::discarded_by_energy},
    CounterField{"discarded_by_robustness",
                 &Counters::discarded_by_robustness},
    CounterField{"discarded_by_other", &Counters::discarded_by_other},
    CounterField{"ready_pmf_hits", &Counters::ready_pmf_hits},
    CounterField{"ready_pmf_misses", &Counters::ready_pmf_misses},
    CounterField{"pmf_convolutions", &Counters::pmf_convolutions},
    CounterField{"pmf_compactions", &Counters::pmf_compactions},
    CounterField{"pmf_prob_sum_leq", &Counters::pmf_prob_sum_leq},
    CounterField{"pmf_truncations", &Counters::pmf_truncations},
    CounterField{"pmf_max_ops", &Counters::pmf_max_ops},
    CounterField{"pmf_gamma_cdf_evals", &Counters::pmf_gamma_cdf_evals},
    CounterField{"pstate_switches", &Counters::pstate_switches},
    CounterField{"tasks_cancelled", &Counters::tasks_cancelled},
    CounterField{"failures_injected", &Counters::failures_injected},
    CounterField{"repairs_applied", &Counters::repairs_applied},
    CounterField{"throttles_applied", &Counters::throttles_applied},
    CounterField{"tasks_lost_to_failures", &Counters::tasks_lost_to_failures},
    CounterField{"tasks_remapped", &Counters::tasks_remapped},
    CounterField{"domain_outages_applied", &Counters::domain_outages_applied},
    CounterField{"domain_repairs_applied", &Counters::domain_repairs_applied},
    CounterField{"governor_invocations", &Counters::governor_invocations},
    CounterField{"governor_pstate_caps", &Counters::governor_pstate_caps},
    CounterField{"governor_cores_parked", &Counters::governor_cores_parked},
    CounterField{"governor_allowance_changes",
                 &Counters::governor_allowance_changes},
    CounterField{"stream_windows", &Counters::stream_windows},
    CounterField{"stream_deferred", &Counters::stream_deferred},
    CounterField{"stream_admission_dropped",
                 &Counters::stream_admission_dropped},
    CounterField{"stream_released", &Counters::stream_released},
    CounterField{"stream_forced_admissions",
                 &Counters::stream_forced_admissions},
    CounterField{"stream_emergency_entries",
                 &Counters::stream_emergency_entries},
};

}  // namespace

std::span<const CounterField> CounterFields() noexcept { return kFields; }

void Counters::Merge(const Counters& other) {
  for (const CounterField& field : kFields) {
    this->*field.slot += other.*field.slot;
  }
  decision_seconds += other.decision_seconds;
}

double Counters::ready_pmf_hit_rate() const noexcept {
  const std::uint64_t total = ready_pmf_hits + ready_pmf_misses;
  if (total == 0) return 0.0;
  return static_cast<double>(ready_pmf_hits) / static_cast<double>(total);
}

bool Counters::empty() const noexcept {
  for (const CounterField& field : kFields) {
    if (this->*field.slot != 0) return false;
  }
  return decision_seconds == 0.0;
}

std::ostream& operator<<(std::ostream& os, const Counters& counters) {
  os << "Counters{";
  bool first = true;
  for (const CounterField& field : kFields) {
    const std::uint64_t value = counters.*field.slot;
    if (value == 0) continue;
    if (!first) os << ", ";
    os << field.name << "=" << value;
    first = false;
  }
  if (counters.decision_seconds > 0.0) {
    if (!first) os << ", ";
    os << "decision_seconds=" << counters.decision_seconds;
    first = false;
  }
  if (counters.ready_pmf_hits + counters.ready_pmf_misses > 0) {
    os << ", ready_pmf_hit_rate=" << counters.ready_pmf_hit_rate();
  }
  return os << "}";
}

}  // namespace ecdra::obs
