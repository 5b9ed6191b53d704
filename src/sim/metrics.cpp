#include "sim/metrics.hpp"

#include <ostream>

#include "util/assert.hpp"

namespace ecdra::sim {

std::ostream& operator<<(std::ostream& os, const TrialResult& result) {
  os << "TrialResult{window=" << result.window_size
     << ", completed=" << result.completed
     << ", missed=" << result.missed_deadlines
     << " (discarded=" << result.discarded
     << ", late=" << result.finished_late
     << ", over_budget=" << result.on_time_but_over_budget
     << ", cancelled=" << result.cancelled
     << "), energy=" << result.total_energy;
  if (result.failures_injected > 0 || result.throttles_injected > 0 ||
      result.domain_outages > 0) {
    os << ", failures=" << result.failures_injected
       << ", repairs=" << result.repairs_applied
       << ", throttles=" << result.throttles_injected
       << ", lost=" << result.tasks_lost_to_failures
       << ", remapped=" << result.tasks_remapped
       << ", remapped_on_time=" << result.remapped_on_time;
    if (result.domain_outages > 0) {
      os << ", domain_outages=" << result.domain_outages
         << ", domain_repairs=" << result.domain_repairs;
    }
  }
  if (result.energy_exhausted_at) {
    os << ", exhausted_at=" << *result.energy_exhausted_at;
  }
  if (result.stream.enabled) {
    os << ", stream{windows=" << result.stream.windows
       << ", deferred=" << result.stream.deferred
       << ", admission_dropped=" << result.stream.admission_dropped
       << ", released=" << result.stream.released
       << ", forced=" << result.stream.forced_admissions
       << ", pen_peak=" << result.stream.pen_peak
       << ", emergencies=" << result.stream.emergency_entries
       << ", emergency_s=" << result.stream.emergency_seconds
       << ", degraded=" << result.stream.degraded_entries
       << ", degraded_s=" << result.stream.degraded_seconds
       << ", min_available=" << result.stream.min_available
       << ", final_available=" << result.stream.final_available << "}";
  }
  if (result.jobs.enabled) {
    os << ", jobs{total=" << result.jobs.jobs
       << ", on_time=" << result.jobs.jobs_on_time
       << ", late=" << result.jobs.jobs_late
       << ", failed=" << result.jobs.jobs_failed
       << ", gangs_placed=" << result.jobs.gangs_placed
       << ", gang_waits=" << result.jobs.gang_waits
       << ", gangs_requeued=" << result.jobs.gangs_requeued
       << ", gangs_abandoned=" << result.jobs.gangs_abandoned
       << ", pending_peak=" << result.jobs.pending_peak
       << ", gang_wait_s=" << result.jobs.gang_wait_seconds << "}";
  }
  if (result.econ.enabled) {
    os << ", econ{revenue=" << result.econ.revenue
       << ", cost=" << result.econ.energy_cost
       << ", net=" << result.econ.net_profit
       << ", offered=" << result.econ.value_offered
       << ", paid=" << result.econ.paid_finishes
       << ", decayed=" << result.econ.decayed_finishes
       << ", premium=" << result.econ.premium_on_time << "/"
       << result.econ.premium_total << "}";
  }
  if (!result.validation.ok()) {
    os << ", validation=" << result.validation;
  }
  return os << ", makespan=" << result.makespan << "}";
}

SummaryStatistics SummarizeTrials(std::span<const TrialResult> trials) {
  ECDRA_REQUIRE(!trials.empty(), "cannot summarize zero trials");
  SummaryStatistics summary;
  summary.trials = trials.size();
  for (const TrialResult& trial : trials) {
    summary.mean_missed += static_cast<double>(trial.missed_deadlines);
    summary.mean_completed += static_cast<double>(trial.completed);
    summary.mean_discarded += static_cast<double>(trial.discarded);
    summary.mean_cancelled += static_cast<double>(trial.cancelled);
    summary.mean_energy += trial.total_energy;
    summary.mean_makespan += trial.makespan;
    summary.mean_failures += static_cast<double>(trial.failures_injected);
    summary.mean_tasks_lost +=
        static_cast<double>(trial.tasks_lost_to_failures);
    summary.mean_remapped += static_cast<double>(trial.tasks_remapped);
    summary.mean_remapped_on_time +=
        static_cast<double>(trial.remapped_on_time);
    summary.mean_domain_outages += static_cast<double>(trial.domain_outages);
    if (trial.stream.enabled) ++summary.stream_trials;
    summary.mean_stream_deferred += static_cast<double>(trial.stream.deferred);
    summary.mean_stream_dropped +=
        static_cast<double>(trial.stream.admission_dropped);
    summary.mean_stream_released += static_cast<double>(trial.stream.released);
    summary.mean_emergency_seconds += trial.stream.emergency_seconds;
    summary.mean_degraded_seconds += trial.stream.degraded_seconds;
    if (trial.jobs.enabled) ++summary.job_trials;
    summary.mean_jobs_on_time += static_cast<double>(trial.jobs.jobs_on_time);
    summary.mean_jobs_failed += static_cast<double>(trial.jobs.jobs_failed);
    summary.mean_gangs_placed += static_cast<double>(trial.jobs.gangs_placed);
    summary.mean_gang_waits += static_cast<double>(trial.jobs.gang_waits);
    summary.mean_gang_wait_seconds += trial.jobs.gang_wait_seconds;
    if (trial.econ.enabled) ++summary.econ_trials;
    summary.mean_revenue += trial.econ.revenue;
    summary.mean_energy_cost += trial.econ.energy_cost;
    summary.mean_net_profit += trial.econ.net_profit;
    summary.mean_value_offered += trial.econ.value_offered;
    summary.counters.Merge(trial.counters);
    summary.validation_checks += trial.validation.checks_run;
    summary.validation_violations += trial.validation.violations;
  }
  const double n = static_cast<double>(trials.size());
  summary.mean_missed /= n;
  summary.mean_completed /= n;
  summary.mean_discarded /= n;
  summary.mean_cancelled /= n;
  summary.mean_energy /= n;
  summary.mean_makespan /= n;
  summary.mean_failures /= n;
  summary.mean_tasks_lost /= n;
  summary.mean_remapped /= n;
  summary.mean_remapped_on_time /= n;
  summary.mean_domain_outages /= n;
  summary.mean_stream_deferred /= n;
  summary.mean_stream_dropped /= n;
  summary.mean_stream_released /= n;
  summary.mean_emergency_seconds /= n;
  summary.mean_degraded_seconds /= n;
  summary.mean_jobs_on_time /= n;
  summary.mean_jobs_failed /= n;
  summary.mean_gangs_placed /= n;
  summary.mean_gang_waits /= n;
  summary.mean_gang_wait_seconds /= n;
  summary.mean_revenue /= n;
  summary.mean_energy_cost /= n;
  summary.mean_net_profit /= n;
  summary.mean_value_offered /= n;
  return summary;
}

std::ostream& operator<<(std::ostream& os, const SummaryStatistics& summary) {
  os << "SummaryStatistics{trials=" << summary.trials
     << ", mean_missed=" << summary.mean_missed
     << ", mean_completed=" << summary.mean_completed
     << ", mean_discarded=" << summary.mean_discarded
     << ", mean_energy=" << summary.mean_energy
     << ", mean_makespan=" << summary.mean_makespan;
  if (summary.mean_failures > 0.0 || summary.mean_domain_outages > 0.0) {
    os << ", mean_failures=" << summary.mean_failures
       << ", mean_tasks_lost=" << summary.mean_tasks_lost
       << ", mean_remapped=" << summary.mean_remapped
       << ", mean_remapped_on_time=" << summary.mean_remapped_on_time;
    if (summary.mean_domain_outages > 0.0) {
      os << ", mean_domain_outages=" << summary.mean_domain_outages;
    }
  }
  if (summary.stream_trials > 0) {
    os << ", stream_trials=" << summary.stream_trials
       << ", mean_stream_deferred=" << summary.mean_stream_deferred
       << ", mean_stream_dropped=" << summary.mean_stream_dropped
       << ", mean_stream_released=" << summary.mean_stream_released
       << ", mean_emergency_seconds=" << summary.mean_emergency_seconds;
    if (summary.mean_degraded_seconds > 0.0) {
      os << ", mean_degraded_seconds=" << summary.mean_degraded_seconds;
    }
  }
  if (summary.job_trials > 0) {
    os << ", job_trials=" << summary.job_trials
       << ", mean_jobs_on_time=" << summary.mean_jobs_on_time
       << ", mean_jobs_failed=" << summary.mean_jobs_failed
       << ", mean_gangs_placed=" << summary.mean_gangs_placed
       << ", mean_gang_waits=" << summary.mean_gang_waits
       << ", mean_gang_wait_seconds=" << summary.mean_gang_wait_seconds;
  }
  if (summary.econ_trials > 0) {
    os << ", econ_trials=" << summary.econ_trials
       << ", mean_revenue=" << summary.mean_revenue
       << ", mean_energy_cost=" << summary.mean_energy_cost
       << ", mean_net_profit=" << summary.mean_net_profit
       << ", mean_value_offered=" << summary.mean_value_offered;
  }
  if (summary.failed_trials > 0 || summary.retried_trials > 0 ||
      summary.timed_out_trials > 0) {
    os << ", failed_trials=" << summary.failed_trials
       << ", timed_out_trials=" << summary.timed_out_trials
       << ", retried_trials=" << summary.retried_trials;
  }
  if (summary.validation_checks > 0 || summary.validation_violations > 0) {
    os << ", validation_checks=" << summary.validation_checks
       << ", validation_violations=" << summary.validation_violations;
  }
  if (!summary.counters.empty()) {
    os << ", counters=" << summary.counters;
    if (summary.counters.decisions() > 0) {
      os << ", mean_decision_us="
         << 1e6 * summary.counters.decision_seconds /
                static_cast<double>(summary.counters.decisions());
    }
  }
  return os << "}";
}

}  // namespace ecdra::sim
