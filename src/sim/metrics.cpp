#include "sim/metrics.hpp"

#include <ostream>
#include <type_traits>

#include "util/assert.hpp"

namespace ecdra::sim {

namespace {

/// One table row. `Field` is a captureless lambda returning a reference into
/// the result (FIELD); its type picks the ResultValue alternative.
template <typename Field>
constexpr ResultField Row(ResultBlock block, std::string_view key, Field,
                          double SummaryStatistics::* mean = nullptr,
                          bool omit_when_zero = false) {
  return ResultField{
      .key = key,
      .block = block,
      .get = [](const TrialResult& result) -> ResultValue {
        return Field{}(result);
      },
      .set =
          [](TrialResult& result, const ResultValue& value) {
            auto& slot = Field{}(result);
            slot = std::get<std::remove_reference_t<decltype(slot)>>(value);
          },
      .omit_when_zero = omit_when_zero,
      .mean = mean,
  };
}

#define FIELD(path) [](auto& result) -> auto& { return result.path; }

using enum ResultBlock;
using S = SummaryStatistics;
constexpr bool kOmitWhenZero = true;

// The table. Row order is the record's key order within each block.
constexpr ResultField kResultFields[] = {
    Row(kTop, "window", FIELD(window_size)),
    Row(kTop, "completed", FIELD(completed), &S::mean_completed),
    Row(kTop, "missed", FIELD(missed_deadlines), &S::mean_missed),
    Row(kTop, "discarded", FIELD(discarded), &S::mean_discarded),
    Row(kTop, "late", FIELD(finished_late)),
    Row(kTop, "over_budget", FIELD(on_time_but_over_budget)),
    Row(kTop, "cancelled", FIELD(cancelled), &S::mean_cancelled),
    Row(kTop, "failures", FIELD(failures_injected), &S::mean_failures),
    Row(kTop, "repairs", FIELD(repairs_applied)),
    Row(kTop, "throttles", FIELD(throttles_injected)),
    Row(kTop, "lost", FIELD(tasks_lost_to_failures), &S::mean_tasks_lost),
    Row(kTop, "remapped", FIELD(tasks_remapped), &S::mean_remapped),
    Row(kTop, "remapped_on_time", FIELD(remapped_on_time),
        &S::mean_remapped_on_time),
    Row(kTop, "domain_outages", FIELD(domain_outages),
        &S::mean_domain_outages, kOmitWhenZero),
    Row(kTop, "domain_repairs", FIELD(domain_repairs), nullptr,
        kOmitWhenZero),
    Row(kTop, "weighted_total", FIELD(weighted_total)),
    Row(kTop, "weighted_completed", FIELD(weighted_completed)),
    Row(kTop, "weighted_missed", FIELD(weighted_missed)),
    Row(kTop, "energy", FIELD(total_energy), &S::mean_energy),
    Row(kTop, "exhausted_at", FIELD(energy_exhausted_at)),
    Row(kTop, "energy_remaining", FIELD(estimated_energy_remaining)),
    Row(kTop, "makespan", FIELD(makespan), &S::mean_makespan),

    Row(kStream, "windows", FIELD(stream.windows)),
    Row(kStream, "deferred", FIELD(stream.deferred),
        &S::mean_stream_deferred),
    Row(kStream, "admission_dropped", FIELD(stream.admission_dropped),
        &S::mean_stream_dropped),
    Row(kStream, "released", FIELD(stream.released),
        &S::mean_stream_released),
    Row(kStream, "forced", FIELD(stream.forced_admissions)),
    Row(kStream, "pen_peak", FIELD(stream.pen_peak)),
    Row(kStream, "emergency_entries", FIELD(stream.emergency_entries)),
    Row(kStream, "emergency_seconds", FIELD(stream.emergency_seconds),
        &S::mean_emergency_seconds),
    Row(kStream, "degraded_entries", FIELD(stream.degraded_entries)),
    Row(kStream, "degraded_seconds", FIELD(stream.degraded_seconds),
        &S::mean_degraded_seconds),
    Row(kStream, "min_available", FIELD(stream.min_available)),
    Row(kStream, "final_available", FIELD(stream.final_available)),

    Row(kJobs, "jobs", FIELD(jobs.jobs)),
    Row(kJobs, "on_time", FIELD(jobs.jobs_on_time), &S::mean_jobs_on_time),
    Row(kJobs, "late", FIELD(jobs.jobs_late)),
    Row(kJobs, "failed", FIELD(jobs.jobs_failed), &S::mean_jobs_failed),
    Row(kJobs, "gangs_placed", FIELD(jobs.gangs_placed),
        &S::mean_gangs_placed),
    Row(kJobs, "gang_waits", FIELD(jobs.gang_waits), &S::mean_gang_waits),
    Row(kJobs, "gangs_requeued", FIELD(jobs.gangs_requeued)),
    Row(kJobs, "gangs_abandoned", FIELD(jobs.gangs_abandoned)),
    Row(kJobs, "pending_peak", FIELD(jobs.pending_peak)),
    Row(kJobs, "gang_wait_seconds", FIELD(jobs.gang_wait_seconds),
        &S::mean_gang_wait_seconds),

    Row(kEcon, "revenue", FIELD(econ.revenue), &S::mean_revenue),
    Row(kEcon, "energy_cost", FIELD(econ.energy_cost), &S::mean_energy_cost),
    Row(kEcon, "net_profit", FIELD(econ.net_profit), &S::mean_net_profit),
    Row(kEcon, "value_offered", FIELD(econ.value_offered),
        &S::mean_value_offered),
    Row(kEcon, "paid_finishes", FIELD(econ.paid_finishes)),
    Row(kEcon, "decayed_finishes", FIELD(econ.decayed_finishes)),
    Row(kEcon, "premium_total", FIELD(econ.premium_total)),
    Row(kEcon, "premium_on_time", FIELD(econ.premium_on_time)),
};

#undef FIELD

/// Prints one block's rows as "key=value" pairs, skipping omitted zeros.
void PrintRows(std::ostream& os, const TrialResult& result,
               ResultBlock block) {
  const char* separator = "";
  for (const ResultField& field : kResultFields) {
    if (field.block != block) continue;
    const ResultValue value = field.get(result);
    if (field.omit_when_zero && value == ResultValue{std::size_t{0}}) {
      continue;
    }
    os << separator << field.key << '=';
    separator = ", ";
    std::visit(
        [&]<typename T>(const T& number) {
          if constexpr (std::is_same_v<T, std::optional<double>>) {
            if (number) {
              os << *number;
            } else {
              os << "null";
            }
          } else {
            os << number;
          }
        },
        value);
  }
}

}  // namespace

std::span<const ResultField> ResultFields() noexcept { return kResultFields; }

std::ostream& operator<<(std::ostream& os, const TrialResult& result) {
  os << "TrialResult{";
  PrintRows(os, result, ResultBlock::kTop);
  for (const ResultBlock block : kExtensionBlocks) {
    if (!ResultBlockEnabled(result, block)) continue;
    os << ", " << ResultBlockKey(block) << '{';
    PrintRows(os, result, block);
    os << '}';
  }
  if (!result.validation.ok()) {
    os << ", validation=" << result.validation;
  }
  return os << '}';
}

SummaryStatistics SummarizeTrials(std::span<const TrialResult> trials) {
  ECDRA_REQUIRE(!trials.empty(), "cannot summarize zero trials");
  SummaryStatistics summary;
  summary.trials = trials.size();
  // Each mean sums its trials in order, then divides once. Only count and
  // number rows carry a mean.
  const auto as_double = [](const ResultValue& value) {
    const double* number = std::get_if<double>(&value);
    if (number != nullptr) return *number;
    return static_cast<double>(std::get<std::size_t>(value));
  };
  for (const TrialResult& trial : trials) {
    for (const ResultField& field : kResultFields) {
      if (field.mean != nullptr) {
        summary.*(field.mean) += as_double(field.get(trial));
      }
    }
    if (trial.stream.enabled) ++summary.stream_trials;
    if (trial.jobs.enabled) ++summary.job_trials;
    if (trial.econ.enabled) ++summary.econ_trials;
    summary.counters.Merge(trial.counters);
    summary.validation_checks += trial.validation.checks_run;
    summary.validation_violations += trial.validation.violations;
  }
  const double n = static_cast<double>(trials.size());
  for (const ResultField& field : kResultFields) {
    if (field.mean != nullptr) summary.*(field.mean) /= n;
  }
  return summary;
}

std::ostream& operator<<(std::ostream& os, const SummaryStatistics& summary) {
  os << "SummaryStatistics{trials=" << summary.trials;
  for (const ResultField& field : kResultFields) {
    if (field.mean == nullptr || summary.*(field.mean) == 0.0) continue;
    os << ", mean_";
    if (field.block != kTop) os << ResultBlockKey(field.block) << '_';
    os << field.key << '=' << summary.*(field.mean);
  }
  if (summary.stream_trials > 0) {
    os << ", stream_trials=" << summary.stream_trials;
  }
  if (summary.job_trials > 0) os << ", job_trials=" << summary.job_trials;
  if (summary.econ_trials > 0) os << ", econ_trials=" << summary.econ_trials;
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
