#include "sim/experiment_runner.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/gang_placement.hpp"
#include "core/scheduler.hpp"
#include "governor/governor.hpp"
#include "sim/checkpoint.hpp"
#include "stream/admission.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace ecdra::sim {
namespace {

/// Eq. 8: p_avg = (1 / (N * |P|)) * sum_i sum_pi mu(i, pi).
double AveragePower(const cluster::Cluster& cluster) {
  double sum = 0.0;
  for (const cluster::Node& node : cluster.nodes()) {
    for (const cluster::PState& pstate : node.pstates) {
      sum += pstate.power_watts;
    }
  }
  return sum / (static_cast<double>(cluster.num_nodes()) *
                static_cast<double>(cluster::kNumPStates));
}

/// Refuses a policy name that `registry` does not hold, in
/// policy::RequireValidSpec's one-line form: key, flag, registered names.
void RequireRegistered(const policy::ScenarioSpec& spec, std::string_view key,
                       const auto& registry) {
  const auto knob = std::ranges::find(policy::Knobs(), key, &policy::Knob::key);
  const std::string name = knob->get(spec);
  if (registry.Contains(name)) return;
  throw std::invalid_argument(std::string(key) + " (" +
                              std::string(knob->flag) +
                              ") must be registered (registered: " +
                              registry.JoinedNames() + "), got " + name);
}

}  // namespace

ExperimentSetup BuildExperimentSetup(std::uint64_t master_seed,
                                     const SetupOptions& options) {
  util::RngStream master(master_seed);

  util::RngStream cluster_rng = master.Substream("cluster");
  cluster::Cluster cluster =
      cluster::BuildRandomCluster(cluster_rng, options.cluster);

  workload::CvbOptions cvb = options.cvb;
  cvb.num_machines = cluster.num_nodes();
  util::RngStream etc_rng = master.Substream("etc");
  workload::EtcMatrix etc = workload::GenerateCvbMatrix(etc_rng, cvb);

  const double exec_cov =
      options.exec_cov > 0.0 ? options.exec_cov : cvb.task_cov;
  workload::TaskTypeTable types(cluster, etc, exec_cov, options.discretize);

  const double t_avg = types.GrandMeanExec();
  const double p_avg = AveragePower(cluster);

  ExperimentSetup setup{
      .cluster = std::move(cluster),
      .etc = std::move(etc),
      .types = std::move(types),
      .workload = options.workload,
      .t_avg = t_avg,
      .p_avg = p_avg,
      .energy_budget = t_avg * p_avg * options.budget_task_count,
      .master_seed = master_seed,
      .window_size = options.workload.arrivals.total_tasks(),
      .environment = options,
  };
  ECDRA_ASSERT(setup.window_size >= 1, "experiment window is empty");
  return setup;
}

ExperimentSetup BuildExperimentSetup(const policy::ScenarioSpec& spec) {
  return BuildExperimentSetup(spec.master_seed, spec.environment);
}

RunOptions RunOptionsFromSpec(const policy::ScenarioSpec& spec) {
  // One check for every knob, whether a spec file or a flag set it, and
  // for every policy name against its live registry; then the typed refusal
  // of a stream block the run mode cannot honor (and a streaming run
  // without a rate), naming the incompatible stream.* fields instead of
  // silently ignoring the block.
  policy::RequireValidSpec(spec);
  RequireRegistered(spec, "run.governor", governor::GovernorRegistry());
  RequireRegistered(spec, "stream.admission", stream::AdmissionRegistry());
  RequireRegistered(spec, "run.jobs.placement", core::GangPlacementRegistry());
  policy::RequireStreamCompatible(spec.mode, spec.stream);
  RunOptions options;
  static_cast<policy::RunKnobs&>(options) = spec;
  return options;
}

TrialResult RunSingleTrial(const ExperimentSetup& setup,
                           const std::string& heuristic,
                           const std::string& filter_variant,
                           std::size_t trial_index, const RunOptions& options) {
  util::RngStream trial_rng =
      util::RngStream(setup.master_seed).Substream("trial", trial_index);

  util::RngStream workload_rng = trial_rng.Substream("workload");
  std::vector<workload::Task> tasks =
      workload::GenerateWorkload(setup.types, setup.workload, workload_rng);

  // Econ extension: value and SLA tier are workload attributes, assigned
  // from a dedicated substream so enabling the model shifts no workload,
  // heuristic, or sim draw — a trivial model skips the draw entirely and
  // the trial is bit-identical to a pre-econ build.
  const bool econ_active = options.econ_enabled && !options.econ.trivial();
  if (econ_active) {
    econ::AssignEconAttributes(tasks, options.econ, setup.types.num_types(),
                               trial_rng.Substream("econ"));
  }

  // Streaming mode replaces the fixed zeta_max with the accrual line's
  // total over the arrival horizon: the scheduler's fair share and the
  // governor's budget schedule then track everything that will ever flow
  // into the account, while the engine's within-energy test is the live
  // account balance.
  double energy_budget = setup.energy_budget;
  stream::StreamConfig stream_config;
  if (options.mode == policy::RunMode::kStream) {
    stream_config = stream::ResolveStreamConfig(options.stream, setup.t_avg,
                                                tasks.back().arrival);
    energy_budget = stream_config.initial_energy +
                    stream_config.energy_rate * tasks.back().arrival;
  }

  // The scheduler's arrival window is the trial's actual task count: with
  // jobs enabled each arrival event expands into that job's stage tasks (so
  // the count varies per trial); with jobs disabled it equals
  // setup.window_size exactly.
  const std::size_t trial_window = tasks.size();
  core::ImmediateModeScheduler scheduler(
      setup.cluster, setup.types,
      core::MakeHeuristic(heuristic, trial_rng.Substream("heuristic")),
      core::MakeFilterChain(filter_variant, options.filter_options),
      energy_budget, trial_window);

  TrialOptions trial_options{
      .energy_budget = energy_budget,
      .idle_policy = options.idle_policy,
      .cancel_policy = options.cancel_policy,
      .collect_task_records = options.collect_task_records,
      .collect_robustness_trace = options.collect_robustness_trace,
      .pstate_transition_latency = options.pstate_transition_latency,
      .power_cov = options.power_cov,
      .collect_counters = options.collect_counters,
      .trace_sink = options.trace_sink,
      .trial_index = trial_index,
      .fault_schedule = {},
      .recovery_policy = options.recovery,
      .fault_domains = {},
      .validation = options.validation,
      .validation_fail_fast = options.validation_fail_fast,
      .trial_timeout = options.trial_timeout,
      .governor = options.governor,
      .stream = stream_config,
      .jobs = {.enabled = setup.workload.jobs.enabled,
               .placement = options.jobs_placement},
      .econ = {.enabled = econ_active, .model = options.econ},
  };
  if (options.fault.enabled()) {
    // The fault schedule draws only from the trial's "fault" substream, so
    // every workload/heuristic/sim draw matches the fault-free run exactly.
    fault::FaultModelOptions fault_options = options.fault;
    if (fault_options.horizon <= 0.0) {
      fault_options.horizon = tasks.back().arrival + 20.0 * setup.t_avg;
    }
    fault::FaultDomainLayout domains =
        fault::ResolveFaultDomains(setup.cluster, options.fault_domains);
    trial_options.fault_schedule = fault::GenerateFaultSchedule(
        setup.cluster, domains, fault_options, trial_rng.Substream("fault"));
    trial_options.fault_domains = std::move(domains);
  }
  Engine engine(setup.cluster, setup.types, std::move(tasks), scheduler,
                trial_options, trial_rng.Substream("sim"));
  return engine.Run();
}

namespace {

/// Per-trial outcome slot, written by exactly one pool task.
struct TrialSlot {
  std::optional<TrialResult> result;
  std::optional<TrialFailure> failure;
  bool resumed = false;
  std::size_t attempts = 0;
};

/// Runs every attempt of one trial; never throws for a trial failure (those
/// land in the slot) — only for checkpoint-write problems.
void RunTrialAttempts(const ExperimentSetup& setup,
                      const std::string& heuristic,
                      const std::string& filter_variant, std::size_t trial,
                      const RunOptions& options, CheckpointWriter* writer,
                      TrialSlot& slot) {
  std::string last_error;
  bool timed_out = false;
  for (std::size_t attempt = 1; attempt <= options.max_attempts; ++attempt) {
    try {
      if (options.pre_trial_hook) options.pre_trial_hook(trial, attempt);
      // Retries re-run the same (master seed, trial) substreams, so a
      // successful retry is bit-identical to a first-attempt success.
      TrialResult result =
          RunSingleTrial(setup, heuristic, filter_variant, trial, options);
      if (writer != nullptr) {
        writer->Append(heuristic, filter_variant, trial, result);
      }
      slot.result = std::move(result);
      slot.attempts = attempt;
      return;
    } catch (const TrialTimeoutError& error) {
      last_error = error.what();
      timed_out = true;
    } catch (const CheckpointError&) {
      throw;  // infrastructure failure, not a trial failure
    } catch (const std::exception& error) {
      last_error = error.what();
      timed_out = false;
    }
  }
  slot.attempts = options.max_attempts;
  slot.failure = TrialFailure{
      .heuristic = heuristic,
      .filter_variant = filter_variant,
      .trial_index = trial,
      .error = std::move(last_error),
      .attempts = options.max_attempts,
      .timed_out = timed_out,
  };
}

}  // namespace

SweepResult RunSweep(const ExperimentSetup& setup, const std::string& heuristic,
                     const std::string& filter_variant,
                     const RunOptions& options) {
  ECDRA_REQUIRE(options.num_trials >= 1, "need at least one trial");
  ECDRA_REQUIRE(options.max_attempts >= 1, "need at least one attempt");

  // A trace path takes precedence over a caller-provided sink; the file
  // sink is internally synchronized so all trials can share it.
  RunOptions effective = options;
  std::unique_ptr<obs::TraceSink> file_sink;
  if (!options.trace_path.empty()) {
    file_sink = obs::OpenJsonlTraceFile(options.trace_path);
    effective.trace_sink = file_sink.get();
  }

  const bool checkpointing = !options.checkpoint_path.empty();
  if ((checkpointing || options.resume != nullptr) &&
      (options.collect_task_records || options.collect_robustness_trace)) {
    throw CheckpointError(
        CheckpointErrorKind::kUnsupportedOptions,
        "per-task records / robustness traces cannot be checkpointed; "
        "disable collect_task_records and collect_robustness_trace");
  }
  const CheckpointHeader header{
      .schema_version = kCheckpointSchemaVersion,
      .master_seed = setup.master_seed,
      .config_hash = ConfigFingerprint(setup, options),
  };
  // A salvaged store whose header record itself was destroyed carries no
  // attestable header — it is empty (salvage truncated everything), so there
  // is nothing to verify and nothing to serve; the sweep re-runs from zero.
  if (options.resume != nullptr && options.resume->header_valid()) {
    VerifyCheckpointHeader(options.resume->header(), header, "resume store");
  }
  std::unique_ptr<CheckpointWriter> writer;
  if (checkpointing) {
    writer =
        std::make_unique<CheckpointWriter>(options.checkpoint_path, header);
  }

  std::vector<TrialSlot> slots(options.num_trials);

  // Serve resumed trials from the store before the fan-out; their stored
  // results are bit-identical to re-execution (exact-round-trip doubles),
  // so the merged sweep equals an uninterrupted run.
  for (std::size_t trial = 0; trial < options.num_trials; ++trial) {
    if (options.resume == nullptr) break;
    if (const TrialResult* stored =
            options.resume->Find(heuristic, filter_variant, trial)) {
      slots[trial].result = *stored;
      slots[trial].resumed = true;
    }
  }

  util::ThreadPool pool(options.num_threads);
  std::vector<std::future<void>> futures;
  futures.reserve(options.num_trials);
  for (std::size_t trial = 0; trial < options.num_trials; ++trial) {
    if (slots[trial].resumed) continue;
    futures.push_back(pool.Submit([&, trial] {
      RunTrialAttempts(setup, heuristic, filter_variant, trial, effective,
                       writer.get(), slots[trial]);
    }));
  }
  // Drain every future before letting an infrastructure exception escape:
  // the pool tasks reference `slots`/`writer`, which must outlive them.
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  if (file_sink != nullptr) file_sink->Flush();

  SweepResult sweep;
  sweep.results.reserve(options.num_trials);
  sweep.trial_indices.reserve(options.num_trials);
  for (std::size_t trial = 0; trial < options.num_trials; ++trial) {
    TrialSlot& slot = slots[trial];
    if (slot.result) {
      sweep.results.push_back(std::move(*slot.result));
      sweep.trial_indices.push_back(trial);
      if (slot.resumed) {
        ++sweep.trials_resumed;
      } else if (slot.attempts > 1) {
        ++sweep.trials_retried;
      }
    } else {
      ECDRA_ASSERT(slot.failure.has_value(), "trial slot has no outcome");
      sweep.failures.push_back(std::move(*slot.failure));
    }
  }
  return sweep;
}

SummaryStatistics SummarizeSweep(const SweepResult& sweep) {
  SummaryStatistics summary;
  if (!sweep.results.empty()) summary = SummarizeTrials(sweep.results);
  summary.failed_trials = sweep.failures.size();
  summary.timed_out_trials = static_cast<std::size_t>(
      std::count_if(sweep.failures.begin(), sweep.failures.end(),
                    [](const TrialFailure& f) { return f.timed_out; }));
  summary.retried_trials = sweep.trials_retried;
  return summary;
}

std::vector<TrialResult> RunTrials(const ExperimentSetup& setup,
                                   const std::string& heuristic,
                                   const std::string& filter_variant,
                                   const RunOptions& options) {
  SweepResult sweep = RunSweep(setup, heuristic, filter_variant, options);
  if (!sweep.complete()) {
    const TrialFailure& failure = sweep.failures.front();
    std::string message =
        "trial failed: heuristic=" + failure.heuristic +
        " filter=" + failure.filter_variant +
        " trial=" + std::to_string(failure.trial_index) + " after " +
        std::to_string(failure.attempts) +
        (failure.attempts == 1 ? " attempt" : " attempts") +
        (failure.timed_out ? " (timed out)" : "") + ": " + failure.error;
    if (sweep.failures.size() > 1) {
      message += " (+" + std::to_string(sweep.failures.size() - 1) +
                 " more failed trials)";
    }
    throw std::runtime_error(message);
  }
  return std::move(sweep.results);
}

}  // namespace ecdra::sim
