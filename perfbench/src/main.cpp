// ecdra_perfbench: the repository benchmark. One invocation runs one
// workload and prints its metrics; the last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   ecdra_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                   [--out DIR] [--commit TEXT]
//
// --trace 0 reports the end-to-end metrics with every instrumentation point
// detached. --trace 1 runs the same trials once untraced and once with the
// timing wrappers and library counters attached, and reports the per-layer
// metrics. perfbench/README.md defines every metric.
//
// The environment (cluster, ETC matrix, pmf table, budget) is always the
// paper's canonical sample at kPaperMasterSeed, held constant as in §VI;
// --seed is the master seed of the trial streams (arrivals, types,
// deadlines, sampled execution times, faults). Seed 14 therefore replays
// the paper's own trials.
//
// Exit status: 0 when every output check passed, 1 when a check failed
// (the result line is still printed), 2 for a usage error or a run that
// could not start (no result line).

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cluster/cluster_builder.hpp"
#include "experiment/paper_config.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "policy/scenario_spec.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment_runner.hpp"
#include "stats.hpp"
#include "workload/etc_matrix.hpp"
#include "workload/task_type_table.hpp"
#include "workload/workload_generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sim = ecdra::sim;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr const char* kGoldenPath = "tests/golden/paper_grid.txt";
/// Set-up builds per serial pass of the end-to-end run, spread evenly among
/// the trials so one slow spell of the host cannot land on all of them.
constexpr std::size_t kSetupsPerPass = 8;
/// Set-up step timings per traced run.
constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kGoldenTrials = 2;
/// Every file a run writes under --out; a run removes only these.
constexpr const char* kOutputFiles[] = {
    "trace-serial.jsonl", "trace-serial-traced.jsonl", "trace-sweep.jsonl",
    "trace-sweep-traced.jsonl", "checkpoint.jsonl"};

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = ecdra::experiment::kPaperMasterSeed;
  double seconds = 35.0;
  bool trace = false;
  std::string out = ".bench_out";
  std::string commit = "unknown";
};

class UsageError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

template <typename T>
T ParseNumber(std::string_view flag, std::string_view text) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw UsageError(std::string(flag) + " expects a number, got '" +
                     std::string(text) + "'");
  }
  return value;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) throw UsageError(std::string(flag) + " needs a value");
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseNumber<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = ParseNumber<double>(flag, value);
      if (!(args.seconds > 0.0)) throw UsageError("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw UsageError("--trace is 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      throw UsageError("unknown flag " + std::string(flag));
    }
  }
  if (args.workload.empty()) throw UsageError("--workload is required");
  return args;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::size_t Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand.erase(std::find(brand.begin(), brand.end(), '\0'), brand.end());
    const auto first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Peak resident memory of this program image. getrusage's ru_maxrss is no
/// use here: it survives execve, so it would report the launching Python
/// process's footprint whenever that is larger. VmHWM starts afresh at exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("/proc/self/status has no VmHWM line");
}

std::string Quote(std::string_view text) {
  return '"' + ecdra::obs::json::Escape(text) + '"';
}

/// One reported metric: its value, unit, direction, and sample count.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;
  std::size_t samples = 0;
};

class Bench {
 public:
  Bench(Args args, Workload workload)
      : args_(std::move(args)),
        workload_(std::move(workload)),
        threads_(std::min<std::size_t>(2, Nproc())) {
    options_ = sim::RunOptionsFromSpec(workload_.spec);
    options_.num_threads = threads_;
  }

  int Run() {
    fs::create_directories(args_.out);
    for (const char* file : kOutputFiles) fs::remove(Path(file));
    if (workload_.golden) LoadGolden();

    if (args_.trace) {
      TimeSetupSteps();
    } else {
      setup_.emplace(sim::BuildExperimentSetup(workload_.spec));
    }
    CheckRegime();
    if (workload_.golden) CheckGolden();
    setup_->master_seed = args_.seed;

    if (args_.trace) {
      RunTraced();
    } else {
      RunEndToEnd();
    }
    PrintReport();
    return failed_ == 0 ? 0 : 1;
  }

 private:
  // -- Setup ---------------------------------------------------------------

  /// Times BuildExperimentSetup's three steps through their own entry
  /// points, with the substreams BuildExperimentSetup derives, and checks
  /// that the steps rebuild the same environment.
  void TimeSetupSteps() {
    namespace workload = ecdra::workload;
    const sim::SetupOptions& env = workload_.spec.environment;
    std::vector<double> cluster_s, etc_s, types_s;
    std::optional<double> t_avg;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
      const ecdra::util::RngStream master(workload_.spec.master_seed);
      Clock::time_point start = Clock::now();
      ecdra::util::RngStream cluster_rng = master.Substream("cluster");
      const ecdra::cluster::Cluster cluster =
          ecdra::cluster::BuildRandomCluster(cluster_rng, env.cluster);
      cluster_s.push_back(SecondsSince(start));

      start = Clock::now();
      workload::CvbOptions cvb = env.cvb;
      cvb.num_machines = cluster.num_nodes();
      ecdra::util::RngStream etc_rng = master.Substream("etc");
      const workload::EtcMatrix etc = workload::GenerateCvbMatrix(etc_rng, cvb);
      etc_s.push_back(SecondsSince(start));

      start = Clock::now();
      const workload::TaskTypeTable types(
          cluster, etc, env.exec_cov > 0.0 ? env.exec_cov : cvb.task_cov,
          env.discretize);
      types_s.push_back(SecondsSince(start));
      t_avg = types.GrandMeanExec();
    }
    Add("setup.cluster_s", Median(cluster_s), "s", "lower", kSetupRepeats);
    Add("setup.etc_s", Median(etc_s), "s", "lower", kSetupRepeats);
    Add("setup.types_s", Median(types_s), "s", "lower", kSetupRepeats);

    setup_.emplace(sim::BuildExperimentSetup(workload_.spec));
    ++attempted_;
    if (*t_avg != setup_->t_avg) {
      Fail("setup steps rebuilt another environment than "
           "BuildExperimentSetup (t_avg differs)");
    }
  }

  /// The service mix must run its account below the sustaining rate.
  void CheckRegime() {
    if (options_.mode != ecdra::policy::RunMode::kStream) return;
    ++attempted_;
    const double sustaining = SustainingRate(*setup_);
    if (!(options_.stream.energy_rate < sustaining)) {
      Fail("stream.energy_rate " + std::to_string(options_.stream.energy_rate) +
           " is not below the sustaining rate " + std::to_string(sustaining));
    }
  }

  // -- Golden check ----------------------------------------------------------

  void LoadGolden() {
    std::ifstream is(kGoldenPath);
    if (!is) {
      throw std::runtime_error(std::string("cannot read ") + kGoldenPath);
    }
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty() || line.front() == '#') continue;
      std::istringstream fields(line);
      std::string mode, heuristic, variant, hash;
      std::size_t trial = 0;
      fields >> mode >> heuristic >> variant >> trial >> hash;
      if (mode == "immediate" && heuristic == workload_.heuristic() &&
          variant == workload_.variant()) {
        golden_[trial] = hash;
      }
    }
    for (std::size_t trial = 0; trial < kGoldenTrials; ++trial) {
      if (!golden_.contains(trial)) {
        throw std::runtime_error(
            std::string(kGoldenPath) + " has no hash for " +
            workload_.heuristic() + ' ' + workload_.variant() + " trial " +
            std::to_string(trial));
      }
    }
  }

  /// Trials 0-1 of the paper seed reproduce the committed result hashes.
  void CheckGolden() {
    for (std::size_t trial = 0; trial < kGoldenTrials; ++trial) {
      ++attempted_;
      const std::string hash = ecdra::policy::Fnv1a64Hex(sim::TrialResultToJson(
          sim::RunSingleTrial(*setup_, workload_.heuristic(),
                              workload_.variant(), trial, options_)));
      if (hash != golden_.at(trial)) {
        Fail("trial " + std::to_string(trial) + " hash " + hash +
             " differs from the golden " + golden_.at(trial));
      }
    }
  }

  // -- Passes ----------------------------------------------------------------

  struct PassConfig {
    std::string heuristic;
    std::string variant;
    sim::RunOptions options;
  };

  /// The policy names and run options of one pass. A traced pass swaps in
  /// the timing wrappers and attaches the library's counters.
  PassConfig Configure(bool traced) const {
    PassConfig config{workload_.heuristic(), workload_.variant(), options_};
    if (traced) {
      config.heuristic = std::string(kTimedPrefix) + config.heuristic;
      config.variant = TimedVariant(config.variant, workload_.gangs());
      config.options.governor =
          std::string(kTimedPrefix) + config.options.governor;
      config.options.collect_counters = true;
    }
    return config;
  }

  struct SerialPass {
    std::vector<double> wall_s;
    /// Index i holds trial first + i; a default result marks a trial that
    /// threw.
    std::vector<sim::TrialResult> results;
  };

  /// Runs trials [first, end) one at a time through RunSingleTrial and
  /// checks each result. With `traced`, the timing wrappers and library
  /// counters are attached and `layers` receives one entry per trial. With
  /// `setup_s`, kSetupsPerPass timed BuildExperimentSetup calls per
  /// workload_.trials trials are interleaved with the trials; each rebuilds
  /// setup_ in place, so only one environment is ever live.
  SerialPass RunSerial(std::size_t first, std::size_t end, bool traced,
                       std::vector<TrialLayers>* layers,
                       std::vector<double>* setup_s = nullptr) {
    PassConfig config = Configure(traced);
    std::unique_ptr<ecdra::obs::TraceSink> file;
    std::unique_ptr<TimingTraceSink> timing;
    if (workload_.io) {
      file = ecdra::obs::OpenJsonlTraceFile(
          Path(traced ? "trace-serial-traced.jsonl" : "trace-serial.jsonl"));
      config.options.trace_sink = file.get();
      if (traced) {
        timing = std::make_unique<TimingTraceSink>(*file);
        config.options.trace_sink = timing.get();
      }
    }

    SerialPass pass;
    const std::size_t n = workload_.trials;
    for (std::size_t trial = first; trial < end; ++trial) {
      if (setup_s != nullptr &&
          trial * kSetupsPerPass / n != (trial + 1) * kSetupsPerPass / n) {
        setup_.reset();
        const Clock::time_point start = Clock::now();
        setup_.emplace(sim::BuildExperimentSetup(workload_.spec));
        setup_s->push_back(SecondsSince(start));
        setup_->master_seed = args_.seed;
      }
      ++attempted_;
      TrialLayers layer;
      if (traced) {
        ecdra::util::RngStream rng =
            ecdra::util::RngStream(setup_->master_seed)
                .Substream("trial", trial)
                .Substream("workload");
        const Clock::time_point start = Clock::now();
        const auto tasks = ecdra::workload::GenerateWorkload(
            setup_->types, setup_->workload, rng);
        layer.generate_s = SecondsSince(start);
      }
      try {
        const LayerClockScope scope(layer.clock);
        const Clock::time_point start = Clock::now();
        sim::TrialResult result = sim::RunSingleTrial(
            *setup_, config.heuristic, config.variant, trial, config.options);
        layer.wall_s = SecondsSince(start);
        pass.wall_s.push_back(layer.wall_s);
        layer.counters = result.counters;
        layer.jobs = result.jobs;
        layer.domain_outages = result.domain_outages;
        layer.tasks_remapped = result.tasks_remapped;
        CheckResult(trial, result, traced ? "traced" : "serial");
        pass.results.push_back(std::move(result));
      } catch (const std::exception& e) {
        Fail("trial " + std::to_string(trial) + " threw: " + e.what());
        if (trial == reference_.size()) reference_.emplace_back();
        pass.results.emplace_back();
        continue;
      }
      if (traced) {
        for (const std::string& problem : CheckLayerSanity(layer)) {
          Fail("trial " + std::to_string(trial) + ": " + problem);
        }
        layers->push_back(std::move(layer));
      }
    }
    if (file != nullptr) file->Flush();
    return pass;
  }

  struct SweepPass {
    double wall_s = 0.0;
    std::size_t tasks = 0;
    /// By trial index; a default result marks a failed trial.
    std::vector<sim::TrialResult> results;
  };

  /// Trials [0, count) through RunSweep on the fixed thread count, each
  /// result checked. The io workload also writes the sweep's JSONL trace
  /// and checkpoint store.
  SweepPass RunThreaded(bool traced, std::size_t count) {
    PassConfig config = Configure(traced);
    sim::RunOptions& options = config.options;
    options.num_trials = count;
    // The traced pass writes its trace too: decision records evaluate the
    // chosen candidate's rho, which adds pmf work to the exact counts.
    if (workload_.io) {
      options.trace_path =
          Path(traced ? "trace-sweep-traced.jsonl" : "trace-sweep.jsonl");
    }
    if (workload_.io && !traced) {
      options.checkpoint_path = Path("checkpoint.jsonl");
      fs::remove(options.checkpoint_path);
    }
    SweepPass pass;
    pass.results.resize(count);
    attempted_ += count;
    const Clock::time_point start = Clock::now();
    sim::SweepResult sweep =
        sim::RunSweep(*setup_, config.heuristic, config.variant, options);
    pass.wall_s = SecondsSince(start);
    for (const sim::TrialFailure& failure : sweep.failures) {
      Fail("sweep trial " + std::to_string(failure.trial_index) +
           " failed: " + failure.error);
    }
    for (std::size_t i = 0; i < sweep.results.size(); ++i) {
      const std::size_t trial = sweep.trial_indices[i];
      pass.tasks += sweep.results[i].window_size;
      CheckResult(trial, sweep.results[i],
                  traced ? "traced threaded" : "threaded");
      pass.results[trial] = std::move(sweep.results[i]);
    }
    if (!options.checkpoint_path.empty()) {
      CheckCheckpoint(options.checkpoint_path, count);
    }
    return pass;
  }

  /// The checkpoint store holds exactly the reference results.
  void CheckCheckpoint(const std::string& path, std::size_t count) {
    attempted_ += count;
    try {
      const sim::CheckpointStore store = sim::CheckpointStore::Load(path);
      for (std::size_t trial = 0; trial < count; ++trial) {
        const sim::TrialResult* stored =
            store.Find(workload_.heuristic(), workload_.variant(), trial);
        if (stored == nullptr) {
          Fail("checkpoint has no record of trial " + std::to_string(trial));
        } else {
          CheckResult(trial, *stored, "checkpointed");
        }
      }
    } catch (const std::exception& e) {
      Fail(std::string("checkpoint store unreadable: ") + e.what());
    }
  }

  /// Checks a result bit for bit against the first serial run of its trial,
  /// which sets the reference (and the trial's missed-deadline count).
  void CheckResult(std::size_t trial, const sim::TrialResult& result,
                   std::string_view pass) {
    const std::string digest = ResultDigest(result);
    if (trial == reference_.size()) {
      reference_.push_back(digest);
      missed_.push_back(static_cast<double>(result.missed_deadlines));
    } else if (!reference_.at(trial).empty() && digest != reference_[trial]) {
      Fail(std::string(pass) + " trial " + std::to_string(trial) +
           " differs from its first serial run");
    }
  }

  // -- End-to-end run -------------------------------------------------------

  /// Passes over the trial set until --seconds is spent, at least
  /// workload_.min_passes of them. Each pass alternates a chunk of serial
  /// trials with a sweep of the first chunk, so both kinds of sample, and
  /// the set-up samples, are spread over the whole run.
  void RunEndToEnd() {
    std::vector<double> setup_s;
    std::vector<double> trial_s;
    std::size_t swept_tasks = 0;
    double sweep_s = 0.0;
    std::size_t sweeps = 0;
    const std::size_t chunk = workload_.sweep_trials;
    const Clock::time_point start = Clock::now();
    double last_pass_s = 0.0;
    while (passes_ < workload_.min_passes ||
           SecondsSince(start) + last_pass_s <= args_.seconds) {
      const Clock::time_point pass_start = Clock::now();
      for (std::size_t first = 0; first < workload_.trials; first += chunk) {
        const SerialPass serial = RunSerial(
            first, std::min(first + chunk, workload_.trials),
            /*traced=*/false, nullptr, &setup_s);
        trial_s.insert(trial_s.end(), serial.wall_s.begin(),
                       serial.wall_s.end());
        const SweepPass sweep = RunThreaded(/*traced=*/false, chunk);
        swept_tasks += sweep.tasks;
        sweep_s += sweep.wall_s;
        ++sweeps;
      }
      ++passes_;
      last_pass_s = SecondsSince(pass_start);
    }
    Add("setup_s", Median(setup_s), "s", "lower", setup_s.size());
    tail_percentile_ = TailPercentile(workload_.trials * workload_.min_passes);
    Add("trial_s_p50", Median(trial_s), "s", "lower", trial_s.size());
    Add("trial_s_tail", Percentile(trial_s, tail_percentile_), "s", "lower",
        trial_s.size());
    // Throughput over all sweeps together: the host drifts between faster
    // and slower spells, and a ratio of totals moves smoothly with the mix
    // where a median of per-sweep rates jumps between the two.
    Add("tasks_per_s", static_cast<double>(swept_tasks) / sweep_s, "1/s",
        "higher", sweeps);
    Add("peak_rss_mb", PeakRssMb(), "MB", "lower", 1);
    Add("missed_p50", Median(missed_), "count", "lower", missed_.size());
    Add("ok_share",
        1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_),
        "share", "higher", attempted_);
  }

  // -- Traced run -------------------------------------------------------------

  void RunTraced() {
    RegisterTimedPolicies();
    for (const std::string& problem : CheckTimedIdentity()) Fail(problem);

    const std::size_t n = workload_.trials;
    const SerialPass plain = RunSerial(0, n, /*traced=*/false, nullptr);
    const SweepPass plain_sweep = RunThreaded(/*traced=*/false, n);
    std::vector<TrialLayers> layers;
    const SerialPass traced = RunSerial(0, n, /*traced=*/true, &layers);
    const SweepPass traced_sweep = RunThreaded(/*traced=*/true, n);
    for (std::size_t trial = 0; trial < traced.results.size(); ++trial) {
      if (traced_sweep.results[trial].window_size == 0) continue;
      if (ExactCounts(traced_sweep.results[trial].counters) !=
          ExactCounts(traced.results[trial].counters)) {
        Fail("trial " + std::to_string(trial) +
             " counts differ between 1 and " + std::to_string(threads_) +
             " threads");
      }
    }
    passes_ = 2;
    if (layers.empty()) return;

    for (const LayerMetric& metric : PerTrialLayerMetrics()) {
      std::vector<double> samples;
      for (const TrialLayers& layer : layers) {
        samples.push_back(metric.value(layer));
      }
      Add(std::string(metric.name), Median(samples), std::string(metric.unit),
          std::string(metric.better), samples.size());
    }
    double serial_sum = 0.0;
    for (const double s : plain.wall_s) serial_sum += s;
    Add("runner.parallel_efficiency",
        serial_sum / (static_cast<double>(threads_) * plain_sweep.wall_s),
        "ratio", "higher", 1);
    const double trials = static_cast<double>(layers.size());
    Add("io.trace_bytes",
        static_cast<double>(FileSize("trace-serial-traced.jsonl")) / trials,
        "B", "lower", layers.size());
    Add("io.checkpoint_bytes",
        static_cast<double>(FileSize("checkpoint.jsonl")) / trials, "B",
        "lower", layers.size());
    Add("trace_overhead", Median(traced.wall_s) / Median(plain.wall_s) - 1.0,
        "ratio", "lower", traced.wall_s.size());
  }

  // -- Reporting -------------------------------------------------------------

  void Add(std::string name, double value, std::string unit,
           std::string better, std::size_t samples) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                              std::move(better), samples});
  }

  void Fail(const std::string& problem) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << problem << '\n';
  }

  std::string Path(std::string_view file) const {
    return (fs::path(args_.out) / file).string();
  }

  std::uintmax_t FileSize(std::string_view file) const {
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(Path(file), ec);
    return ec ? 0 : size;
  }

  void PrintReport() const {
    namespace json = ecdra::obs::json;
    std::cout << "workload " << workload_.name << "  seed " << args_.seed
              << "  threads " << threads_ << "  trials/pass "
              << workload_.trials << "  passes " << passes_ << "  trace "
              << (args_.trace ? 1 : 0) << '\n';
    if (!args_.trace) {
      std::cout << "  trial_s_tail is p" << tail_percentile_ << '\n';
    }
    for (const Metric& m : metrics_) {
      std::cout << "  " << m.name << " = " << json::Number(m.value) << ' '
                << m.unit << "  (" << m.better << " is better, n=" << m.samples
                << ")\n";
    }
    const double attempts =
        static_cast<double>(std::max<std::size_t>(attempted_, 1));
    std::cout << "  failed_share = "
              << json::Number(static_cast<double>(failed_) / attempts)
              << "  (" << failed_ << " of " << attempted_ << " attempts)\n";

    std::cout << "{\"meta\":{\"workload\":" << Quote(workload_.name)
              << ",\"seed\":" << args_.seed
              << ",\"trace\":" << (args_.trace ? 1 : 0)
              << ",\"seconds\":" << json::Number(args_.seconds)
              << ",\"threads\":" << threads_ << ",\"nproc\":" << Nproc()
              << ",\"trials_per_pass\":" << workload_.trials
              << ",\"passes\":" << passes_
              << ",\"tail_percentile\":" << tail_percentile_
              << ",\"compiler\":" << Quote(Compiler())
              << ",\"build_type\":" << Quote(PERFBENCH_BUILD_TYPE)
              << ",\"cxx_flags\":" << Quote(PERFBENCH_CXX_FLAGS)
              << ",\"cpu\":" << Quote(CpuModel())
              << ",\"commit\":" << Quote(args_.commit) << ",\"samples\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::cout << (i == 0 ? "" : ",") << Quote(metrics_[i].name) << ':'
                << metrics_[i].samples;
    }
    std::cout << "}}}\n";

    std::cout << "{\"correct\":" << (failed_ == 0 ? "true" : "false")
              << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
              << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::cout << (i == 0 ? "" : ",") << Quote(metrics_[i].name)
                << ":{\"value\":" << json::Number(metrics_[i].value)
                << ",\"unit\":" << Quote(metrics_[i].unit) << '}';
    }
    std::cout << "}}" << std::endl;
  }

  Args args_;
  Workload workload_;
  /// Fixed: min(2, nproc), recorded on the meta line.
  std::size_t threads_;
  sim::RunOptions options_;
  std::optional<sim::ExperimentSetup> setup_;
  std::map<std::size_t, std::string> golden_;
  std::vector<std::string> reference_;
  std::vector<double> missed_;
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t passes_ = 0;
  int tail_percentile_ = 0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: ecdra_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out DIR] [--commit TEXT]\n";
    return 2;
  }
  try {
    Bench bench(args, MakeWorkload(args.workload));
    return bench.Run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
