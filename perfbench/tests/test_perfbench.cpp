// Unit tests for the benchmark's own code: order statistics, the timing
// wrappers' fidelity, layer sanity, count determinism, and the workloads.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hpp"
#include "sim/experiment_runner.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sim = ecdra::sim;

TEST(Stats, MedianAndPercentile) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.0), 1.0);
  EXPECT_EQ(Percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 60.0), 3.0);
  EXPECT_EQ(Percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 100.0), 5.0);
  EXPECT_THROW((void)Median({}), std::invalid_argument);
  EXPECT_THROW((void)Percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Stats, TailPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(40), 75);
  EXPECT_EQ(TailPercentile(200), 95);
  EXPECT_THROW((void)TailPercentile(10), std::invalid_argument);
  for (std::size_t n = 11; n <= 1000; ++n) {
    std::vector<double> values(n);
    std::iota(values.begin(), values.end(), 1.0);
    const int p = TailPercentile(n);
    const double tail = Percentile(values, p);
    EXPECT_GE(n - static_cast<std::size_t>(tail), 10u) << "n=" << n;
    // One percentile higher would leave fewer than ten beyond.
    if (p < 100) {
      EXPECT_LT(n - static_cast<std::size_t>(Percentile(values, p + 1)), 10u)
          << "n=" << n;
    }
  }
}

TEST(Layers, WrappersReportTheWrappedNames) {
  RegisterTimedPolicies();
  EXPECT_TRUE(CheckTimedIdentity().empty());
  EXPECT_TRUE(FilterIsTypeRouted("rob"));
  EXPECT_FALSE(FilterIsTypeRouted("en"));
  EXPECT_EQ(TimedVariant("en+rob", /*gangs=*/false), "timed.en+timed.rob");
  EXPECT_EQ(TimedVariant("en+rob", /*gangs=*/true), "timed.en+rob");
  EXPECT_EQ(TimedVariant("none", /*gangs=*/true), "none");
}

TEST(Layers, SanityFlagsImpossibleSplits) {
  TrialLayers ok;
  ok.wall_s = 1.0;
  ok.generate_s = 0.01;
  ok.counters.decision_seconds = 0.8;
  ok.clock.heuristic_s = 0.1;
  ok.clock.filter_en_s = 0.2;
  ok.clock.filter_rob_s = 0.4;
  EXPECT_TRUE(CheckLayerSanity(ok).empty());

  TrialLayers parts_exceed_map = ok;
  parts_exceed_map.clock.filter_rob_s = 0.7;
  EXPECT_EQ(CheckLayerSanity(parts_exceed_map).size(), 2u);  // + self < 0

  TrialLayers map_exceeds_wall = ok;
  map_exceeds_wall.wall_s = 0.5;
  EXPECT_FALSE(CheckLayerSanity(map_exceeds_wall).empty());
}

// One traced trial, timed from outside exactly as the benchmark does.
TrialLayers TraceTrial(const Workload& workload,
                       const sim::ExperimentSetup& setup, std::size_t trial,
                       sim::TrialResult* result) {
  sim::RunOptions options = sim::RunOptionsFromSpec(workload.spec);
  options.collect_counters = true;
  options.governor = std::string(kTimedPrefix) + options.governor;
  TrialLayers layers;
  const LayerClockScope scope(layers.clock);
  const auto start = std::chrono::steady_clock::now();
  *result = sim::RunSingleTrial(
      setup, std::string(kTimedPrefix) + workload.heuristic(),
      TimedVariant(workload.variant(), workload.gangs()), trial, options);
  layers.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  layers.counters = result->counters;
  return layers;
}

TEST(Layers, TracedTrialSplitsSanelyAndMatchesTheUntracedResult) {
  RegisterTimedPolicies();
  const Workload workload = MakeWorkload("paper-ll-robust");
  const sim::ExperimentSetup setup = sim::BuildExperimentSetup(workload.spec);
  sim::TrialResult traced;
  const TrialLayers layers = TraceTrial(workload, setup, 0, &traced);
  EXPECT_TRUE(CheckLayerSanity(layers).empty());
  EXPECT_GT(layers.clock.heuristic_s, 0.0);
  EXPECT_GT(layers.clock.filter_rob_s, 0.0);
  EXPECT_EQ(layers.clock.heuristic_calls, layers.counters.decisions());

  const sim::TrialResult plain = sim::RunSingleTrial(
      setup, workload.heuristic(), workload.variant(), 0,
      sim::RunOptionsFromSpec(workload.spec));
  EXPECT_EQ(ResultDigest(traced), ResultDigest(plain));
}

TEST(Layers, ExactCountsRepeatAcrossRunsAndThreadCounts) {
  RegisterTimedPolicies();
  for (const std::string& name : {"paper-ll-robust", "service-jobs-faults"}) {
    const Workload workload = MakeWorkload(name);
    const sim::ExperimentSetup setup =
        sim::BuildExperimentSetup(workload.spec);
    sim::RunOptions options = sim::RunOptionsFromSpec(workload.spec);
    options.collect_counters = true;
    options.num_trials = 2;
    const auto counts = [&](std::size_t threads) {
      options.num_threads = threads;
      const std::vector<sim::TrialResult> results = sim::RunTrials(
          setup, std::string(kTimedPrefix) + workload.heuristic(),
          TimedVariant(workload.variant(), workload.gangs()), options);
      std::vector<std::string> exact;
      for (const sim::TrialResult& result : results) {
        exact.push_back(ExactCounts(result.counters));
      }
      return exact;
    };
    const std::vector<std::string> first = counts(1);
    EXPECT_EQ(counts(1), first) << name;
    EXPECT_EQ(counts(2), first) << name;
  }
}

TEST(Layers, WrappingTheRobustnessFilterChangesGangResults) {
  // Why the service workload leaves "rob" unwrapped: the gang threshold is
  // found by dynamic_cast, so a wrapper silently disables the joint gang
  // robustness check — and the benchmark's bit-for-bit check sees it.
  RegisterTimedPolicies();
  const Workload workload = MakeWorkload("service-jobs-faults");
  const sim::ExperimentSetup setup = sim::BuildExperimentSetup(workload.spec);
  const sim::RunOptions options = sim::RunOptionsFromSpec(workload.spec);
  const std::string kept = ResultDigest(
      sim::RunSingleTrial(setup, "LL", "timed.en+rob", 0, options));
  const std::string plain =
      ResultDigest(sim::RunSingleTrial(setup, "LL", "en+rob", 0, options));
  const std::string hidden = ResultDigest(
      sim::RunSingleTrial(setup, "LL", "timed.en+timed.rob", 0, options));
  EXPECT_EQ(kept, plain);
  EXPECT_NE(hidden, plain);
}

TEST(Workloads, ADifferentSeedChangesTheTrialDigest) {
  const Workload workload = MakeWorkload("paper-mect-energy");
  sim::ExperimentSetup setup = sim::BuildExperimentSetup(workload.spec);
  const sim::RunOptions options = sim::RunOptionsFromSpec(workload.spec);
  const auto digest = [&] {
    return ResultDigest(sim::RunSingleTrial(setup, workload.heuristic(),
                                            workload.variant(), 0, options));
  };
  const std::string paper = digest();
  EXPECT_EQ(digest(), paper);
  setup.master_seed += 1;
  EXPECT_NE(digest(), paper);
}

TEST(Workloads, ServiceMixParsesFromSpecLines) {
  const Workload workload = MakeWorkload("service-jobs-faults");
  const auto& spec = workload.spec;
  EXPECT_EQ(spec.mode, ecdra::policy::RunMode::kStream);
  EXPECT_EQ(spec.governor, "budget-feedback");
  EXPECT_EQ(spec.stream.admission, "none");
  EXPECT_TRUE(workload.gangs());
  EXPECT_EQ(spec.jobs_placement, "pack");
  EXPECT_EQ(spec.recovery, ecdra::fault::RecoveryPolicy::kRequeueToScheduler);
  EXPECT_GT(spec.fault.domain_mtbf, 0.0);
  EXPECT_TRUE(spec.econ_enabled);
  EXPECT_EQ(workload.heuristic(), "LL");
  EXPECT_EQ(workload.variant(), "en+rob");
  const sim::ExperimentSetup setup = sim::BuildExperimentSetup(spec);
  EXPECT_LT(spec.stream.energy_rate, SustainingRate(setup));
}

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_THROW((void)MakeWorkload("no-such-workload"), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
