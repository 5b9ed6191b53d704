#include <cstdint>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "core/energy_filter.hpp"
#include "core/factory.hpp"
#include "core/mapping_context.hpp"
#include "core/robustness_filter.hpp"
#include "obs/counters.hpp"
#include "robustness/robustness.hpp"
#include "test_support.hpp"
#include "workload/task_type_table.hpp"

namespace ecdra::core {
namespace {

class FilterTest : public ::testing::Test {
 protected:
  FilterTest()
      : cluster_({test::SimpleNode(1, 1, 1.0), test::SimpleNode(2, 1, 0.5)}),
        etc_(1, 2, {100.0, 150.0}),
        table_(cluster_, etc_, 0.25),
        cores_(cluster_.total_cores()) {}

  [[nodiscard]] MappingContext Context(double remaining_energy,
                                       std::size_t tasks_left,
                                       double now = 0.0) {
    MappingContext ctx(cluster_, table_, cores_, task_, now);
    ctx.SetBudgetView(remaining_energy, tasks_left);
    return ctx;
  }

  cluster::Cluster cluster_;
  workload::EtcMatrix etc_;
  workload::TaskTypeTable table_;
  std::vector<robustness::CoreQueueModel> cores_;
  workload::Task task_{0, 0, 0.0, 400.0};
};

TEST_F(FilterTest, EnergyFilterMultiplierBands) {
  const EnergyFilter filter;
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(0.0), 0.8);
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(0.79), 0.8);
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(0.8), 1.0);
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(1.0), 1.0);
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(1.2), 1.0);
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(1.21), 1.2);
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(5.0), 1.2);
}

TEST_F(FilterTest, EnergyFilterKeepsOnlyFairShareCandidates) {
  EnergyFilter filter;
  // Idle system: zeta_mul = 0.8; fair share = 0.8 * remaining / tasks_left.
  const double remaining = 1e5;
  const std::size_t tasks_left = 10;
  const double fair = 0.8 * remaining / 10.0;
  MappingContext ctx = Context(remaining, tasks_left);
  const std::vector<Candidate> before = ctx.candidates();
  filter.Apply(ctx);
  for (const Candidate& candidate : ctx.candidates()) {
    EXPECT_LE(candidate.eec, fair);
  }
  // Every removed candidate must genuinely exceed the fair share.
  std::size_t over = 0;
  for (const Candidate& candidate : before) {
    if (candidate.eec > fair) ++over;
  }
  EXPECT_EQ(before.size() - ctx.candidates().size(), over);
  EXPECT_FALSE(ctx.candidates().empty());
}

TEST_F(FilterTest, EnergyFilterEliminatesEverythingWhenBudgetGone) {
  EnergyFilter filter;
  MappingContext ctx = Context(0.0, 10);
  filter.Apply(ctx);
  EXPECT_TRUE(ctx.candidates().empty());
  MappingContext negative = Context(-5000.0, 10);
  filter.Apply(negative);
  EXPECT_TRUE(negative.candidates().empty());
}

TEST_F(FilterTest, EnergyFilterLoosensDuringCongestion) {
  // Same budget: a congested system (zeta_mul = 1.2) admits candidates an
  // idle system (zeta_mul = 0.8) rejects.
  const double remaining = 1e5;
  MappingContext idle_ctx = Context(remaining, 10);
  EnergyFilter filter;
  filter.Apply(idle_ctx);
  const std::size_t idle_count = idle_ctx.candidates().size();

  // Congest: 2 tasks in flight per core.
  std::deque<pmf::Pmf> execs;
  for (auto& core : cores_) {
    execs.push_back(pmf::Pmf::Delta(500.0));
    core.StartTask(robustness::ModeledTask{99, &execs.back(), 1e9}, 0.0);
    execs.push_back(pmf::Pmf::Delta(500.0));
    core.Enqueue(robustness::ModeledTask{100, &execs.back(), 1e9});
  }
  MappingContext busy_ctx = Context(remaining, 10);
  EXPECT_DOUBLE_EQ(busy_ctx.AverageQueueDepth(), 2.0);
  filter.Apply(busy_ctx);
  EXPECT_GE(busy_ctx.candidates().size(), idle_count);
}

TEST_F(FilterTest, RobustnessFilterDropsBelowThreshold) {
  RobustnessFilter filter(0.5);
  task_.deadline = 130.0;  // tight: slow P-states become hopeless
  MappingContext ctx = Context(1e12, 10);
  const std::size_t before = ctx.candidates().size();
  filter.Apply(ctx);
  EXPECT_LT(ctx.candidates().size(), before);
  for (const Candidate& candidate : ctx.candidates()) {
    EXPECT_GE(ctx.OnTimeProbability(candidate), 0.5);
  }
}

TEST_F(FilterTest, RobustnessFilterKeepsEverythingWhenDeadlineLoose) {
  RobustnessFilter filter(0.5);
  task_.deadline = 1e6;
  MappingContext ctx = Context(1e12, 10);
  const std::size_t before = ctx.candidates().size();
  filter.Apply(ctx);
  EXPECT_EQ(ctx.candidates().size(), before);
}

TEST_F(FilterTest, RobustnessFilterAtThresholdOneDropsUncertain) {
  RobustnessFilter filter(1.0);
  task_.deadline = 130.0;
  MappingContext ctx = Context(1e12, 10);
  filter.Apply(ctx);
  for (const Candidate& candidate : ctx.candidates()) {
    EXPECT_DOUBLE_EQ(ctx.OnTimeProbability(candidate), 1.0);
  }
}

TEST_F(FilterTest, OnTimeProbabilityScoresEachCandidateOnce) {
  // A filter and a heuristic both asking for rho must not pay twice: the
  // context memoizes it per (core, P-state), with the unmemoized value.
  std::deque<pmf::Pmf> execs;
  for (auto& core : cores_) {
    execs.push_back(table_.ExecPmf(0, 0, 0));
    core.StartTask(robustness::ModeledTask{99, &execs.back(), 1e9}, 0.0);
  }
  task_.deadline = 250.0;
  MappingContext ctx = Context(1e12, 10, 20.0);
  obs::Counters counters;
  const obs::CountersScope scope(&counters);
  std::vector<double> first;
  for (const Candidate& candidate : ctx.candidates()) {
    first.push_back(ctx.OnTimeProbability(candidate));
  }
  const std::uint64_t scored = counters.pmf_prob_sum_leq;
  EXPECT_EQ(scored, ctx.candidates().size());
  for (std::size_t i = 0; i < ctx.candidates().size(); ++i) {
    const Candidate& candidate = ctx.candidates()[i];
    EXPECT_EQ(ctx.OnTimeProbability(candidate), first[i]);
    EXPECT_EQ(first[i], robustness::OnTimeProbability(
                            cores_[candidate.assignment.flat_core], 20.0,
                            *candidate.exec, task_.deadline));
  }
  // The second pass above scored nothing; the direct calls scored again.
  EXPECT_EQ(counters.pmf_prob_sum_leq, 2 * scored);
}

TEST_F(FilterTest, RobustnessFilterRejectsInvalidThreshold) {
  EXPECT_THROW((void)RobustnessFilter(-0.1), std::invalid_argument);
  EXPECT_THROW((void)RobustnessFilter(1.1), std::invalid_argument);
}

TEST_F(FilterTest, FactoryBuildsTheFourVariants) {
  EXPECT_TRUE(MakeFilterChain("none").empty());
  const auto en = MakeFilterChain("en");
  ASSERT_EQ(en.size(), 1u);
  EXPECT_EQ(en[0]->name(), "en");
  const auto rob = MakeFilterChain("rob");
  ASSERT_EQ(rob.size(), 1u);
  EXPECT_EQ(rob[0]->name(), "rob");
  const auto both = MakeFilterChain("en+rob");
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0]->name(), "en");
  EXPECT_EQ(both[1]->name(), "rob");
  EXPECT_THROW((void)MakeFilterChain("bogus"), std::invalid_argument);
}

TEST_F(FilterTest, FiltersComposeToIntersection) {
  task_.deadline = 300.0;
  MappingContext both_ctx = Context(1e5, 10);
  for (const auto& filter : MakeFilterChain("en+rob")) {
    filter->Apply(both_ctx);
  }
  MappingContext en_ctx = Context(1e5, 10);
  MakeFilterChain("en")[0]->Apply(en_ctx);
  MappingContext rob_ctx = Context(1e5, 10);
  MakeFilterChain("rob")[0]->Apply(rob_ctx);

  // Every candidate surviving both filters survives each individually.
  for (const Candidate& candidate : both_ctx.candidates()) {
    const auto matches = [&candidate](const Candidate& other) {
      return other.assignment == candidate.assignment;
    };
    EXPECT_TRUE(std::any_of(en_ctx.candidates().begin(),
                            en_ctx.candidates().end(), matches));
    EXPECT_TRUE(std::any_of(rob_ctx.candidates().begin(),
                            rob_ctx.candidates().end(), matches));
  }
}

TEST_F(FilterTest, CustomFilterChainOptionsPropagate) {
  FilterChainOptions options;
  options.robustness_threshold = 0.95;
  task_.deadline = 140.0;
  const auto chain = MakeFilterChain("rob", options);
  MappingContext ctx = Context(1e12, 10);
  chain[0]->Apply(ctx);
  for (const Candidate& candidate : ctx.candidates()) {
    EXPECT_GE(ctx.OnTimeProbability(candidate), 0.95);
  }
}

}  // namespace
}  // namespace ecdra::core
