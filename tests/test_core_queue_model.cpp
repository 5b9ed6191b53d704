#include "robustness/core_queue_model.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "obs/counters.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace ecdra::robustness {
namespace {

/// Exact equality, value for value and prob for prob (no tolerance).
void ExpectBitIdentical(const pmf::Pmf& actual, const pmf::Pmf& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual.impulses()[i].value, expected.impulses()[i].value) << i;
    EXPECT_EQ(actual.impulses()[i].prob, expected.impulses()[i].prob) << i;
  }
}

/// {(10, 0.2), (20, 0.3), (30, 0.5)}: impulse gaps wide enough to query
/// twice inside one.
pmf::Pmf ThreePoint() {
  return pmf::Pmf::FromImpulses({{10.0, 0.2}, {20.0, 0.3}, {30.0, 0.5}});
}

TEST(CoreQueueModel, EmptyCoreIsReadyNow) {
  const CoreQueueModel core;
  EXPECT_TRUE(core.idle());
  EXPECT_EQ(core.queue_length(), 0u);
  const pmf::Pmf& ready = core.ReadyPmf(12.5);
  EXPECT_EQ(ready.size(), 1u);
  EXPECT_DOUBLE_EQ(ready.Expectation(), 12.5);
  EXPECT_DOUBLE_EQ(core.ExpectedReadyTime(12.5), 12.5);
}

TEST(CoreQueueModel, RunningTaskShiftsByStartTime) {
  const pmf::Pmf exec = test::TwoPoint(10.0, 20.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 100.0}, 5.0);
  EXPECT_FALSE(core.idle());
  EXPECT_EQ(core.queue_length(), 1u);
  // Queried right at the start: completion at 15 or 25, each 0.5.
  const pmf::Pmf& ready = core.ReadyPmf(5.0);
  EXPECT_DOUBLE_EQ(ready.Expectation(), 20.0);
  EXPECT_DOUBLE_EQ(ready.Min(), 15.0);
  EXPECT_DOUBLE_EQ(ready.Max(), 25.0);
}

TEST(CoreQueueModel, QueryLaterTruncatesAndRenormalizes) {
  const pmf::Pmf exec = test::TwoPoint(10.0, 20.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 100.0}, 0.0);
  // At t = 15.0001 the 10-second impulse is in the past; all mass on 20.
  const pmf::Pmf& ready = core.ReadyPmf(15.0001);
  EXPECT_EQ(ready.size(), 1u);
  EXPECT_DOUBLE_EQ(ready.Expectation(), 20.0);
}

TEST(CoreQueueModel, AllMassPastMeansImminent) {
  const pmf::Pmf exec = test::TwoPoint(10.0, 20.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 100.0}, 0.0);
  const pmf::Pmf& ready = core.ReadyPmf(30.0);
  EXPECT_EQ(ready.size(), 1u);
  EXPECT_DOUBLE_EQ(ready.Expectation(), 30.0);
}

TEST(CoreQueueModel, QueuedTasksConvolveIntoReady) {
  const pmf::Pmf exec_a = pmf::Pmf::Delta(10.0);
  const pmf::Pmf exec_b = test::TwoPoint(5.0, 7.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec_a, 100.0}, 0.0);
  core.Enqueue(ModeledTask{1, &exec_b, 100.0});
  EXPECT_EQ(core.queue_length(), 2u);
  const pmf::Pmf& ready = core.ReadyPmf(0.0);
  EXPECT_DOUBLE_EQ(ready.Expectation(), 16.0);
  EXPECT_DOUBLE_EQ(ready.Min(), 15.0);
  EXPECT_DOUBLE_EQ(ready.Max(), 17.0);
}

TEST(CoreQueueModel, ExpectedReadyTimeMatchesReadyPmfExpectation) {
  const pmf::Pmf exec_a = test::TwoPoint(10.0, 30.0);
  const pmf::Pmf exec_b = test::TwoPoint(5.0, 9.0);
  const pmf::Pmf exec_c = pmf::Pmf::Delta(4.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec_a, 100.0}, 2.0);
  core.Enqueue(ModeledTask{1, &exec_b, 100.0});
  core.Enqueue(ModeledTask{2, &exec_c, 100.0});
  for (const double now : {2.0, 11.0, 13.0, 31.9}) {
    EXPECT_NEAR(core.ExpectedReadyTime(now),
                core.ReadyPmf(now).Expectation(), 1e-9)
        << "now=" << now;
  }
}

TEST(CoreQueueModel, StartNextPromotesFifoOrder) {
  const pmf::Pmf exec = pmf::Pmf::Delta(10.0);
  const pmf::Pmf exec_b = pmf::Pmf::Delta(20.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 50.0}, 0.0);
  core.Enqueue(ModeledTask{1, &exec_b, 60.0});
  core.Enqueue(ModeledTask{2, &exec, 70.0});
  core.FinishRunning();
  core.StartNext(10.0);
  ASSERT_TRUE(core.running().has_value());
  EXPECT_EQ(core.running()->task_id, 1u);
  EXPECT_EQ(core.queue_length(), 2u);
  // Ready now reflects task 1 running from t=10 plus queued task 2.
  EXPECT_DOUBLE_EQ(core.ReadyPmf(10.0).Expectation(), 40.0);
}

TEST(CoreQueueModel, FinishLastTaskEmptiesCore) {
  const pmf::Pmf exec = pmf::Pmf::Delta(10.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 50.0}, 0.0);
  core.FinishRunning();
  EXPECT_TRUE(core.idle());
  EXPECT_EQ(core.queue_length(), 0u);
  EXPECT_DOUBLE_EQ(core.ReadyPmf(10.0).Expectation(), 10.0);
}

TEST(CoreQueueModel, CacheInvalidatesOnMutation) {
  const pmf::Pmf exec = pmf::Pmf::Delta(10.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 50.0}, 0.0);
  EXPECT_DOUBLE_EQ(core.ReadyPmf(0.0).Expectation(), 10.0);
  core.Enqueue(ModeledTask{1, &exec, 60.0});
  // Same query time, changed state: the memo must not serve stale data.
  EXPECT_DOUBLE_EQ(core.ReadyPmf(0.0).Expectation(), 20.0);
}

TEST(CoreQueueModel, CacheServesRepeatQueriesAtSameTime) {
  const pmf::Pmf exec = test::TwoPoint(10.0, 20.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 50.0}, 0.0);
  const pmf::Pmf& first = core.ReadyPmf(1.0);
  const pmf::Pmf& second = core.ReadyPmf(1.0);
  EXPECT_EQ(&first, &second);  // same memoized object
}

TEST(CoreQueueModel, MemoServesTheWholeInterImpulseGap) {
  const pmf::Pmf exec = ThreePoint();
  const pmf::Pmf exec_q = test::TwoPoint(1.0, 4.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 100.0}, 0.0);
  core.Enqueue(ModeledTask{1, &exec_q, 100.0});
  obs::Counters counters;
  const obs::CountersScope scope(&counters);

  // 11 and 19.5 both cut before the impulse at 20: one miss, then one hit.
  const pmf::Pmf early = core.ReadyPmf(11.0);
  EXPECT_EQ(counters.ready_pmf_misses, 1u);
  EXPECT_EQ(counters.ready_pmf_hits, 0u);
  const pmf::Pmf& late = core.ReadyPmf(19.5);
  EXPECT_EQ(counters.ready_pmf_misses, 1u);
  EXPECT_EQ(counters.ready_pmf_hits, 1u);
  ExpectBitIdentical(late, early);

  // The served pmf is what a model never queried before computes at 19.5.
  CoreQueueModel fresh;
  fresh.StartTask(ModeledTask{0, &exec, 100.0}, 0.0);
  fresh.Enqueue(ModeledTask{1, &exec_q, 100.0});
  ExpectBitIdentical(late, fresh.ReadyPmf(19.5));
}

TEST(CoreQueueModel, MemoMissesWhenTheQueryCrossesAnImpulse) {
  const pmf::Pmf exec = ThreePoint();
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 100.0}, 0.0);
  obs::Counters counters;
  const obs::CountersScope scope(&counters);
  EXPECT_EQ(core.ReadyPmf(11.0).size(), 2u);
  // 20.5 is past the impulse at 20: a new cut, so a recomputation.
  EXPECT_EQ(core.ReadyPmf(20.5).size(), 1u);
  EXPECT_EQ(counters.ready_pmf_misses, 2u);
  EXPECT_EQ(counters.ready_pmf_hits, 0u);
  EXPECT_DOUBLE_EQ(core.ReadyPmf(20.5).Expectation(), 30.0);
  EXPECT_EQ(counters.ready_pmf_hits, 1u);
}

TEST(CoreQueueModel, DeltaFallbackIsKeyedOnTheExactTime) {
  const pmf::Pmf exec_q = test::TwoPoint(1.0, 4.0);
  obs::Counters counters;
  const obs::CountersScope scope(&counters);

  // Nothing survives past 30: Delta(now) (x) suffix moves with `now`.
  const pmf::Pmf exec = test::TwoPoint(10.0, 20.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 100.0}, 0.0);
  core.Enqueue(ModeledTask{1, &exec_q, 100.0});
  EXPECT_DOUBLE_EQ(core.ReadyPmf(30.0).Min(), 31.0);
  EXPECT_DOUBLE_EQ(core.ReadyPmf(35.0).Min(), 36.0);
  EXPECT_DOUBLE_EQ(core.ReadyPmf(35.0).Min(), 36.0);
  EXPECT_EQ(counters.ready_pmf_misses, 2u);
  EXPECT_EQ(counters.ready_pmf_hits, 1u);

  // An impulse survives but holds at most kMassTolerance: the same cut for
  // both times, yet the fallback makes each answer Delta(now).
  const pmf::Pmf sliver =
      pmf::Pmf::FromImpulses({{10.0, 1.0 - 1e-12}, {20.0, 1e-12}});
  CoreQueueModel tiny;
  tiny.StartTask(ModeledTask{2, &sliver, 100.0}, 0.0);
  EXPECT_DOUBLE_EQ(tiny.ReadyPmf(12.0).Expectation(), 12.0);
  EXPECT_DOUBLE_EQ(tiny.ReadyPmf(15.0).Expectation(), 15.0);
  EXPECT_EQ(counters.ready_pmf_misses, 4u);

  // An idle core is Delta(now) too.
  const CoreQueueModel idle;
  EXPECT_DOUBLE_EQ(idle.ReadyPmf(1.0).Expectation(), 1.0);
  EXPECT_DOUBLE_EQ(idle.ReadyPmf(2.0).Expectation(), 2.0);
  EXPECT_EQ(counters.ready_pmf_misses, 6u);
  EXPECT_EQ(counters.ready_pmf_hits, 1u);
}

TEST(CoreQueueModel, EveryMutatorDropsTheMemo) {
  // Each case queries at `now`, mutates, and queries at `now` again: the
  // second query must recompute and match a model that was never queried.
  // Between FinishRunning and StartNext/DropNext a non-empty queue has no
  // running task and cannot be queried, so those run as pairs.
  const pmf::Pmf exec_a = ThreePoint();
  const pmf::Pmf exec_b = test::TwoPoint(2.0, 6.0);
  const pmf::Pmf exec_c = test::TwoPoint(1.0, 3.0);
  using Step = std::function<void(CoreQueueModel&)>;
  const Step start_a = [&](CoreQueueModel& c) {
    c.StartTask(ModeledTask{0, &exec_a, 100.0}, 5.0);
  };
  const Step enqueue_b = [&](CoreQueueModel& c) {
    c.Enqueue(ModeledTask{1, &exec_b, 100.0});
  };
  const Step enqueue_c = [&](CoreQueueModel& c) {
    c.Enqueue(ModeledTask{2, &exec_c, 100.0});
  };
  struct Case {
    const char* mutator;
    std::vector<Step> setup;
    Step mutate;
  };
  const std::vector<Case> cases = {
      {"StartTask", {}, start_a},
      {"Enqueue", {start_a}, enqueue_b},
      {"FinishRunning", {start_a}, [](CoreQueueModel& c) { c.FinishRunning(); }},
      {"StartNext",
       {start_a, enqueue_b},
       [](CoreQueueModel& c) {
         c.FinishRunning();
         c.StartNext(5.0);
       }},
      {"DropNext",
       {start_a, enqueue_b, enqueue_c},
       [](CoreQueueModel& c) {
         c.FinishRunning();
         c.DropNext();
         c.StartNext(5.0);
       }},
      {"Reset", {start_a, enqueue_b}, [](CoreQueueModel& c) { c.Reset(); }},
  };
  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.mutator);
    CoreQueueModel core;
    CoreQueueModel fresh;
    for (const Step& step : test_case.setup) {
      step(core);
      step(fresh);
    }
    obs::Counters counters;
    const obs::CountersScope scope(&counters);
    (void)core.ReadyPmf(5.0);
    test_case.mutate(core);
    test_case.mutate(fresh);
    const pmf::Pmf& after = core.ReadyPmf(5.0);
    EXPECT_EQ(counters.ready_pmf_misses, 2u);
    EXPECT_EQ(counters.ready_pmf_hits, 0u);
    ExpectBitIdentical(after, fresh.ReadyPmf(5.0));
  }
}

TEST(CoreQueueModel, SuffixRebuildAfterDequeueIsCorrect) {
  const pmf::Pmf exec_a = pmf::Pmf::Delta(10.0);
  const pmf::Pmf exec_b = test::TwoPoint(2.0, 4.0);
  const pmf::Pmf exec_c = test::TwoPoint(1.0, 3.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec_a, 0.0}, 0.0);
  core.Enqueue(ModeledTask{1, &exec_b, 0.0});
  core.Enqueue(ModeledTask{2, &exec_c, 0.0});
  core.FinishRunning();
  core.StartNext(10.0);  // b runs from 10, c queued
  const pmf::Pmf& ready = core.ReadyPmf(10.0);
  // b completes at 12 or 14; plus c's 1 or 3: support {13, 15, 17} weighted.
  EXPECT_DOUBLE_EQ(ready.Expectation(), 15.0);
  EXPECT_DOUBLE_EQ(ready.Min(), 13.0);
  EXPECT_DOUBLE_EQ(ready.Max(), 17.0);
}

TEST(CoreQueueModel, MisuseThrows) {
  const pmf::Pmf exec = pmf::Pmf::Delta(10.0);
  CoreQueueModel core;
  EXPECT_THROW(core.Enqueue(ModeledTask{0, &exec, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(core.FinishRunning(), std::invalid_argument);
  EXPECT_THROW(core.StartNext(0.0), std::invalid_argument);
  core.StartTask(ModeledTask{0, &exec, 0.0}, 0.0);
  EXPECT_THROW(core.StartTask(ModeledTask{1, &exec, 0.0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(core.StartTask(ModeledTask{1, nullptr, 0.0}, 0.0),
               std::invalid_argument);
}

class RandomizedQueueModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedQueueModel, ExpectationShortcutAlwaysMatches) {
  // Property: under random enqueue/finish sequences, the scalar
  // ExpectedReadyTime always equals the full ReadyPmf expectation.
  util::RngStream rng(GetParam());
  std::vector<pmf::Pmf> execs;
  for (int i = 0; i < 8; ++i) {
    execs.push_back(test::TwoPoint(rng.UniformReal(1.0, 10.0),
                                   rng.UniformReal(10.0, 30.0)));
  }
  CoreQueueModel core;
  double now = 0.0;
  std::size_t next_id = 0;
  for (int step = 0; step < 60; ++step) {
    now += rng.UniformReal(0.0, 5.0);
    const bool arrive = rng.UniformReal(0, 1) < 0.6 || core.idle();
    if (arrive) {
      const pmf::Pmf* exec =
          &execs[static_cast<std::size_t>(rng.UniformInt(0, 7))];
      if (core.idle()) {
        core.StartTask(ModeledTask{next_id++, exec, now + 50.0}, now);
      } else {
        core.Enqueue(ModeledTask{next_id++, exec, now + 50.0});
      }
    } else {
      core.FinishRunning();
      if (core.queue_length() > 0) core.StartNext(now);
    }
    EXPECT_NEAR(core.ExpectedReadyTime(now), core.ReadyPmf(now).Expectation(),
                1e-6 * (1.0 + now));
  }
}

TEST_P(RandomizedQueueModel, MemoizedReadyPmfMatchesAFreshModel) {
  // Property: along a rising `now` with random enqueue/start/finish, every
  // memoized ReadyPmf is bit-identical to the one a model that replays the
  // same mutations, and was never queried, computes at that time.
  util::RngStream rng(GetParam());
  std::vector<pmf::Pmf> execs;
  for (int i = 0; i < 8; ++i) {
    std::vector<pmf::Impulse> impulses;
    double value = rng.UniformReal(1.0, 4.0);
    for (int k = 0; k < 5; ++k) {
      impulses.push_back({value, rng.UniformReal(0.05, 1.0)});
      value += rng.UniformReal(1.0, 6.0);
    }
    execs.push_back(pmf::Pmf::FromImpulses(std::move(impulses)));
  }
  std::vector<std::function<void(CoreQueueModel&)>> log;
  const auto apply = [&](std::function<void(CoreQueueModel&)> step,
                         CoreQueueModel& model) {
    step(model);
    log.push_back(std::move(step));
  };
  obs::Counters counters;
  const obs::CountersScope scope(&counters);
  CoreQueueModel core;
  double now = 0.0;
  std::size_t next_id = 0;
  for (int step = 0; step < 80; ++step) {
    const double u = rng.UniformReal(0.0, 1.0);
    if (core.idle() || u < 0.35) {
      const ModeledTask task{
          next_id++, &execs[static_cast<std::size_t>(rng.UniformInt(0, 7))],
          now + 50.0};
      if (core.idle()) {
        apply([task, now](CoreQueueModel& m) { m.StartTask(task, now); },
              core);
      } else {
        apply([task](CoreQueueModel& m) { m.Enqueue(task); }, core);
      }
    } else if (u < 0.55) {
      const bool start_next = core.queue_length() > 1;
      apply(
          [start_next, now](CoreQueueModel& m) {
            m.FinishRunning();
            if (start_next) m.StartNext(now);
          },
          core);
    }
    // Several queries between mutations, some inside one gap, some across.
    const int queries = static_cast<int>(rng.UniformInt(1, 4));
    for (int q = 0; q < queries; ++q) {
      now += rng.UniformReal(0.0, 2.5);
      CoreQueueModel fresh;
      for (const auto& replay : log) replay(fresh);
      ExpectBitIdentical(core.ReadyPmf(now), fresh.ReadyPmf(now));
    }
  }
  EXPECT_GT(counters.ready_pmf_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedQueueModel,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace ecdra::robustness
