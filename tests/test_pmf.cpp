#include "pmf/pmf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "validate/validation.hpp"

namespace ecdra::pmf {
namespace {

Pmf RandomPmf(util::RngStream& rng, std::size_t n) {
  std::vector<Impulse> impulses;
  impulses.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    impulses.push_back(
        Impulse{rng.UniformReal(0.0, 100.0), rng.UniformReal(0.01, 1.0)});
  }
  return Pmf::FromImpulses(std::move(impulses), n);
}

double Mass(const Pmf& pmf) {
  double mass = 0.0;
  for (const Impulse& imp : pmf.impulses()) mass += imp.prob;
  return mass;
}

TEST(Pmf, DeltaIsDegenerate) {
  const Pmf d = Pmf::Delta(5.0);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d.Expectation(), 5.0);
  EXPECT_DOUBLE_EQ(d.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(d.Min(), 5.0);
  EXPECT_DOUBLE_EQ(d.Max(), 5.0);
  EXPECT_DOUBLE_EQ(d.CdfAt(4.999), 0.0);
  EXPECT_DOUBLE_EQ(d.CdfAt(5.0), 1.0);
}

TEST(Pmf, FromImpulsesSortsMergesNormalizes) {
  const Pmf pmf = Pmf::FromImpulses({{3.0, 2.0}, {1.0, 1.0}, {3.0, 1.0}});
  ASSERT_EQ(pmf.size(), 2u);
  EXPECT_DOUBLE_EQ(pmf.impulses()[0].value, 1.0);
  EXPECT_DOUBLE_EQ(pmf.impulses()[0].prob, 0.25);
  EXPECT_DOUBLE_EQ(pmf.impulses()[1].value, 3.0);
  EXPECT_DOUBLE_EQ(pmf.impulses()[1].prob, 0.75);
}

TEST(Pmf, FromImpulsesDropsNonPositiveProbabilities) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 0.0}, {2.0, 1.0}, {3.0, -0.5}});
  ASSERT_EQ(pmf.size(), 1u);
  EXPECT_DOUBLE_EQ(pmf.impulses()[0].value, 2.0);
}

TEST(Pmf, FromImpulsesRejectsEmptyAndNonFinite) {
  EXPECT_THROW((void)Pmf::FromImpulses({}), std::invalid_argument);
  EXPECT_THROW((void)Pmf::FromImpulses({{1.0, 0.0}}), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)Pmf::FromImpulses({{inf, 1.0}}), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)Pmf::FromImpulses({{1.0, nan}}), std::invalid_argument);
}

TEST(Pmf, ExpectationAndVariance) {
  const Pmf pmf = Pmf::FromImpulses({{0.0, 1.0}, {10.0, 1.0}});
  EXPECT_DOUBLE_EQ(pmf.Expectation(), 5.0);
  EXPECT_DOUBLE_EQ(pmf.Variance(), 25.0);
}

TEST(Pmf, CdfAtIsRightContinuousStep) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}, {3.0, 2.0}});
  EXPECT_DOUBLE_EQ(pmf.CdfAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(pmf.CdfAt(1.0), 0.25);
  EXPECT_DOUBLE_EQ(pmf.CdfAt(1.5), 0.25);
  EXPECT_DOUBLE_EQ(pmf.CdfAt(2.0), 0.5);
  EXPECT_DOUBLE_EQ(pmf.CdfAt(3.0), 1.0);
  EXPECT_DOUBLE_EQ(pmf.CdfAt(99.0), 1.0);
}

TEST(Pmf, ShiftMovesSupportOnly) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 3.0}});
  const Pmf shifted = pmf.Shift(10.0);
  EXPECT_DOUBLE_EQ(shifted.Expectation(), pmf.Expectation() + 10.0);
  EXPECT_NEAR(shifted.Variance(), pmf.Variance(), 1e-12);
  EXPECT_DOUBLE_EQ(shifted.Min(), 11.0);
}

TEST(Pmf, ScaleValuesScalesMoments) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 3.0}});
  const Pmf scaled = pmf.ScaleValues(2.0);
  EXPECT_DOUBLE_EQ(scaled.Expectation(), 2.0 * pmf.Expectation());
  EXPECT_NEAR(scaled.Variance(), 4.0 * pmf.Variance(), 1e-12);
  EXPECT_THROW((void)pmf.ScaleValues(0.0), std::invalid_argument);
}

TEST(Pmf, TruncateBelowRenormalizes) {
  const Pmf pmf =
      Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}, {3.0, 1.0}, {4.0, 1.0}});
  const TruncateResult result = pmf.TruncateBelow(2.5);
  EXPECT_DOUBLE_EQ(result.retained_mass, 0.5);
  ASSERT_EQ(result.pmf.size(), 2u);
  EXPECT_DOUBLE_EQ(result.pmf.impulses()[0].prob, 0.5);
  EXPECT_NEAR(Mass(result.pmf), 1.0, 1e-12);
}

TEST(Pmf, TruncateBelowKeepsImpulsesAtExactlyT) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  const TruncateResult result = pmf.TruncateBelow(2.0);
  EXPECT_DOUBLE_EQ(result.retained_mass, 0.5);
  EXPECT_DOUBLE_EQ(result.pmf.Min(), 2.0);
}

TEST(Pmf, TruncateBelowPastEverythingYieldsImminentDelta) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  const TruncateResult result = pmf.TruncateBelow(50.0);
  EXPECT_DOUBLE_EQ(result.retained_mass, 0.0);
  EXPECT_EQ(result.pmf.size(), 1u);
  EXPECT_DOUBLE_EQ(result.pmf.Expectation(), 50.0);
}

TEST(Pmf, TruncateBelowAtToleranceEdgeReportsTrueRetainedMass) {
  // The surviving mass is positive but at most kMassTolerance: the result
  // falls back to Delta(t) (renormalizing ~1e-10 of mass is meaningless),
  // but retained_mass must report the true tiny sum — the pre-fix code
  // returned 0.0, telling `retained_mass > 0` callers that no mass ever
  // existed past the cut.
  const double tiny = 0.5 * Pmf::kMassTolerance;
  const Pmf pmf = Pmf::FromRawUnchecked({{1.0, 1.0 - tiny}, {2.0, tiny}});
  const TruncateResult result = pmf.TruncateBelow(1.5);
  ASSERT_EQ(result.pmf.size(), 1u);
  EXPECT_DOUBLE_EQ(result.pmf.impulses()[0].value, 1.5);
  EXPECT_DOUBLE_EQ(result.pmf.impulses()[0].prob, 1.0);
  EXPECT_GT(result.retained_mass, 0.0);
  EXPECT_DOUBLE_EQ(result.retained_mass, tiny);
}

TEST(Pmf, ShiftRecoalescesValuesCollapsedByAbsorption) {
  // A gap of 2^-30 between support values is far below the ulp of 1e10 + 1,
  // so shifting by 1e10 absorbs it: both values land on the same double.
  // Pre-fix, Shift kept both impulses, breaking the strictly-increasing
  // support invariant every other constructor guarantees.
  const double gap = std::ldexp(1.0, -30);
  const Pmf pmf = Pmf::FromImpulses({{1.0, 0.25}, {1.0 + gap, 0.75}});
  ASSERT_EQ(pmf.size(), 2u);
  const Pmf shifted = pmf.Shift(1e10);
  ASSERT_EQ(shifted.size(), 1u);
  EXPECT_DOUBLE_EQ(shifted.impulses()[0].value, 1e10 + 1.0);
  EXPECT_DOUBLE_EQ(shifted.impulses()[0].prob, 1.0);
}

TEST(Pmf, ScaleValuesRecoalescesValuesCollapsedByRounding) {
  // Adjacent doubles scaled to the smallest subnormal both round to the
  // same value; the products must coalesce into one impulse.
  const double gap = std::ldexp(1.0, -52);
  const Pmf pmf = Pmf::FromImpulses({{1.0, 0.5}, {1.0 + gap, 0.5}});
  ASSERT_EQ(pmf.size(), 2u);
  const Pmf scaled = pmf.ScaleValues(std::ldexp(1.0, -1074));
  ASSERT_EQ(scaled.size(), 1u);
  EXPECT_DOUBLE_EQ(scaled.impulses()[0].prob, 1.0);
}

TEST(Pmf, ShiftAndScaleValuesRunTheDeepAudit) {
  // Shift/ScaleValues used to skip the deep-validation hook every other
  // pmf constructor runs; both must now report checks to an active deep
  // validator.
  validate::TrialValidator validator(validate::ValidationMode::kDeep);
  {
    validate::ValidatorScope scope(&validator);
    const Pmf pmf = Pmf::FromImpulses({{1.0, 0.5}, {2.0, 0.5}});
    const auto before_shift = validator.report().checks_run;
    (void)pmf.Shift(3.0);
    const auto after_shift = validator.report().checks_run;
    EXPECT_GT(after_shift, before_shift);
    (void)pmf.ScaleValues(2.0);
    EXPECT_GT(validator.report().checks_run, after_shift);
  }
  EXPECT_TRUE(validator.report().ok());
}

TEST(Pmf, InPlaceVariantsMatchConstOverloads) {
  util::RngStream rng(99);
  for (int i = 0; i < 20; ++i) {
    const Pmf pmf = RandomPmf(rng, 16);
    Pmf shifted = pmf;
    shifted.ShiftInPlace(12.5);
    EXPECT_EQ(shifted, pmf.Shift(12.5));
    Pmf scaled = pmf;
    scaled.ScaleValuesInPlace(1.375);
    EXPECT_EQ(scaled, pmf.ScaleValues(1.375));
    Pmf truncated = pmf;
    const double cut = pmf.impulses()[pmf.size() / 2].value;
    const double retained = truncated.TruncateBelowInPlace(cut);
    const TruncateResult reference = pmf.TruncateBelow(cut);
    EXPECT_EQ(truncated, reference.pmf);
    EXPECT_DOUBLE_EQ(retained, reference.retained_mass);
  }
}

TEST(Pmf, SampleStaysOnSupportAndFollowsProbabilities) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 0.2}, {5.0, 0.8}});
  util::RngStream rng(123);
  int fives = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double v = pmf.Sample(rng);
    ASSERT_TRUE(v == 1.0 || v == 5.0);
    if (v == 5.0) ++fives;
  }
  EXPECT_NEAR(static_cast<double>(fives) / n, 0.8, 0.02);
}

TEST(Pmf, CompactPreservesMassAndMean) {
  util::RngStream rng(7);
  const Pmf pmf = RandomPmf(rng, 256);
  const Pmf compact = pmf.Compact(16);
  EXPECT_LE(compact.size(), 16u);
  EXPECT_NEAR(Mass(compact), 1.0, 1e-12);
  EXPECT_NEAR(compact.Expectation(), pmf.Expectation(), 1e-9);
  EXPECT_DOUBLE_EQ(compact.Min() >= pmf.Min() ? 1.0 : 0.0, 1.0);
  EXPECT_LE(compact.Max(), pmf.Max());
}

TEST(Pmf, CompactIsNoOpWhenSmallEnough) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  EXPECT_EQ(pmf.Compact(10), pmf);
}

TEST(Pmf, CompactToOneImpulseGivesMean) {
  util::RngStream rng(9);
  const Pmf pmf = RandomPmf(rng, 32);
  const Pmf one = pmf.Compact(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_NEAR(one.Expectation(), pmf.Expectation(), 1e-9);
}

class CompactSweep : public ::testing::TestWithParam<
                         std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(CompactSweep, BoundMassAndMeanHoldForAllSizes) {
  const auto [seed, bound] = GetParam();
  util::RngStream rng(seed);
  const Pmf pmf = RandomPmf(rng, 200);
  const Pmf compact = pmf.Compact(bound);
  EXPECT_LE(compact.size(), bound);
  EXPECT_NEAR(Mass(compact), 1.0, 1e-12);
  EXPECT_NEAR(compact.Expectation(), pmf.Expectation(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBounds, CompactSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(1u, 2u, 7u, 32u, 64u, 199u)));

TEST(Convolve, DeltaIsIdentity) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {4.0, 1.0}});
  const Pmf conv = Convolve(pmf, Pmf::Delta(0.0));
  EXPECT_EQ(conv, pmf);
}

TEST(Convolve, DeltaShifts) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {4.0, 1.0}});
  const Pmf conv = Convolve(pmf, Pmf::Delta(2.5));
  EXPECT_DOUBLE_EQ(conv.Min(), 3.5);
  EXPECT_DOUBLE_EQ(conv.Max(), 6.5);
}

TEST(Convolve, TwoCoinsGiveBinomial) {
  const Pmf coin = Pmf::FromImpulses({{0.0, 0.5}, {1.0, 0.5}});
  const Pmf sum = Convolve(coin, coin);
  ASSERT_EQ(sum.size(), 3u);
  EXPECT_DOUBLE_EQ(sum.impulses()[0].prob, 0.25);
  EXPECT_DOUBLE_EQ(sum.impulses()[1].prob, 0.5);
  EXPECT_DOUBLE_EQ(sum.impulses()[2].prob, 0.25);
}

class ConvolveProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvolveProperties, MomentsAddAndSupportBounds) {
  util::RngStream rng(GetParam());
  const Pmf x = RandomPmf(rng, 24);
  const Pmf y = RandomPmf(rng, 24);
  // Exact convolution (no compaction).
  const Pmf exact = Convolve(x, y, 24 * 24);
  EXPECT_NEAR(exact.Expectation(), x.Expectation() + y.Expectation(), 1e-9);
  EXPECT_NEAR(exact.Variance(), x.Variance() + y.Variance(), 1e-6);
  EXPECT_NEAR(exact.Min(), x.Min() + y.Min(), 1e-9);
  EXPECT_NEAR(exact.Max(), x.Max() + y.Max(), 1e-9);
  EXPECT_NEAR(Mass(exact), 1.0, 1e-9);
  // Compacted convolution preserves mass and mean.
  const Pmf compacted = Convolve(x, y, 32);
  EXPECT_LE(compacted.size(), 32u);
  EXPECT_NEAR(compacted.Expectation(), exact.Expectation(), 1e-9);
}

TEST_P(ConvolveProperties, ProbSumLeqMatchesExactConvolutionCdf) {
  util::RngStream rng(GetParam() + 1000);
  const Pmf x = RandomPmf(rng, 20);
  const Pmf y = RandomPmf(rng, 20);
  const Pmf exact = Convolve(x, y, 20 * 20);
  for (const double t : {-5.0, 20.0, 50.0, 80.0, 110.0, 150.0, 250.0}) {
    EXPECT_NEAR(ProbSumLeq(x, y, t), exact.CdfAt(t), 1e-9) << "t=" << t;
  }
}

TEST_P(ConvolveProperties, ProbSumLeqIsSymmetric) {
  util::RngStream rng(GetParam() + 2000);
  const Pmf x = RandomPmf(rng, 15);
  const Pmf y = RandomPmf(rng, 17);
  for (const double t : {30.0, 90.0, 140.0}) {
    EXPECT_NEAR(ProbSumLeq(x, y, t), ProbSumLeq(y, x, t), 1e-9);
  }
}

/// Integer-valued random pmf: sums and differences of support values are
/// exact in floating point, so threshold ties are unambiguous.
Pmf IntegerRandomPmf(util::RngStream& rng, std::size_t n) {
  std::vector<Impulse> impulses;
  impulses.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    impulses.push_back(Impulse{std::floor(rng.UniformReal(0.0, 200.0)),
                               rng.UniformReal(0.01, 1.0)});
  }
  return Pmf::FromImpulses(std::move(impulses), n);
}

TEST_P(ConvolveProperties, ProbSumLeqMatchesBruteForceAtTieBoundaries) {
  // Every pair sum x_i + y_j is a threshold where t - x_i lands exactly on
  // a support value of Y — the boundary the two-pointer sweep must resolve
  // with <=, not <. Integer supports make the tie exact; half-integer
  // probes check strictly-between thresholds on both sides.
  util::RngStream rng(GetParam() + 3000);
  const Pmf x = IntegerRandomPmf(rng, 12);
  const Pmf y = IntegerRandomPmf(rng, 12);
  const Pmf exact = Convolve(x, y, 1u << 20);  // brute force: nothing merged
  for (const Impulse& xi : x.impulses()) {
    for (const Impulse& yj : y.impulses()) {
      const double t = xi.value + yj.value;
      EXPECT_NEAR(ProbSumLeq(x, y, t), exact.CdfAt(t), 1e-12) << "t=" << t;
      EXPECT_NEAR(ProbSumLeq(x, y, t - 0.5), exact.CdfAt(t - 0.5), 1e-12)
          << "t=" << t - 0.5;
      EXPECT_NEAR(ProbSumLeq(x, y, t + 0.5), exact.CdfAt(t + 0.5), 1e-12)
          << "t=" << t + 0.5;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvolveProperties,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Convolve, ConvolveIntoMatchesConvolveAndAllowsAliasing) {
  util::RngStream rng(321);
  const Pmf x = RandomPmf(rng, 24);
  const Pmf y = RandomPmf(rng, 24);
  const Pmf reference = Convolve(x, y);
  Pmf out;
  ConvolveInto(x, y, Pmf::kDefaultMaxImpulses, out);
  EXPECT_EQ(out, reference);
  // `out` aliasing either input is the documented suffix-chain idiom.
  Pmf acc = x;
  ConvolveInto(acc, y, Pmf::kDefaultMaxImpulses, acc);
  EXPECT_EQ(acc, reference);
  Pmf acc_rhs = y;
  ConvolveInto(x, acc_rhs, Pmf::kDefaultMaxImpulses, acc_rhs);
  EXPECT_EQ(acc_rhs, reference);
}

TEST(Convolve, KWayMergeMatchesSortBasedCrossProduct) {
  // The fused kernel must reproduce FromImpulses' sort-everything result
  // exactly: same merged support, same normalized probabilities.
  util::RngStream rng(555);
  for (int trial = 0; trial < 10; ++trial) {
    const Pmf x = RandomPmf(rng, 9);
    const Pmf y = RandomPmf(rng, 13);
    std::vector<Impulse> cross;
    for (const Impulse& xi : x.impulses()) {
      for (const Impulse& yj : y.impulses()) {
        cross.push_back(Impulse{xi.value + yj.value, xi.prob * yj.prob});
      }
    }
    const Pmf via_sort = Pmf::FromImpulses(std::move(cross), 32);
    EXPECT_EQ(Convolve(x, y, 32), via_sort);
  }
}

/// Test-local reference for the compaction kernel, written the slow and
/// obvious way: the boundaries are the first keep = max_impulses - 1
/// entries of a full (gap desc, index asc) sort of the gaps, and each run
/// between them folds into one impulse at its probability-weighted mean.
/// With `divisor` set, each probability is divided by it as it is read
/// (the convolution's normalization); without, it is used as stored.
std::vector<Impulse> ReferenceCompact(const std::vector<Impulse>& sorted,
                                      std::size_t max_impulses,
                                      std::optional<double> divisor) {
  const auto prob = [&](std::size_t i) {
    return divisor ? sorted[i].prob / *divisor : sorted[i].prob;
  };
  std::vector<Impulse> out;
  if (sorted.size() <= max_impulses) {
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      out.push_back(Impulse{sorted[i].value, prob(i)});
    }
    return out;
  }
  std::vector<std::size_t> by_gap(sorted.size() - 1);
  std::iota(by_gap.begin(), by_gap.end(), std::size_t{0});
  const auto gap = [&](std::size_t i) {
    return sorted[i + 1].value - sorted[i].value;
  };
  std::sort(by_gap.begin(), by_gap.end(), [&](std::size_t a, std::size_t b) {
    return gap(a) > gap(b) || (gap(a) == gap(b) && a < b);
  });
  std::vector<std::size_t> run_ends(by_gap.begin(),
                                    by_gap.begin() + (max_impulses - 1));
  for (std::size_t& end : run_ends) ++end;
  std::sort(run_ends.begin(), run_ends.end());
  run_ends.push_back(sorted.size());
  std::size_t start = 0;
  for (const std::size_t end : run_ends) {
    double mass = 0.0;
    double weighted = 0.0;
    for (std::size_t i = start; i < end; ++i) {
      mass += prob(i);
      weighted += prob(i) * sorted[i].value;
    }
    out.push_back(Impulse{weighted / mass, mass});
    start = end;
  }
  return out;
}

/// Reference convolution: the cross product in generation order, a naive
/// stable insertion sort by value, the coalescing rules (drop non-positive
/// probabilities, left-fold exactly-equal values), a left-folded mass, then
/// ReferenceCompact with that mass as the divisor.
Pmf ReferenceConvolve(const Pmf& x, const Pmf& y, std::size_t max_impulses) {
  std::vector<Impulse> terms;
  for (const Impulse& xi : x.impulses()) {
    for (const Impulse& yj : y.impulses()) {
      terms.push_back(Impulse{xi.value + yj.value, xi.prob * yj.prob});
    }
  }
  for (std::size_t k = 1; k < terms.size(); ++k) {
    for (std::size_t m = k; m > 0 && terms[m - 1].value > terms[m].value; --m) {
      std::swap(terms[m - 1], terms[m]);
    }
  }
  std::vector<Impulse> merged;
  for (const Impulse& term : terms) {
    if (term.prob <= 0.0) continue;
    if (!merged.empty() && merged.back().value == term.value) {
      merged.back().prob += term.prob;
    } else {
      merged.push_back(term);
    }
  }
  double mass = 0.0;
  for (const Impulse& imp : merged) mass += imp.prob;
  return Pmf::FromRawUnchecked(ReferenceCompact(merged, max_impulses, mass));
}

/// A pmf on exactly the given support, with random probabilities.
Pmf OnSupport(util::RngStream& rng, const std::vector<double>& values) {
  std::vector<Impulse> impulses;
  for (const double v : values) {
    impulses.push_back(Impulse{v, rng.UniformReal(0.01, 1.0)});
  }
  return Pmf::FromImpulses(std::move(impulses), values.size());
}

TEST(Convolve, MatchesTheReferenceOnRandomSupports) {
  util::RngStream rng(2024);
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {24, 24}, {24, 32}, {32, 32}, {9, 13}, {14, 32}, {2, 40}};
  for (const auto& [nx, ny] : shapes) {
    for (const std::size_t k : {2u, 4u, 17u, 32u}) {
      for (int trial = 0; trial < 4; ++trial) {
        const Pmf x = RandomPmf(rng, nx);
        const Pmf y = RandomPmf(rng, ny);
        EXPECT_EQ(Convolve(x, y, k), ReferenceConvolve(x, y, k))
            << nx << "x" << ny << " k=" << k;
      }
    }
  }
}

TEST(Convolve, MatchesTheReferenceWhenEveryGapTies) {
  // x = {0..23}, y = {0, 24, ..., 744}: the 768 sums are the integers
  // 0..767, so every gap is exactly 1 and selection is all tie-breaking.
  util::RngStream rng(11);
  std::vector<double> xv;
  std::vector<double> yv;
  for (int i = 0; i < 24; ++i) xv.push_back(i);
  for (int j = 0; j < 32; ++j) yv.push_back(24.0 * j);
  const Pmf x = OnSupport(rng, xv);
  const Pmf y = OnSupport(rng, yv);
  for (const std::size_t k : {2u, 5u, 32u, 100u}) {
    EXPECT_EQ(Convolve(x, y, k), ReferenceConvolve(x, y, k)) << "k=" << k;
  }
}

TEST(Convolve, MatchesTheReferenceOnTwoHeavyTails) {
  // Geometrically spaced supports on both sides of zero: the gaps grow
  // toward both ends, so the largest gaps sit in the first and last blocks.
  util::RngStream rng(12);
  std::vector<double> xv;
  std::vector<double> yv;
  for (int i = 0; i < 12; ++i) {
    xv.push_back(std::pow(1.6, i));
    xv.push_back(-std::pow(1.5, i) - 0.25);
    yv.push_back(3.0 * std::pow(1.45, i));
    yv.push_back(-2.0 * std::pow(1.55, i) - 0.125);
  }
  const Pmf x = OnSupport(rng, xv);
  const Pmf y = OnSupport(rng, yv);
  for (const std::size_t k : {2u, 8u, 32u}) {
    EXPECT_EQ(Convolve(x, y, k), ReferenceConvolve(x, y, k)) << "k=" << k;
  }
}

TEST(Convolve, MatchesTheReferenceAtTheSizeEdges) {
  util::RngStream rng(13);
  // n = keep + 2: 3 x 11 = 33 terms compacted to 32 impulses (one merge).
  {
    const Pmf x = RandomPmf(rng, 3);
    const Pmf y = RandomPmf(rng, 11);
    const Pmf out = Convolve(x, y, 32);
    EXPECT_EQ(out.size(), 32u);
    EXPECT_EQ(out, ReferenceConvolve(x, y, 32));
  }
  // Fewer 8-gap blocks than boundaries: 6 x 8 = 48 terms (47 gaps, 6
  // blocks) to 32 impulses, and 24 x 24 (575 gaps, 72 blocks) to 100.
  for (const auto& [nx, ny, k] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {6, 8, 32}, {24, 24, 100}, {5, 7, 33}}) {
    const Pmf x = RandomPmf(rng, nx);
    const Pmf y = RandomPmf(rng, ny);
    EXPECT_EQ(Convolve(x, y, k), ReferenceConvolve(x, y, k))
        << nx << "x" << ny << " k=" << k;
  }
}

TEST(Convolve, MatchesTheReferenceWhenSumsCoalesce) {
  // Small-integer supports: many sums collide exactly, so the kernel takes
  // its coalesce path and selects among integer gaps full of ties.
  util::RngStream rng(14);
  for (int trial = 0; trial < 20; ++trial) {
    const Pmf x = IntegerRandomPmf(rng, 16);
    const Pmf y = IntegerRandomPmf(rng, 16);
    for (const std::size_t k : {3u, 8u, 32u}) {
      EXPECT_EQ(Convolve(x, y, k), ReferenceConvolve(x, y, k)) << "k=" << k;
    }
  }
}

TEST(Pmf, CompactMatchesTheReference) {
  util::RngStream rng(15);
  for (const std::size_t n : {40u, 256u, 1024u}) {
    const Pmf pmf = RandomPmf(rng, n);
    const std::vector<Impulse> impulses(pmf.impulses().begin(),
                                        pmf.impulses().end());
    for (const std::size_t k : {2u, 9u, 32u}) {
      EXPECT_EQ(pmf.Compact(k),
                Pmf::FromRawUnchecked(
                    ReferenceCompact(impulses, k, std::nullopt)))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Convolve, RefusesAnOverflowedSupportBeforeCompacting) {
  // Sums of values near DBL_MAX overflow to +inf; the 64-term product must
  // be refused, not compacted around an infinite gap.
  util::RngStream rng(16);
  std::vector<double> big;
  for (int i = 0; i < 8; ++i) big.push_back(1.0e307 * (1.0 + 2.0 * i));
  const Pmf x = OnSupport(rng, big);
  const Pmf y = OnSupport(rng, big);
  EXPECT_THROW((void)Convolve(x, y, 32), std::invalid_argument);
  EXPECT_THROW((void)Convolve(x, y, 100), std::invalid_argument);
}

TEST(ProbSumLeq, ExtremeThresholds) {
  const Pmf x = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  const Pmf y = Pmf::FromImpulses({{3.0, 1.0}, {4.0, 1.0}});
  EXPECT_DOUBLE_EQ(ProbSumLeq(x, y, 3.9), 0.0);
  EXPECT_DOUBLE_EQ(ProbSumLeq(x, y, 4.0), 0.25);
  EXPECT_DOUBLE_EQ(ProbSumLeq(x, y, 6.0), 1.0);
}

TEST(Convolve, LongChainStaysNumericallyStable) {
  // Fifty compacted convolutions (a deep queue's worth): total mass and the
  // accumulated mean must not drift.
  util::RngStream rng(77);
  Pmf chain = RandomPmf(rng, 24);
  double expected_mean = chain.Expectation();
  for (int i = 0; i < 50; ++i) {
    const Pmf next = RandomPmf(rng, 24);
    expected_mean += next.Expectation();
    chain = Convolve(chain, next);
    ASSERT_LE(chain.size(), Pmf::kDefaultMaxImpulses);
  }
  EXPECT_NEAR(Mass(chain), 1.0, 1e-9);
  EXPECT_NEAR(chain.Expectation(), expected_mean, 1e-6 * expected_mean);
}

TEST(Pmf, CdfIsMonotoneNonDecreasing) {
  util::RngStream rng(88);
  const Pmf pmf = RandomPmf(rng, 40);
  double prev = -1.0;
  for (double t = pmf.Min() - 5.0; t <= pmf.Max() + 5.0; t += 1.0) {
    const double cdf = pmf.CdfAt(t);
    EXPECT_GE(cdf, prev);
    prev = cdf;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

TEST(Pmf, ShiftAndScaleCompose) {
  util::RngStream rng(99);
  const Pmf pmf = RandomPmf(rng, 16);
  const Pmf a = pmf.Shift(10.0).ScaleValues(2.0);
  const Pmf b = pmf.ScaleValues(2.0).Shift(20.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.impulses()[i].value, b.impulses()[i].value, 1e-9);
    EXPECT_DOUBLE_EQ(a.impulses()[i].prob, b.impulses()[i].prob);
  }
}

TEST(Pmf, StreamOutputListsImpulses) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  std::ostringstream os;
  os << pmf;
  EXPECT_NE(os.str().find("(1, 0.5)"), std::string::npos);
}

TEST(Pmf, EmptyPmfOperationsThrow) {
  const Pmf empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW((void)empty.Expectation(), std::invalid_argument);
  EXPECT_THROW((void)empty.Min(), std::invalid_argument);
  EXPECT_THROW((void)empty.CdfAt(0.0), std::invalid_argument);
  EXPECT_THROW((void)empty.Shift(1.0), std::invalid_argument);
  EXPECT_THROW((void)empty.TruncateBelow(0.0), std::invalid_argument);
}

// -- MaxOf / MaxInto (gang stage completion: max across siblings) --

/// Brute-force max distribution: enumerate the |X|·|Y| cross product of
/// outcomes and merge with FromImpulses, the reference the sweep kernel
/// must reproduce.
Pmf BruteForceMax(const Pmf& x, const Pmf& y, std::size_t max_impulses) {
  std::vector<Impulse> cross;
  for (const Impulse& xi : x.impulses()) {
    for (const Impulse& yj : y.impulses()) {
      cross.push_back(
          Impulse{std::max(xi.value, yj.value), xi.prob * yj.prob});
    }
  }
  return Pmf::FromImpulses(std::move(cross), max_impulses);
}

class MaxProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxProperties, MatchesBruteForceEnumeration) {
  util::RngStream rng(GetParam() + 4000);
  const Pmf x = RandomPmf(rng, 16);
  const Pmf y = RandomPmf(rng, 20);
  const Pmf exact = MaxOf(x, y, 1u << 20);  // nothing merged
  const Pmf brute = BruteForceMax(x, y, 1u << 20);
  ASSERT_EQ(exact.size(), brute.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_DOUBLE_EQ(exact.impulses()[i].value, brute.impulses()[i].value);
    EXPECT_NEAR(exact.impulses()[i].prob, brute.impulses()[i].prob, 1e-12);
  }
  EXPECT_NEAR(Mass(exact), 1.0, 1e-9);
  // Support bounds: the max can never finish before the later-starting
  // sibling, nor after the slower one.
  EXPECT_NEAR(exact.Min(), std::max(x.Min(), y.Min()), 1e-12);
  EXPECT_NEAR(exact.Max(), std::max(x.Max(), y.Max()), 1e-12);
  EXPECT_GE(exact.Expectation() + 1e-9,
            std::max(x.Expectation(), y.Expectation()));
}

TEST_P(MaxProperties, CdfIsProductOfInputCdfs) {
  util::RngStream rng(GetParam() + 5000);
  const Pmf x = RandomPmf(rng, 12);
  const Pmf y = RandomPmf(rng, 14);
  const Pmf exact = MaxOf(x, y, 1u << 20);
  for (const double t : {-1.0, 10.0, 25.0, 50.0, 75.0, 99.0, 150.0}) {
    EXPECT_NEAR(exact.CdfAt(t), x.CdfAt(t) * y.CdfAt(t), 1e-12) << "t=" << t;
  }
}

TEST_P(MaxProperties, IsCommutative) {
  util::RngStream rng(GetParam() + 6000);
  const Pmf x = RandomPmf(rng, 15);
  const Pmf y = RandomPmf(rng, 17);
  EXPECT_EQ(MaxOf(x, y), MaxOf(y, x));
  EXPECT_EQ(MaxOf(x, y, 8), MaxOf(y, x, 8));
}

TEST_P(MaxProperties, CompactedPreservesMass) {
  util::RngStream rng(GetParam() + 7000);
  const Pmf x = RandomPmf(rng, 24);
  const Pmf y = RandomPmf(rng, 24);
  const Pmf compacted = MaxOf(x, y, 8);
  EXPECT_LE(compacted.size(), 8u);
  EXPECT_NEAR(Mass(compacted), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxProperties,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(MaxOf, EmptyPmfIsIdentity) {
  const Pmf x = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  const Pmf empty;
  EXPECT_EQ(MaxOf(empty, x), x);
  EXPECT_EQ(MaxOf(x, empty), x);
  EXPECT_THROW((void)MaxOf(empty, empty), std::invalid_argument);
  // The fold idiom: accumulate into a default-constructed pmf.
  Pmf acc;
  MaxInto(acc, x, Pmf::kDefaultMaxImpulses, acc);
  EXPECT_EQ(acc, x);
}

TEST(MaxOf, SingleImpulseEdgeCases) {
  const Pmf lo = Pmf::Delta(1.0);
  const Pmf hi = Pmf::Delta(5.0);
  // Deltas: the max is the later delta.
  EXPECT_EQ(MaxOf(lo, hi), hi);
  EXPECT_EQ(MaxOf(hi, lo), hi);
  EXPECT_EQ(MaxOf(lo, lo), lo);
  // A delta past the whole support collapses the other input.
  const Pmf spread = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}, {3.0, 2.0}});
  EXPECT_EQ(MaxOf(spread, Pmf::Delta(10.0)), Pmf::Delta(10.0));
  // A delta below the whole support is absorbed.
  EXPECT_EQ(MaxOf(spread, Pmf::Delta(0.5)), spread);
  // A delta inside the support truncates below it: mass at or under the
  // delta's value piles onto the delta point.
  const Pmf mixed = MaxOf(spread, Pmf::Delta(2.0));
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_DOUBLE_EQ(mixed.impulses()[0].value, 2.0);
  EXPECT_DOUBLE_EQ(mixed.impulses()[0].prob, 0.5);
  EXPECT_DOUBLE_EQ(mixed.impulses()[1].value, 3.0);
  EXPECT_DOUBLE_EQ(mixed.impulses()[1].prob, 0.5);
}

TEST(MaxOf, SharedSupportValuesMergeExactly) {
  // Equal values in both inputs must land on one output impulse, not two.
  const Pmf x = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  const Pmf y = Pmf::FromImpulses({{2.0, 1.0}, {3.0, 1.0}});
  // Enumeration: (1,2)(2,2) -> 2 with mass 0.5, (1,3)(2,3) -> 3 with 0.5.
  const Pmf exact = MaxOf(x, y);
  ASSERT_EQ(exact.size(), 2u);
  EXPECT_DOUBLE_EQ(exact.impulses()[0].value, 2.0);
  EXPECT_DOUBLE_EQ(exact.impulses()[0].prob, 0.5);
  EXPECT_DOUBLE_EQ(exact.impulses()[1].value, 3.0);
  EXPECT_DOUBLE_EQ(exact.impulses()[1].prob, 0.5);
}

TEST(MaxOf, MaxIntoMatchesMaxOfAndAllowsAliasing) {
  util::RngStream rng(654);
  const Pmf x = RandomPmf(rng, 24);
  const Pmf y = RandomPmf(rng, 24);
  const Pmf reference = MaxOf(x, y);
  Pmf out;
  MaxInto(x, y, Pmf::kDefaultMaxImpulses, out);
  EXPECT_EQ(out, reference);
  Pmf acc = x;
  MaxInto(acc, y, Pmf::kDefaultMaxImpulses, acc);
  EXPECT_EQ(acc, reference);
  Pmf acc_rhs = y;
  MaxInto(x, acc_rhs, Pmf::kDefaultMaxImpulses, acc_rhs);
  EXPECT_EQ(acc_rhs, reference);
}

}  // namespace
}  // namespace ecdra::pmf
