#include "pmf/special_functions.hpp"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

namespace ecdra::pmf {
namespace {

TEST(RegularizedGammaP, ShapeOneIsExponentialCdf) {
  // P(1, x) = 1 - e^{-x}.
  for (const double x : {0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-10)
        << "x=" << x;
  }
}

TEST(RegularizedGammaP, KnownHalfwayPoint) {
  // For integer shape k, P(k, k) approaches 0.5 from below as k grows.
  EXPECT_NEAR(RegularizedGammaP(1.0, 1.0), 0.6321205588, 1e-9);
  EXPECT_NEAR(RegularizedGammaP(2.0, 2.0), 0.5939941503, 1e-9);
  // Shape 0.5: P(0.5, x) = erf(sqrt(x)).
  EXPECT_NEAR(RegularizedGammaP(0.5, 1.0), std::erf(1.0), 1e-9);
  EXPECT_NEAR(RegularizedGammaP(0.5, 4.0), std::erf(2.0), 1e-9);
}

TEST(RegularizedGammaP, BoundariesAndMonotonicity) {
  EXPECT_DOUBLE_EQ(RegularizedGammaP(3.0, 0.0), 0.0);
  double prev = 0.0;
  for (double x = 0.1; x < 30.0; x += 0.5) {
    const double p = RegularizedGammaP(3.0, x);
    EXPECT_GE(p, prev);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  EXPECT_NEAR(prev, 1.0, 1e-8);
}

/// P(a, x) in 80-bit arithmetic, series summed until the terms stop
/// changing the sum (all terms are positive, so there is no cancellation).
long double LongDoubleGammaP(long double a, long double x) {
  long double term = 1.0L / a;
  long double sum = term;
  for (long double n = 1.0L; term > sum * 1e-21L; n += 1.0L) {
    term *= x / (a + n);
    sum += term;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

TEST(RegularizedGammaP, ConvergesAtLargeShapes) {
  // Shapes 1e3 and 1e4 are CoVs 0.0316 and 0.01. The series and the
  // continued fraction both need 7-8 sqrt(a) terms near x = a; with a fixed
  // 500-term cap, shape 1e4 returned unconverged values (error 3.6e-7).
  for (const double a : {1e3, 1e4}) {
    const double sd = std::sqrt(a);
    for (double z = -4.0; z <= 4.0; z += 0.25) {
      const double x = a + z * sd;
      EXPECT_NEAR(RegularizedGammaP(a, x),
                  static_cast<double>(LongDoubleGammaP(a, x)), 1e-10)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(GammaQuantile, WindowOutsideTheRootOnlySkipsEvaluations) {
  // A sound window must not move the quantile: here one far wider than a
  // certified one, which still only answers probes the evaluation would
  // answer the same way.
  const double shape = 16.0;
  const double p = 0.3;
  const double root = GammaQuantile(shape, 1.0, p);
  const QuantileWindow window{0.5 * root, 2.0 * root};
  for (const double scale : {1e-3, 1.0, 46.875, 1e6}) {
    EXPECT_EQ(GammaQuantile(shape, std::lgamma(shape), scale, p, window),
              GammaQuantile(shape, scale, p))
        << "scale=" << scale;
  }
}

TEST(RegularizedGammaP, InvalidArgumentsThrow) {
  EXPECT_THROW((void)RegularizedGammaP(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)RegularizedGammaP(1.0, -1.0), std::invalid_argument);
}

TEST(GammaCdf, ScalesWithScaleParameter) {
  // CDF of Gamma(shape, scale) at x equals P(shape, x / scale).
  EXPECT_NEAR(GammaCdf(2.0, 10.0, 20.0), RegularizedGammaP(2.0, 2.0), 1e-12);
  EXPECT_DOUBLE_EQ(GammaCdf(2.0, 10.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(GammaCdf(2.0, 10.0, -5.0), 0.0);
}

class GammaQuantileRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(GammaQuantileRoundTrip, CdfOfQuantileIsP) {
  const auto [shape, scale, p] = GetParam();
  const double x = GammaQuantile(shape, scale, p);
  EXPECT_GT(x, 0.0);
  EXPECT_NEAR(GammaCdf(shape, scale, x), p, 1e-8)
      << "shape=" << shape << " scale=" << scale << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    SweepShapesScalesProbs, GammaQuantileRoundTrip,
    ::testing::Combine(::testing::Values(0.5, 1.0, 4.0, 16.0, 64.0),
                       ::testing::Values(1.0, 46.875, 750.0),
                       ::testing::Values(0.001, 0.05, 0.5, 0.95, 0.999)));

TEST(GammaQuantile, MedianOfExponential) {
  // Median of Exponential(scale) is scale * ln 2.
  EXPECT_NEAR(GammaQuantile(1.0, 2.0, 0.5), 2.0 * std::log(2.0), 1e-8);
}

TEST(GammaQuantile, InvalidProbabilityThrows) {
  EXPECT_THROW((void)GammaQuantile(1.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)GammaQuantile(1.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)GammaQuantile(1.0, 0.0, 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace ecdra::pmf
