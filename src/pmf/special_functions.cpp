#include "pmf/special_functions.hpp"

#include <cmath>
#include <limits>

#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace ecdra::pmf {
namespace {

constexpr double kEps = 3.0e-14;
constexpr double kFpMin = std::numeric_limits<double>::min() / kEps;

/// Iteration budget of either expansion at shape a. Near x ≈ a the terms
/// decay like exp(-n^2 / 2a), so both need about 7-8 sqrt(a) iterations
/// (measured for a from 1e3 to 1e8). A fixed cap of 500 silently truncated
/// shapes above ~4000; 16 sqrt(a) leaves a 2x margin, and the floor keeps
/// small shapes at the old cap.
double IterationBudget(double a) { return 500.0 + 16.0 * std::sqrt(a); }

/// Series representation of P(a, x); converges quickly for x < a + 1.
double GammaPSeries(double a, double x, double lgamma_a) {
  const double budget = IterationBudget(a);
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  bool converged = false;
  for (int i = 0; i < budget; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) {
      converged = true;
      break;
    }
  }
  ECDRA_ASSERT(converged, "incomplete gamma series did not converge");
  return sum * std::exp(-x + a * std::log(x) - lgamma_a);
}

/// Continued-fraction representation of Q(a, x) = 1 - P(a, x); converges
/// quickly for x >= a + 1 (modified Lentz's method).
double GammaQContinuedFraction(double a, double x, double lgamma_a) {
  const double budget = IterationBudget(a);
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  bool converged = false;
  for (int i = 1; i <= budget; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) {
      converged = true;
      break;
    }
  }
  ECDRA_ASSERT(converged,
               "incomplete gamma continued fraction did not converge");
  return std::exp(-x + a * std::log(x) - lgamma_a) * h;
}

}  // namespace

double RegularizedGammaP(double a, double x) {
  return RegularizedGammaP(a, x, std::lgamma(a));
}

double RegularizedGammaP(double a, double x, double lgamma_a) {
  ECDRA_REQUIRE(a > 0.0, "gamma shape must be positive");
  ECDRA_REQUIRE(x >= 0.0, "incomplete gamma argument must be non-negative");
  obs::Bump(&obs::Counters::pmf_gamma_cdf_evals);
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return GammaPSeries(a, x, lgamma_a);
  return 1.0 - GammaQContinuedFraction(a, x, lgamma_a);
}

double GammaCdf(double shape, double scale, double x) {
  ECDRA_REQUIRE(scale > 0.0, "gamma scale must be positive");
  if (x <= 0.0) return 0.0;
  return RegularizedGammaP(shape, x / scale);
}

double GammaQuantile(double shape, double lgamma_shape, double scale,
                     double p, const QuantileWindow& window) {
  ECDRA_REQUIRE(shape > 0.0, "gamma shape must be positive");
  ECDRA_REQUIRE(scale > 0.0, "gamma scale must be positive");
  ECDRA_REQUIRE(p > 0.0 && p < 1.0, "quantile probability must be in (0,1)");
  // GammaCdf(shape, scale, x) < p, answered from the window when the probe
  // falls outside it.
  const auto cdf_below_p = [&](double x) {
    if (x <= 0.0) return true;
    const double u = x / scale;
    if (u <= window.below) return true;
    if (u >= window.above) return false;
    return RegularizedGammaP(shape, u, lgamma_shape) < p;
  };
  // Bracket the root. The mean is shape*scale; expand geometrically.
  double lo = 0.0;
  double hi = shape * scale;
  while (cdf_below_p(hi)) {
    lo = hi;
    hi *= 2.0;
    ECDRA_ASSERT(hi < 1e300, "gamma quantile bracket diverged");
  }
  // Bisection: robust, and with a window only the probes near the root
  // cost an evaluation.
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (cdf_below_p(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo <= 1e-12 * (1.0 + hi)) break;
  }
  return 0.5 * (lo + hi);
}

double GammaQuantile(double shape, double scale, double p) {
  return GammaQuantile(shape, std::lgamma(shape), scale, p, QuantileWindow{});
}

}  // namespace ecdra::pmf
