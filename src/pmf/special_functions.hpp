// Special functions needed to discretize Gamma execution-time distributions:
// the regularized lower incomplete gamma function P(a, x) and the Gamma
// quantile function. P(a, x) follows the classic series / continued-fraction
// split (Numerical Recipes style); the quantile is found by bracketing and
// bisection on P.
//
// Bisection only ever asks "is P(shape, u) below p?". A QuantileWindow lets a
// caller that inverts the same (shape, p) many times answer that question
// without evaluating P far from the root: below the window the answer is
// "yes", above it "no". A window is only sound when it is certified against
// the computed P (GammaDiscretizer does this, DESIGN.md "Gamma
// discretisation"); then every comparison has the outcome the evaluation
// would give, so the quantile is bit-identical to the windowless one.
#pragma once

#include <limits>

namespace ecdra::pmf {

/// Regularized lower incomplete gamma function P(a, x) = γ(a, x) / Γ(a),
/// i.e. the CDF at x of a Gamma(shape=a, scale=1) random variable.
/// Requires a > 0 and x >= 0. Throws std::logic_error if the series or the
/// continued fraction fails to converge within its iteration budget, which
/// grows with sqrt(a) (measured to suffice up to a = 1e8).
[[nodiscard]] double RegularizedGammaP(double a, double x);

/// RegularizedGammaP with lgamma(a) supplied by the caller, for callers that
/// evaluate many x at one shape. Bit-identical to RegularizedGammaP(a, x)
/// when `lgamma_a == std::lgamma(a)`.
[[nodiscard]] double RegularizedGammaP(double a, double x, double lgamma_a);

/// CDF of Gamma(shape, scale) at x (0 for x <= 0).
[[nodiscard]] double GammaCdf(double shape, double scale, double x);

/// Unit-scale interval (below, above) around a quantile's root. A bisection
/// probe at u = x / scale with u <= below is answered "P < p" and one with
/// u >= above "P >= p", without evaluating P. The default is the empty
/// window: every probe is evaluated.
struct QuantileWindow {
  double below = -std::numeric_limits<double>::infinity();
  double above = std::numeric_limits<double>::infinity();
};

/// Quantile (inverse CDF) of Gamma(shape, scale) at probability p in (0, 1):
/// geometric bracketing from the mean, then bisection to a relative width of
/// 1e-12. `lgamma_shape` must equal std::lgamma(shape).
[[nodiscard]] double GammaQuantile(double shape, double lgamma_shape,
                                   double scale, double p,
                                   const QuantileWindow& window);

/// The reference quantile: GammaQuantile with the empty window.
[[nodiscard]] double GammaQuantile(double shape, double scale, double p);

}  // namespace ecdra::pmf
