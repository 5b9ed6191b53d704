#include "pmf/distribution_factory.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace ecdra::pmf {
namespace {

// A window edge is certified when the computed P there clears p by at least
// kCertifyMargin. The computed P is within e of the true, monotone P, so a
// probe beyond a certified edge is answered the way its evaluation would be
// whenever kCertifyMargin > 2e. Measured against an 80-bit series over the
// 1e-4..1-1e-4 quantile range, e is 8.5e-15 at shape 16, 2.8e-13 at 400 and
// 8.2e-13 at 1000: the margin is over 60x the bound at the cap.
constexpr double kCertifyMargin = 1e-10;
// Relative half-widths tried around the root: 1e-9, 4e-9, ... up to 1e-2.
constexpr double kFirstHalfWidth = 1e-9;
constexpr double kHalfWidthGrowth = 4.0;
constexpr double kMaxHalfWidth = 1e-2;
// The error bound above is only measured up to this shape (CoV ~0.0316);
// larger shapes keep the empty window and evaluate every probe.
constexpr double kMaxCertifiedShape = 1000.0;

/// The narrowest certified window around the unit-scale quantile of p, or
/// the empty window when none certifies.
QuantileWindow CertifyWindow(double shape, double lgamma_shape, double p) {
  if (shape > kMaxCertifiedShape) return {};
  const double root = GammaQuantile(shape, lgamma_shape, 1.0, p, {});
  for (double delta = kFirstHalfWidth; delta <= kMaxHalfWidth;
       delta *= kHalfWidthGrowth) {
    const double below = root * (1.0 - delta);
    const double above = root * (1.0 + delta);
    if (RegularizedGammaP(shape, below, lgamma_shape) <= p - kCertifyMargin &&
        RegularizedGammaP(shape, above, lgamma_shape) >= p + kCertifyMargin) {
      return QuantileWindow{below, above};
    }
  }
  return {};
}

}  // namespace

GammaDiscretizer::GammaDiscretizer(double cov,
                                   const DiscretizeOptions& options)
    : cov_(cov) {
  ECDRA_REQUIRE(cov > 0.0, "gamma coefficient of variation must be positive");
  ECDRA_REQUIRE(options.num_impulses >= 1, "need at least one impulse");
  ECDRA_REQUIRE(options.tail_clip >= 0.0 && options.tail_clip < 0.5,
                "tail clip must be in [0, 0.5)");
  // Gamma parameterization from mean and CoV: shape = 1/cov^2 here,
  // scale = mean * cov^2 per Discretize call.
  shape_ = 1.0 / (cov * cov);
  lgamma_shape_ = std::lgamma(shape_);

  const double p_lo = options.tail_clip;
  const double p_hi = 1.0 - options.tail_clip;
  const double span = p_hi - p_lo;
  const std::size_t n = options.num_impulses;
  bins_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Midpoint probability of the i-th equal-probability bin.
    const double p = p_lo + span * (static_cast<double>(i) + 0.5) /
                                static_cast<double>(n);
    bins_.push_back(Bin{p, CertifyWindow(shape_, lgamma_shape_, p)});
  }
}

Pmf GammaDiscretizer::Discretize(double mean) const {
  ECDRA_REQUIRE(mean > 0.0, "gamma mean must be positive");
  // Evaluated as (mean * cov) * cov: precomputing cov^2 would round
  // differently and move the quantiles.
  const double scale = mean * cov_ * cov_;
  const std::size_t n = bins_.size();

  std::vector<Impulse> impulses;
  impulses.reserve(n);
  for (const Bin& bin : bins_) {
    impulses.push_back(Impulse{
        GammaQuantile(shape_, lgamma_shape_, scale, bin.p, bin.window),
        1.0 / n});
  }
  Pmf pmf = Pmf::FromImpulses(std::move(impulses), n);
  // Midpoint quantiles slightly bias the mean; rescale support so the pmf's
  // expectation is exactly the requested mean.
  const double achieved = pmf.Expectation();
  ECDRA_ASSERT(achieved > 0.0, "discretized gamma has non-positive mean");
  return pmf.ScaleValues(mean / achieved);
}

}  // namespace ecdra::pmf
