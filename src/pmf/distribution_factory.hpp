// Generators for execution-time distributions.
//
// The paper (§VI) generates execution-time distributions with the CVB
// (coefficient-of-variation based) method of [AlS00]; the pmf shape itself is
// under-specified, so we discretize a Gamma distribution — the distribution
// family the CVB method is built on — around the CVB-sampled mean
// (DESIGN.md, interpretation decision 1).
#pragma once

#include <cstddef>
#include <vector>

#include "pmf/pmf.hpp"
#include "pmf/special_functions.hpp"

namespace ecdra::pmf {

struct DiscretizeOptions {
  /// Number of equal-probability bins (impulses) in the discretized pmf.
  std::size_t num_impulses = 24;
  /// Probability clipped off each tail before binning.
  double tail_clip = 1e-3;
};

/// Discretizes Gamma(mean, cov) for many means at one CoV: shape = 1/cov^2
/// is shared, so construction certifies, once per bin probability, a window
/// around the unit-scale quantile outside which no bisection probe needs an
/// evaluation of P (DESIGN.md, "Gamma discretisation"). Immutable after
/// construction; Discretize is bit-identical to bisecting every quantile
/// with GammaQuantile.
class GammaDiscretizer {
 public:
  /// Requires cov > 0, options.num_impulses >= 1 and
  /// options.tail_clip in [0, 0.5).
  explicit GammaDiscretizer(double cov, const DiscretizeOptions& options = {});

  /// Equal-probability-bin pmf of Gamma(mean, cov) whose impulses sit at
  /// bin-midpoint quantiles, rescaled so the pmf's expectation equals
  /// `mean` exactly. Requires mean > 0.
  [[nodiscard]] Pmf Discretize(double mean) const;

 private:
  struct Bin {
    /// Midpoint probability of the bin.
    double p;
    QuantileWindow window;
  };

  double cov_;
  double shape_;
  double lgamma_shape_;
  std::vector<Bin> bins_;
};

}  // namespace ecdra::pmf
