#include "pmf/distribution_factory.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "experiment/paper_config.hpp"
#include "obs/counters.hpp"
#include "pmf/special_functions.hpp"
#include "util/rng.hpp"
#include "workload/task_type_table.hpp"

namespace ecdra::pmf {
namespace {

/// The assembly the discretizer replaced: one windowless GammaQuantile per
/// bin, FromImpulses, then a rescale to the exact mean.
Pmf ReferenceDiscretize(double mean, double cov,
                        const DiscretizeOptions& options) {
  const double shape = 1.0 / (cov * cov);
  const double scale = mean * cov * cov;
  const double p_lo = options.tail_clip;
  const double span = (1.0 - options.tail_clip) - p_lo;
  const std::size_t n = options.num_impulses;
  std::vector<Impulse> impulses;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = p_lo + span * (static_cast<double>(i) + 0.5) /
                                static_cast<double>(n);
    impulses.push_back(Impulse{GammaQuantile(shape, scale, p), 1.0 / n});
  }
  Pmf pmf = Pmf::FromImpulses(std::move(impulses), n);
  const double achieved = pmf.Expectation();
  return pmf.ScaleValues(mean / achieved);
}

/// Empty when `got` and `want` agree bit for bit, else the first difference.
std::string BitDifference(const Pmf& got, const Pmf& want) {
  if (got.size() != want.size()) return "impulse counts differ";
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Impulse& a = got.impulses()[i];
    const Impulse& b = want.impulses()[i];
    if (std::bit_cast<std::uint64_t>(a.value) !=
            std::bit_cast<std::uint64_t>(b.value) ||
        std::bit_cast<std::uint64_t>(a.prob) !=
            std::bit_cast<std::uint64_t>(b.prob)) {
      std::ostringstream os;
      os.precision(17);
      os << "impulse " << i << ": (" << a.value << ", " << a.prob
         << ") vs (" << b.value << ", " << b.prob << ")";
      return os.str();
    }
  }
  return {};
}

TEST(GammaDiscretizer, MeanIsExact) {
  const Pmf pmf = GammaDiscretizer(0.25).Discretize(750.0);
  EXPECT_NEAR(pmf.Expectation(), 750.0, 1e-9);
}

TEST(GammaDiscretizer, ImpulseCountMatchesOptions) {
  DiscretizeOptions options;
  options.num_impulses = 24;
  EXPECT_EQ(GammaDiscretizer(0.25, options).Discretize(750.0).size(), 24u);
  options.num_impulses = 7;
  EXPECT_EQ(GammaDiscretizer(0.25, options).Discretize(750.0).size(), 7u);
  options.num_impulses = 1;
  const Pmf one = GammaDiscretizer(0.25, options).Discretize(750.0);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_NEAR(one.Expectation(), 750.0, 1e-9);
}

TEST(GammaDiscretizer, EqualProbabilityBins) {
  const Pmf pmf = GammaDiscretizer(0.5).Discretize(100.0);
  for (const Impulse& imp : pmf.impulses()) {
    EXPECT_NEAR(imp.prob, 1.0 / static_cast<double>(pmf.size()), 1e-12);
  }
}

class GammaDiscretizerSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GammaDiscretizerSweep, CovApproximatelyRecovered) {
  const auto [mean, cov] = GetParam();
  DiscretizeOptions options;
  options.num_impulses = 64;  // fine enough to estimate the CoV well
  const Pmf pmf = GammaDiscretizer(cov, options).Discretize(mean);
  EXPECT_NEAR(pmf.Expectation(), mean, 1e-9 * mean);
  const double sample_cov = std::sqrt(pmf.Variance()) / pmf.Expectation();
  EXPECT_NEAR(sample_cov, cov, 0.10 * cov);
  EXPECT_GT(pmf.Min(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    MeansAndCovs, GammaDiscretizerSweep,
    ::testing::Combine(::testing::Values(10.0, 750.0, 5000.0),
                       ::testing::Values(0.1, 0.25, 0.5)));

TEST(GammaDiscretizer, SupportWidensWithSmallerTailClip) {
  DiscretizeOptions tight;
  tight.tail_clip = 0.05;
  DiscretizeOptions loose;
  loose.tail_clip = 1e-4;
  const Pmf narrow = GammaDiscretizer(0.25, tight).Discretize(750.0);
  const Pmf wide = GammaDiscretizer(0.25, loose).Discretize(750.0);
  EXPECT_LT(narrow.Max() - narrow.Min(), wide.Max() - wide.Min());
}

TEST(GammaDiscretizer, InvalidArgumentsThrow) {
  EXPECT_THROW((void)GammaDiscretizer(0.25).Discretize(0.0),
               std::invalid_argument);
  EXPECT_THROW((void)GammaDiscretizer(0.0).Discretize(750.0),
               std::invalid_argument);
  DiscretizeOptions bad;
  bad.num_impulses = 0;
  EXPECT_THROW((void)GammaDiscretizer(0.25, bad).Discretize(750.0),
               std::invalid_argument);
  bad = DiscretizeOptions{};
  bad.tail_clip = 0.5;
  EXPECT_THROW((void)GammaDiscretizer(0.25, bad).Discretize(750.0),
               std::invalid_argument);
}

TEST(GammaDiscretizer, BitIdenticalToPerQuantileBisection) {
  // CoVs from the shape cap (0.0316, shape ~1000) to shape 0.44, every bin
  // count and tail clip the options allow in practice, 50 log-uniform means
  // from 1e-2 to 1e6 each.
  util::RngStream rng(2011);
  std::size_t mismatches = 0;
  std::string first;
  for (const double cov : {0.0316, 0.05, 0.15, 0.25, 0.4, 0.6, 1.0, 1.5}) {
    for (const std::size_t bins : {1u, 7u, 24u, 64u}) {
      for (const double clip : {0.0, 1e-3, 1e-2}) {
        const DiscretizeOptions options{bins, clip};
        const GammaDiscretizer discretizer(cov, options);
        for (int k = 0; k < 50; ++k) {
          const double mean =
              std::exp(rng.UniformReal(std::log(1e-2), std::log(1e6)));
          const std::string diff =
              BitDifference(discretizer.Discretize(mean),
                            ReferenceDiscretize(mean, cov, options));
          if (diff.empty()) continue;
          if (mismatches++ == 0) {
            std::ostringstream os;
            os.precision(17);
            os << "cov=" << cov << " bins=" << bins << " clip=" << clip
               << " mean=" << mean << ": " << diff;
            first = os.str();
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first;
}

TEST(GammaDiscretizer, AboveTheShapeCapEveryProbeIsEvaluated) {
  // CoV 0.01 is shape 10000, past the measured error bound: no window, so
  // Discretize evaluates exactly the probes the reference does, and its
  // output is the reference assembly bit for bit.
  const GammaDiscretizer discretizer(0.01);
  for (const double mean : {0.5, 750.0, 2.5e5}) {
    obs::Counters windowed;
    obs::Counters reference;
    Pmf got;
    Pmf want;
    {
      const obs::CountersScope scope(&windowed);
      got = discretizer.Discretize(mean);
    }
    {
      const obs::CountersScope scope(&reference);
      want = ReferenceDiscretize(mean, 0.01, {});
    }
    EXPECT_EQ(BitDifference(got, want), "") << "mean=" << mean;
    EXPECT_EQ(windowed.pmf_gamma_cdf_evals, reference.pmf_gamma_cdf_evals)
        << "mean=" << mean;
  }
}

TEST(GammaDiscretizer, PaperTaskTypeTableIsBitIdentical) {
  const sim::ExperimentSetup setup = experiment::BuildPaperSetup();
  const sim::SetupOptions env = experiment::PaperSetupOptions();
  const double cov = env.exec_cov > 0.0 ? env.exec_cov : env.cvb.task_cov;
  for (std::size_t type = 0; type < setup.types.num_types(); ++type) {
    for (std::size_t node = 0; node < setup.types.num_nodes(); ++node) {
      const Pmf base =
          ReferenceDiscretize(setup.etc.at(type, node), cov, env.discretize);
      for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
        const double multiplier =
            setup.cluster.node(node).pstates[s].time_multiplier;
        ASSERT_EQ(BitDifference(setup.types.ExecPmf(type, node, s),
                                base.ScaleValues(multiplier)),
                  "")
            << "type " << type << " node " << node << " P-state " << s;
      }
    }
  }
}

TEST(GammaDiscretizer, PaperTableBuildStaysWithinItsGammaEvaluations) {
  // Deterministic op-count gate on the §VI table build: 100 types x 8
  // nodes x 24 quantiles. Before the certified windows every quantile
  // bisected from scratch: 803200 evaluations of P(a, x).
  const sim::ExperimentSetup setup = experiment::BuildPaperSetup();
  const sim::SetupOptions env = experiment::PaperSetupOptions();
  obs::Counters counters;
  {
    const obs::CountersScope scope(&counters);
    const workload::TaskTypeTable table(
        setup.cluster, setup.etc,
        env.exec_cov > 0.0 ? env.exec_cov : env.cvb.task_cov,
        env.discretize);
  }
  EXPECT_LE(counters.pmf_gamma_cdf_evals, 238650u);
}

}  // namespace
}  // namespace ecdra::pmf
