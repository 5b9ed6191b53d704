// Shared fixtures and builders for the test suite: tiny deterministic
// clusters and pmfs with hand-computable behaviour.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/power_model.hpp"
#include "pmf/pmf.hpp"
#include "sim/metrics.hpp"

namespace ecdra::test {

/// A node with known round-number P-states: frequencies 1.0, 0.8, 0.64,
/// 0.512, 0.4096 (time multipliers 1, 1.25, 1.5625, ...), P0 power 100 W,
/// voltages 1.5 / 1.0.
inline cluster::Node SimpleNode(std::size_t processors = 1,
                                std::size_t cores_per_processor = 1,
                                double efficiency = 1.0) {
  cluster::PowerModelInputs inputs;
  inputs.p0_power_watts = 100.0;
  inputs.high_voltage = 1.5;
  inputs.low_voltage = 1.0;
  inputs.frequency_ratios = {1.0, 0.8, 0.64, 0.512, 0.4096};
  cluster::Node node;
  node.num_processors = processors;
  node.cores_per_processor = cores_per_processor;
  node.power_efficiency = efficiency;
  node.pstates = cluster::BuildPStateProfile(inputs);
  return node;
}

/// Single-node single-core cluster.
inline cluster::Cluster SingleCoreCluster(double efficiency = 1.0) {
  return cluster::Cluster({SimpleNode(1, 1, efficiency)});
}

/// A small two-impulse pmf {(lo, 0.5), (hi, 0.5)}.
inline pmf::Pmf TwoPoint(double lo, double hi) {
  return pmf::Pmf::FromImpulses({{lo, 0.5}, {hi, 0.5}});
}

/// EXPECT_EQ on every row of the TrialResult field table (bit-exact
/// doubles) and on each extension block's enabled flag: every field the
/// checkpoint record carries, except the counters and the validation report.
inline void ExpectSameResult(const sim::TrialResult& a,
                             const sim::TrialResult& b) {
  for (const sim::ResultField& field : sim::ResultFields()) {
    EXPECT_EQ(field.get(a), field.get(b))
        << sim::ResultBlockKey(field.block) << '.' << field.key;
  }
  for (const sim::ResultBlock block : sim::kExtensionBlocks) {
    EXPECT_EQ(sim::ResultBlockEnabled(a, block),
              sim::ResultBlockEnabled(b, block))
        << sim::ResultBlockKey(block);
  }
}

}  // namespace ecdra::test
