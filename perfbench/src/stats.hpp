// Order statistics for the benchmark's reported timings.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for even counts).
/// Requires a non-empty input.
[[nodiscard]] double Median(std::vector<double> values);

/// Nearest-rank percentile: the sample at 1-based rank ceil(p/100 * n),
/// clamped to [1, n]. Requires a non-empty input and 0 <= p <= 100.
[[nodiscard]] double Percentile(std::vector<double> values, double p);

/// The highest whole percentile whose nearest-rank sample still has at
/// least `beyond` samples ranked above it in a pass of `n` samples:
/// floor(100 * (n - beyond) / n). Requires n > beyond.
[[nodiscard]] int TailPercentile(std::size_t n, std::size_t beyond = 10);

}  // namespace perfbench
