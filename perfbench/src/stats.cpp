#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile must lie in [0, 100]");
  }
  // p * n first: for whole p and n the product is exact, so a percentile
  // landing exactly on a rank is not pushed one rank up by rounding p / 100.
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(p * n / 100.0), 1.0, n));
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

int TailPercentile(std::size_t n, std::size_t beyond) {
  if (n <= beyond) {
    throw std::invalid_argument(
        "a tail percentile needs more samples than the ones beyond it");
  }
  return static_cast<int>(100 * (n - beyond) / n);
}

}  // namespace perfbench
