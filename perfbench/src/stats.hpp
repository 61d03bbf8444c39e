// Sample summaries for the benchmark's reports.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// The `p`-th percentile (0..100) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that
/// still has at least ten of `n` samples beyond it (0 when n < 20,
/// where not even the median has ten samples above it).
[[nodiscard]] double highest_supported_percentile(std::size_t n);

/// A timing reported as median plus its tail, each with its sample
/// count (the count is the same for both: one sample set).
struct Summary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail_percentile = 0.0;  ///< highest_supported_percentile(samples)
  double tail = 0.0;
};
[[nodiscard]] Summary summarize(const std::vector<double>& samples);

}  // namespace perfbench
