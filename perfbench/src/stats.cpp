#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, samples.size() - 1);
  return samples[low] + (samples[high] - samples[low]) * (rank - static_cast<double>(low));
}

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly above the p-th percentile's rank.
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= 10.0) best = p;
  }
  return best;
}

Summary summarize(const std::vector<double>& samples) {
  Summary summary;
  summary.samples = samples.size();
  summary.p50 = percentile(samples, 50.0);
  summary.tail_percentile = highest_supported_percentile(samples.size());
  summary.tail = percentile(samples, summary.tail_percentile);
  return summary;
}

}  // namespace perfbench
