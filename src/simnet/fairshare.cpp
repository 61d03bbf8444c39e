#include "simnet/fairshare.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace envnws::simnet {

namespace {

void print_use(std::ostream& out, std::uint32_t resource) { out << " " << resource; }
void print_use(std::ostream& out, const WeightedUse& use) {
  out << " " << use.resource << "*" << use.weight;
}

/// Progressive filling must freeze at least one flow per round at a
/// finite share; a round that cannot (NaN or negative capacities) would
/// loop forever. Stop with the whole problem on stderr instead, in every
/// build type.
template <typename Problem>
[[noreturn, gnu::cold, gnu::noinline]] void stalled(const char* solver, const char* why,
                                                    const Problem& problem,
                                                    const std::vector<double>& residual) {
  std::ostringstream out;
  out.precision(17);
  out << solver << ": fair-share solver made no progress (" << why << ")\n  capacities:";
  for (const double c : problem.capacities) out << " " << c;
  out << "\n  residuals:";
  for (const double r : residual) out << " " << r;
  for (std::size_t f = 0; f < problem.flows.size(); ++f) {
    out << "\n  flow " << f << ":";
    for (const auto& use : problem.flows[f]) print_use(out, use);
  }
  std::fprintf(stderr, "%s\n", out.str().c_str());
  std::abort();
}

}  // namespace

std::vector<double> solve_max_min(const FairShareProblem& problem) {
  const std::size_t flow_count = problem.flows.size();
  const std::size_t resource_count = problem.capacities.size();
  std::vector<double> rates(flow_count, std::numeric_limits<double>::infinity());
  std::vector<double> residual = problem.capacities;
  std::vector<bool> fixed(flow_count, false);
  // users[r] = number of still-unfixed flows crossing resource r.
  std::vector<std::uint32_t> users(resource_count, 0);
  for (std::size_t f = 0; f < flow_count; ++f) {
    for (const std::uint32_t r : problem.flows[f]) {
      assert(r < resource_count);
      ++users[r];
    }
  }

  std::size_t remaining = 0;
  for (std::size_t f = 0; f < flow_count; ++f) {
    if (problem.flows[f].empty()) {
      fixed[f] = true;  // rate stays infinite: no shared resource involved
    } else {
      ++remaining;
    }
  }

  // Progressive filling: repeatedly saturate the most contended resource.
  while (remaining > 0) {
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < resource_count; ++r) {
      if (users[r] == 0) continue;
      const double share = residual[r] / static_cast<double>(users[r]);
      if (share < bottleneck_share) bottleneck_share = share;
    }
    if (!(bottleneck_share < std::numeric_limits<double>::infinity())) [[unlikely]] {
      stalled("solve_max_min", "no finite bottleneck share", problem, residual);
    }

    // Every unfixed flow crossing a resource whose fair share equals the
    // bottleneck share is frozen at that rate.
    bool froze_any = false;
    for (std::size_t f = 0; f < flow_count; ++f) {
      if (fixed[f]) continue;
      bool at_bottleneck = false;
      for (const std::uint32_t r : problem.flows[f]) {
        // Tolerate floating-point noise when comparing shares.
        const double share = residual[r] / static_cast<double>(users[r]);
        if (share <= bottleneck_share * (1.0 + 1e-12)) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) continue;
      fixed[f] = true;
      froze_any = true;
      --remaining;
      rates[f] = bottleneck_share;
      for (const std::uint32_t r : problem.flows[f]) {
        residual[r] -= bottleneck_share;
        if (residual[r] < 0.0) residual[r] = 0.0;
        --users[r];
      }
    }
    if (!froze_any) [[unlikely]] {
      stalled("solve_max_min", "no flow froze", problem, residual);
    }
  }
  return rates;
}

std::vector<double> solve_max_min_weighted(const WeightedFairShareProblem& problem) {
  const std::size_t flow_count = problem.flows.size();
  const std::size_t resource_count = problem.capacities.size();
  std::vector<double> rates(flow_count, std::numeric_limits<double>::infinity());
  std::vector<double> residual = problem.capacities;
  std::vector<bool> fixed(flow_count, false);
  // weight_sum[r] = total weight of still-unfixed flows crossing r; the
  // equal-rate share of r is residual[r] / weight_sum[r]. The integer
  // live-user count, not the floating-point weight sum, decides whether
  // a resource still constrains anyone: subtracting frozen weights
  // leaves dust (~1e-17) on a fully-drained resource, and its dust
  // share residual/dust can undercut every live flow's share — a
  // bottleneck no flow crosses, so no flow freezes and the filling
  // loop never terminates.
  std::vector<double> weight_sum(resource_count, 0.0);
  std::vector<std::uint32_t> live_users(resource_count, 0);
  for (std::size_t f = 0; f < flow_count; ++f) {
    for (const WeightedUse& use : problem.flows[f]) {
      assert(use.resource < resource_count);
      assert(use.weight > 0.0);
      weight_sum[use.resource] += use.weight;
      ++live_users[use.resource];
    }
  }

  std::size_t remaining = 0;
  for (std::size_t f = 0; f < flow_count; ++f) {
    if (problem.flows[f].empty()) {
      fixed[f] = true;  // rate stays infinite: no shared resource involved
    } else {
      ++remaining;
    }
  }

  while (remaining > 0) {
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < resource_count; ++r) {
      if (live_users[r] == 0) continue;
      const double share = residual[r] / weight_sum[r];
      if (share < bottleneck_share) bottleneck_share = share;
    }
    if (!(bottleneck_share < std::numeric_limits<double>::infinity())) [[unlikely]] {
      stalled("solve_max_min_weighted", "no finite bottleneck share", problem, residual);
    }

    bool froze_any = false;
    for (std::size_t f = 0; f < flow_count; ++f) {
      if (fixed[f]) continue;
      bool at_bottleneck = false;
      for (const WeightedUse& use : problem.flows[f]) {
        // weight_sum here is ≥ this flow's own weight: an unfixed flow
        // counts itself among the resource's live users.
        const double share = residual[use.resource] / weight_sum[use.resource];
        if (share <= bottleneck_share * (1.0 + 1e-12)) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) continue;
      fixed[f] = true;
      froze_any = true;
      --remaining;
      rates[f] = bottleneck_share;
      for (const WeightedUse& use : problem.flows[f]) {
        residual[use.resource] -= bottleneck_share * use.weight;
        if (residual[use.resource] < 0.0) residual[use.resource] = 0.0;
        weight_sum[use.resource] -= use.weight;
        // A drained resource drops out exactly; the dust the subtraction
        // left behind must never re-enter a share quotient.
        if (--live_users[use.resource] == 0 || weight_sum[use.resource] < 0.0) {
          weight_sum[use.resource] = 0.0;
        }
      }
    }
    if (!froze_any) [[unlikely]] {
      stalled("solve_max_min_weighted", "no flow froze", problem, residual);
    }
  }
  return rates;
}

}  // namespace envnws::simnet
