#include "simnet/fairshare.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace envnws::simnet {
namespace {

TEST(FairShare, SingleFlowGetsFullCapacity) {
  FairShareProblem problem{{100.0}, {{0}}};
  const auto rates = solve_max_min(problem);
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
}

TEST(FairShare, TwoFlowsShareEqually) {
  FairShareProblem problem{{100.0}, {{0}, {0}}};
  const auto rates = solve_max_min(problem);
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
}

TEST(FairShare, BottleneckCapsButLeavesResidualToOthers) {
  // Flow 0 crosses a 10-capacity uplink and a shared 100 medium;
  // flow 1 uses the medium only: classic "10 Mbps bottleneck through a
  // 100 Mbps hub" situation.
  FairShareProblem problem{{10.0, 100.0}, {{0, 1}, {1}}};
  const auto rates = solve_max_min(problem);
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 90.0);
}

TEST(FairShare, DisjointFlowsDoNotInteract) {
  FairShareProblem problem{{33.0, 33.0}, {{0}, {1}}};
  const auto rates = solve_max_min(problem);
  EXPECT_DOUBLE_EQ(rates[0], 33.0);
  EXPECT_DOUBLE_EQ(rates[1], 33.0);
}

TEST(FairShare, FlowWithoutResourcesIsUnbounded) {
  FairShareProblem problem{{10.0}, {{}, {0}}};
  const auto rates = solve_max_min(problem);
  EXPECT_TRUE(std::isinf(rates[0]));
  EXPECT_DOUBLE_EQ(rates[1], 10.0);
}

TEST(FairShare, ThreeLevelProgressiveFilling) {
  // r0 = 30 shared by flows {0,1,2}; r1 = 50 shared by {1,2}; r2 = 40 by {2}.
  // Progressive filling: all get 10 at r0 -> no further constraint binds
  // below the next bottleneck... all three stop at 10.
  FairShareProblem problem{{30.0, 50.0, 40.0}, {{0}, {0, 1}, {0, 1, 2}}};
  const auto rates = solve_max_min(problem);
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 10.0);
  EXPECT_DOUBLE_EQ(rates[2], 10.0);
}

TEST(FairShare, UnevenBottlenecks) {
  // Flow 0: narrow private link (5); flow 1 shares the big pipe (100).
  FairShareProblem problem{{5.0, 100.0}, {{0, 1}, {1}}};
  const auto rates = solve_max_min(problem);
  EXPECT_DOUBLE_EQ(rates[0], 5.0);
  EXPECT_DOUBLE_EQ(rates[1], 95.0);
}

TEST(FairShare, EmptyProblem) {
  FairShareProblem problem{{}, {}};
  EXPECT_TRUE(solve_max_min(problem).empty());
}

// --- property-based: random problems satisfy max-min optimality ----------

class FairShareProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FairShareProperty, CapacityRespectedAndEveryFlowHasSaturatedBottleneck) {
  Rng rng(GetParam());
  const std::size_t resources = 2 + rng.next_below(6);
  const std::size_t flows = 1 + rng.next_below(10);
  FairShareProblem problem;
  for (std::size_t r = 0; r < resources; ++r) {
    problem.capacities.push_back(rng.uniform(5.0, 200.0));
  }
  for (std::size_t f = 0; f < flows; ++f) {
    std::vector<std::uint32_t> used;
    for (std::uint32_t r = 0; r < resources; ++r) {
      if (rng.next_double() < 0.5) used.push_back(r);
    }
    if (used.empty()) used.push_back(static_cast<std::uint32_t>(rng.next_below(resources)));
    problem.flows.push_back(used);
  }

  const auto rates = solve_max_min(problem);
  ASSERT_EQ(rates.size(), flows);

  // (1) No resource is over-subscribed.
  std::vector<double> load(resources, 0.0);
  for (std::size_t f = 0; f < flows; ++f) {
    EXPECT_GT(rates[f], 0.0);
    for (const auto r : problem.flows[f]) load[r] += rates[f];
  }
  for (std::size_t r = 0; r < resources; ++r) {
    EXPECT_LE(load[r], problem.capacities[r] * (1.0 + 1e-9));
  }

  // (2) Max-min: every flow crosses at least one saturated resource where
  // it is among the largest allocations (otherwise its rate could grow).
  for (std::size_t f = 0; f < flows; ++f) {
    bool has_bottleneck = false;
    for (const auto r : problem.flows[f]) {
      const bool saturated = load[r] >= problem.capacities[r] * (1.0 - 1e-9);
      if (!saturated) continue;
      bool is_max = true;
      for (std::size_t g = 0; g < flows; ++g) {
        if (g == f) continue;
        const bool crosses =
            std::find(problem.flows[g].begin(), problem.flows[g].end(), r) !=
            problem.flows[g].end();
        if (crosses && rates[g] > rates[f] * (1.0 + 1e-9)) {
          is_max = false;
          break;
        }
      }
      if (is_max) {
        has_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(has_bottleneck) << "flow " << f << " has no saturated bottleneck";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, FairShareProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// A capacity no round can fill used to spin forever in release builds,
// where the progress asserts compiled away; the guard aborts in every
// build type and names the stuck problem.
TEST(FairShareDeathTest, UnfillableCapacityAbortsInsteadOfSpinning) {
  const double nan = std::nan("");
  EXPECT_DEATH(solve_max_min(FairShareProblem{{nan}, {{0}}}),
               "no progress \\(no finite bottleneck share\\).*capacities: nan");
  EXPECT_DEATH(solve_max_min(FairShareProblem{{-1.0}, {{0}}}),
               "no progress \\(no flow froze\\).*residuals: -1.*flow 0: 0");
}

TEST(WeightedFairShareDeathTest, UnfillableCapacityAbortsInsteadOfSpinning) {
  const double nan = std::nan("");
  EXPECT_DEATH(solve_max_min_weighted(WeightedFairShareProblem{{nan}, {{{0, 1.0}}}}),
               "solve_max_min_weighted: .*no finite bottleneck share");
  EXPECT_DEATH(solve_max_min_weighted(WeightedFairShareProblem{{-1.0}, {{{0, 1.0}}}}),
               "solve_max_min_weighted: .*no flow froze.*flow 0: 0\\*1");
}

}  // namespace
}  // namespace envnws::simnet
