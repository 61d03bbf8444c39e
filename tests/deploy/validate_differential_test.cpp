// Differential test of the deployment validator: every ValidationReport
// field, bit for bit, against a test-local reference copy of the
// all-pairs definition — the collision check walking every cross-clique
// experiment combination and the completeness check asking the
// CoverageGraph's breadth-first route() for every host pair. The
// component labels that answer completeness must also agree with
// route() on every host pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "api/envnws.hpp"
#include "common/units.hpp"
#include "deploy/query.hpp"
#include "deploy/validate.hpp"
#include "simnet/fairshare.hpp"
#include "simnet/scenario.hpp"

namespace envnws::deploy {
namespace {

using units::mbps;

/// The O(pairs^2) validator, as it was defined before the resource
/// index and the component labels: every cross-clique combination of
/// experiment pairs is visited in (clique, clique, pair, pair) order.
/// One pass serves several tolerances — findings are filtered per
/// tolerance in visit order, then sorted as the validator sorts them —
/// and each pair's resources are looked up once instead of once per
/// combination; neither changes what the definition reports.
/// `coverage` is the plan's CoverageGraph under the topology resolver.
std::vector<ValidationReport> reference_validate(const DeploymentPlan& plan,
                                                 simnet::Network& net,
                                                 const CoverageGraph& coverage,
                                                 const std::vector<double>& tolerances,
                                                 ValidatorOptions options = {}) {
  using Resources = std::optional<std::vector<std::uint32_t>>;
  struct ResolvedClique {
    std::string name;
    double period_s = 10.0;
    std::vector<simnet::NodeId> members;
    std::vector<std::pair<simnet::NodeId, simnet::NodeId>> pairs;
    std::vector<Resources> resources;
  };
  ValidationReport report;
  const simnet::Topology& topo = net.topology();
  const auto resolve = topology_resolver(topo);

  std::vector<ResolvedClique> cliques;
  for (const auto& planned : plan.cliques) {
    ResolvedClique clique;
    clique.name = planned.name;
    clique.period_s = planned.period_s;
    for (const auto& member : planned.members) {
      if (auto id = topo.find_by_name(resolve(member)); id.ok()) {
        clique.members.push_back(id.value());
      }
    }
    for (const simnet::NodeId a : clique.members) {
      for (const simnet::NodeId b : clique.members) {
        if (a != b) clique.pairs.emplace_back(a, b);
      }
    }
    for (const auto& [a, b] : clique.pairs) {
      auto resources = net.path_resources(a, b);
      clique.resources.push_back(resources.ok() ? Resources(resources.value()) : std::nullopt);
    }
    report.max_clique_size = std::max(report.max_clique_size, clique.members.size());
    report.worst_cycle_time_s = std::max(
        report.worst_cycle_time_s, clique.period_s * static_cast<double>(clique.pairs.size()));
    cliques.push_back(std::move(clique));
  }

  std::vector<std::vector<CollisionFinding>> findings(tolerances.size());
  const std::vector<double>& capacities = net.resource_capacities();
  const auto pair_label = [&topo](std::pair<simnet::NodeId, simnet::NodeId> p) {
    return topo.node(p.first).name + "->" + topo.node(p.second).name;
  };
  for (std::size_t i = 0; i < cliques.size(); ++i) {
    for (std::size_t j = 0; j < cliques.size(); ++j) {
      if (i == j) continue;
      for (std::size_t p = 0; p < cliques[i].pairs.size(); ++p) {
        const auto& pa = cliques[i].pairs[p];
        const Resources& res_a = cliques[i].resources[p];
        if (!res_a) continue;
        const std::set<std::uint32_t> set_a(res_a->begin(), res_a->end());
        for (std::size_t q = 0; q < cliques[j].pairs.size(); ++q) {
          const auto& pb = cliques[j].pairs[q];
          if (plan.use_host_locks &&
              (pa.first == pb.first || pa.first == pb.second || pa.second == pb.first ||
               pa.second == pb.second)) {
            continue;
          }
          const Resources& res_b = cliques[j].resources[q];
          if (!res_b) continue;
          const bool overlap = std::any_of(res_b->begin(), res_b->end(), [&set_a](std::uint32_t r) {
            return set_a.count(r) > 0;
          });
          if (!overlap) continue;
          simnet::FairShareProblem alone{capacities, {*res_a}};
          simnet::FairShareProblem together{capacities, {*res_a, *res_b}};
          const double rate_alone = simnet::solve_max_min(alone)[0];
          const double rate_together = simnet::solve_max_min(together)[0];
          const double error = rate_alone > 0.0 ? 1.0 - rate_together / rate_alone : 0.0;
          report.worst_collision_error = std::max(report.worst_collision_error, error);
          for (std::size_t t = 0; t < tolerances.size(); ++t) {
            if (error > tolerances[t]) {
              findings[t].push_back(CollisionFinding{cliques[i].name, pair_label(pa),
                                                     cliques[j].name, pair_label(pb), error});
            }
          }
        }
      }
    }
  }

  std::vector<std::string> nodes;
  for (const auto& host : plan.hosts) nodes.push_back(resolve(host));
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (coverage.route(nodes[i], nodes[j]).empty()) {
        report.uncovered_pairs.emplace_back(nodes[i], nodes[j]);
      }
    }
  }
  report.complete = report.uncovered_pairs.empty();

  report.experiments_per_cycle = plan.experiments_per_cycle();
  report.bytes_per_cycle = 0;
  for (const auto& planned : plan.cliques) {
    const auto n = static_cast<std::int64_t>(planned.members.size());
    if (n < 2) continue;
    const std::int64_t probe =
        planned.probe_bytes > 0 ? planned.probe_bytes : options.bandwidth_probe_bytes;
    report.bytes_per_cycle += n * (n - 1) * (probe + 2 * 4 /*latency*/ + 64 /*store*/);
  }

  std::vector<ValidationReport> reports;
  for (auto& collisions : findings) {
    std::sort(collisions.begin(), collisions.end(),
              [](const CollisionFinding& a, const CollisionFinding& b) {
                return a.worst_error > b.worst_error;
              });
    ValidationReport& filtered = reports.emplace_back(report);
    filtered.collisions = std::move(collisions);
    filtered.collision_free = filtered.collisions.empty();
  }
  return reports;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_identical(const ValidationReport& got, const ValidationReport& want) {
  EXPECT_EQ(got.collision_free, want.collision_free);
  EXPECT_EQ(bits(got.worst_collision_error), bits(want.worst_collision_error));
  ASSERT_EQ(got.collisions.size(), want.collisions.size());
  for (std::size_t k = 0; k < got.collisions.size(); ++k) {
    SCOPED_TRACE("collision " + std::to_string(k));
    EXPECT_EQ(got.collisions[k].clique_a, want.collisions[k].clique_a);
    EXPECT_EQ(got.collisions[k].pair_a, want.collisions[k].pair_a);
    EXPECT_EQ(got.collisions[k].clique_b, want.collisions[k].clique_b);
    EXPECT_EQ(got.collisions[k].pair_b, want.collisions[k].pair_b);
    EXPECT_EQ(bits(got.collisions[k].worst_error), bits(want.collisions[k].worst_error));
  }
  EXPECT_EQ(got.max_clique_size, want.max_clique_size);
  EXPECT_EQ(bits(got.worst_cycle_time_s), bits(want.worst_cycle_time_s));
  EXPECT_EQ(got.complete, want.complete);
  EXPECT_EQ(got.uncovered_pairs, want.uncovered_pairs);
  EXPECT_EQ(got.experiments_per_cycle, want.experiments_per_cycle);
  EXPECT_EQ(got.bytes_per_cycle, want.bytes_per_cycle);
  EXPECT_EQ(got.render(), want.render());
}

/// The component labels answer exactly what route() answers, for every
/// pair of the plan's hosts plus one the plan never names.
void expect_components_match_routes(const DeploymentPlan& plan, const simnet::Network& net,
                                    const CoverageGraph& coverage) {
  const auto resolve = topology_resolver(net.topology());
  const CoverageComponents components(plan, resolve);
  std::vector<std::string> nodes{"ghost.invalid"};
  for (const auto& host : plan.hosts) nodes.push_back(resolve(host));
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_TRUE(components.connected(nodes[i], nodes[i]));
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const bool routed = !coverage.route(nodes[i], nodes[j]).empty();
      if (components.connected(nodes[i], nodes[j]) != routed ||
          components.connected(nodes[j], nodes[i]) != routed ||
          coverage.coverable(nodes[i], nodes[j]) != routed) {
        if (++mismatches <= 5) ADD_FAILURE() << nodes[i] << " <-> " << nodes[j];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

void check_plan(const DeploymentPlan& plan, simnet::Network& net) {
  const std::vector<double> tolerances{0.0, 0.05, 0.6};
  const CoverageGraph coverage(plan, topology_resolver(net.topology()));
  const std::vector<ValidationReport> want = reference_validate(plan, net, coverage, tolerances);
  for (std::size_t t = 0; t < tolerances.size(); ++t) {
    SCOPED_TRACE("tolerance " + std::to_string(tolerances[t]));
    ValidatorOptions options;
    options.collision_tolerance = tolerances[t];
    expect_identical(validate_plan(plan, net, options), want[t]);
  }
  expect_components_match_routes(plan, net, coverage);
}

struct FamilyCase {
  const char* label;
  const char* spec;
  bool host_locks;
  /// Sampled-interrogation budget (0 = full interrogation).
  std::size_t max_pairwise;
};

void PrintTo(const FamilyCase& family, std::ostream* out) {
  *out << family.spec << (family.host_locks ? " with host locks" : "");
}

class ValidateDifferential : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(ValidateDifferential, ReportMatchesAllPairsReference) {
  const FamilyCase& family = GetParam();
  auto scenario = api::ScenarioRegistry::builtin().make(family.spec);
  ASSERT_TRUE(scenario.ok()) << scenario.error().to_string();
  simnet::Network net(simnet::Scenario(scenario.value()).topology);
  api::SessionOptions options;
  options.planner.use_host_locks = family.host_locks;
  options.mapper.max_pairwise = family.max_pairwise;
  api::Session session(net, scenario.value(), options);
  ASSERT_TRUE(session.map().ok());
  ASSERT_TRUE(session.plan().ok());
  check_plan(session.plan_result(), net);
}

INSTANTIATE_TEST_SUITE_P(
    Families, ValidateDifferential,
    ::testing::Values(FamilyCase{"ens_lyon", "ens-lyon", false, 0},
                      FamilyCase{"tcp_lv08_ens_lyon", "tcp-lv08:ens-lyon", false, 0},
                      FamilyCase{"dumbbell_3x3", "dumbbell:3x3", false, 0},
                      FamilyCase{"fat_tree_4", "fat-tree:4", false, 0},
                      FamilyCase{"torus_3x3x3", "torus:3x3x3", false, 0},
                      FamilyCase{"star_switch_1024", "star-switch:1024", false, 64},
                      FamilyCase{"dumbbell_48x48_locks", "dumbbell:48x48", true, 0},
                      FamilyCase{"multi_firewall_4x8", "multi-firewall:4x8", false, 0},
                      FamilyCase{"multi_firewall_4x8_locks", "multi-firewall:4x8", true, 0}),
    [](const ::testing::TestParamInfo<FamilyCase>& info) { return info.param.label; });

DeploymentPlan plan_over(std::vector<std::string> hosts) {
  DeploymentPlan plan;
  plan.master = hosts.front();
  plan.nameserver_host = hosts.front();
  plan.forecaster_host = hosts.front();
  plan.hosts = std::move(hosts);
  return plan;
}

void add_clique(DeploymentPlan& plan, std::string name, std::vector<std::string> members,
                double period_s = 10.0) {
  PlannedClique clique;
  clique.name = std::move(name);
  clique.role = CliqueRole::shared_pair;
  clique.members = std::move(members);
  clique.period_s = period_s;
  plan.cliques.push_back(std::move(clique));
}

std::vector<std::string> lan_hosts(int n) {
  std::vector<std::string> hosts;
  for (int h = 0; h < n; ++h) hosts.push_back("h" + std::to_string(h) + ".lan");
  return hosts;
}

TEST(ValidateDifferential, StarHubTwoCliquePlans) {
  // Disjoint halves, overlapping members, and lopsided sizes on one
  // shared medium, each with and without host locks.
  const std::vector<std::vector<std::vector<std::string>>> layouts = {
      {{"h0.lan", "h1.lan"}, {"h2.lan", "h3.lan"}},
      {{"h0.lan", "h1.lan", "h2.lan"}, {"h2.lan", "h3.lan", "h4.lan", "h5.lan"}},
      {{"h0.lan", "h1.lan"}, {"h1.lan", "h2.lan", "h3.lan", "h4.lan", "h5.lan"}},
  };
  for (const bool locks : {false, true}) {
    for (std::size_t l = 0; l < layouts.size(); ++l) {
      SCOPED_TRACE("layout " + std::to_string(l) + (locks ? " with" : " without") +
                   " host locks");
      auto scenario = simnet::star_hub(6, mbps(100));
      simnet::Network net(std::move(scenario.topology));
      DeploymentPlan plan = plan_over(lan_hosts(6));
      plan.use_host_locks = locks;
      add_clique(plan, "c0", layouts[l][0]);
      add_clique(plan, "c1", layouts[l][1], 3.5);
      check_plan(plan, net);
    }
  }
}

TEST(ValidateDifferential, HandBuiltPlans) {
  {
    SCOPED_TRACE("single switched clique");
    auto scenario = simnet::star_switch(4, mbps(100));
    simnet::Network net(std::move(scenario.topology));
    DeploymentPlan plan = plan_over(lan_hosts(4));
    add_clique(plan, "all", plan.hosts);
    check_plan(plan, net);
  }
  {
    SCOPED_TRACE("two cliques on one hub");
    auto scenario = simnet::star_hub(4, mbps(100));
    simnet::Network net(std::move(scenario.topology));
    DeploymentPlan plan = plan_over(lan_hosts(4));
    add_clique(plan, "c0", {"h0.lan", "h1.lan"});
    add_clique(plan, "c1", {"h2.lan", "h3.lan"});
    check_plan(plan, net);
  }
  {
    SCOPED_TRACE("substitution restores completeness");
    auto scenario = simnet::star_hub(4, mbps(100));
    simnet::Network net(std::move(scenario.topology));
    DeploymentPlan plan = plan_over(lan_hosts(4));
    add_clique(plan, "pair", {"h0.lan", "h1.lan"});
    Substitution substitution;
    substitution.network_label = "hub";
    substitution.covered = plan.hosts;
    substitution.rep_a = "h0.lan";
    substitution.rep_b = "h1.lan";
    plan.substitutions.push_back(substitution);
    check_plan(plan, net);
  }
  {
    // Names the topology does not know, a duplicated member and a
    // single-member clique: degenerate input takes the same path too.
    SCOPED_TRACE("sample plan with unresolvable and duplicate members");
    auto scenario = simnet::star_hub(4, mbps(100));
    simnet::Network net(std::move(scenario.topology));
    DeploymentPlan plan = plan_over({"a.x", "b.x", "c.x", "gw.x", "m.x", "h0.lan", "h3.lan"});
    add_clique(plan, "clique-1-hub", {"a.x", "b.x"}, 7.5);
    add_clique(plan, "clique-2-root", {"a.x", "gw.x", "m.x"});
    add_clique(plan, "dup", {"h0.lan", "h1.lan", "h0.lan", "h2.lan"}, 2.0);
    add_clique(plan, "lone", {"h3.lan"});
    Substitution substitution;
    substitution.network_label = "hub";
    substitution.covered = {"a.x", "b.x", "c.x"};
    substitution.rep_a = "a.x";
    substitution.rep_b = "b.x";
    plan.substitutions.push_back(substitution);
    check_plan(plan, net);
  }
}

}  // namespace
}  // namespace envnws::deploy
