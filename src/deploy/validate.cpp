#include "deploy/validate.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "deploy/query.hpp"
#include "simnet/fairshare.hpp"

namespace envnws::deploy {

namespace {

using NodePair = std::pair<simnet::NodeId, simnet::NodeId>;
using ResourceSet = std::vector<std::uint32_t>;

constexpr std::uint32_t kNoRoute = std::numeric_limits<std::uint32_t>::max();

struct ResourceSetHash {
  std::size_t operator()(const ResourceSet& set) const {
    return static_cast<std::size_t>(hash::fnv1a64(std::string_view(
        reinterpret_cast<const char*>(set.data()), set.size() * sizeof(std::uint32_t))));
  }
};

struct ResolvedClique {
  std::string name;
  std::vector<simnet::NodeId> members;
  /// Ordered experiment pairs; only materialised when another clique
  /// exists to collide with.
  std::vector<NodePair> pairs;
  /// set_of[p] = interned resource-set id of pairs[p], kNoRoute if the
  /// pair has no route.
  std::vector<std::uint32_t> set_of;
  /// by_resource[r] = ascending indices of the routed pairs crossing r.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> by_resource;
};

/// Ordered pairs (a, b), a != b, over `members` with duplicates kept:
/// n^2 minus the same-node combinations, without materialising them.
std::size_t ordered_pair_count(std::vector<simnet::NodeId> members) {
  std::sort(members.begin(), members.end());
  std::size_t count = members.size() * members.size();
  for (auto run = members.begin(); run != members.end();) {
    const auto end = std::upper_bound(run, members.end(), *run);
    const auto same = static_cast<std::size_t>(end - run);
    count -= same * same;
    run = end;
  }
  return count;
}

bool share_endpoint(const NodePair& a, const NodePair& b) {
  return a.first == b.first || a.first == b.second || a.second == b.first ||
         a.second == b.second;
}

/// Collision-error arithmetic over interned resource sets, memoised:
/// equal sets pose the same max-min problem, so each distinct problem
/// is solved once.
class CollisionModel {
 public:
  explicit CollisionModel(const std::vector<double>& capacities) : capacities_(capacities) {}

  std::uint32_t intern(ResourceSet set) {
    const auto [it, added] =
        ids_.try_emplace(std::move(set), static_cast<std::uint32_t>(sets_.size()));
    if (added) {
      sets_.push_back(&it->first);
      alone_.emplace_back();
    }
    return it->second;
  }
  [[nodiscard]] const ResourceSet& set(std::uint32_t id) const { return *sets_[id]; }

  /// Relative error an experiment over set `a` suffers while one over
  /// set `b` runs concurrently.
  double error(std::uint32_t a, std::uint32_t b) {
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    const auto [it, added] = error_.try_emplace(key, 0.0);
    if (!added) return it->second;
    if (!alone_[a]) {
      simnet::FairShareProblem alone{capacities_, {set(a)}};
      alone_[a] = simnet::solve_max_min(alone)[0];
    }
    const double rate_alone = *alone_[a];
    simnet::FairShareProblem together{capacities_, {set(a), set(b)}};
    const double rate_together = simnet::solve_max_min(together)[0];
    it->second = rate_alone > 0.0 ? 1.0 - rate_together / rate_alone : 0.0;
    return it->second;
  }

 private:
  const std::vector<double>& capacities_;
  std::unordered_map<ResourceSet, std::uint32_t, ResourceSetHash> ids_;
  std::vector<const ResourceSet*> sets_;  ///< id -> key stored in ids_
  std::vector<std::optional<double>> alone_;
  std::unordered_map<std::uint64_t, double> error_;
};

}  // namespace

ValidationReport validate_plan(const DeploymentPlan& plan, simnet::Network& net,
                               ValidatorOptions options) {
  ValidationReport report;
  const simnet::Topology& topo = net.topology();
  const auto resolve = topology_resolver(topo);

  // Resolve cliques to node ids. The scalability figures need only the
  // pair counts.
  std::vector<ResolvedClique> cliques;
  for (const auto& planned : plan.cliques) {
    ResolvedClique clique;
    clique.name = planned.name;
    for (const auto& member : planned.members) {
      if (auto id = topo.find_by_name(resolve(member)); id.ok()) {
        clique.members.push_back(id.value());
      }
    }
    report.max_clique_size = std::max(report.max_clique_size, clique.members.size());
    report.worst_cycle_time_s =
        std::max(report.worst_cycle_time_s,
                 planned.period_s * static_cast<double>(ordered_pair_count(clique.members)));
    cliques.push_back(std::move(clique));
  }

  // --- constraint 1: collision-freedom ---------------------------------
  // Within a clique the token ring serializes experiments, so only
  // cross-clique combinations can collide: none with fewer than two.
  CollisionModel model(net.resource_capacities());
  if (cliques.size() >= 2) {
    for (ResolvedClique& clique : cliques) {
      for (const simnet::NodeId a : clique.members) {
        for (const simnet::NodeId b : clique.members) {
          if (a != b) clique.pairs.emplace_back(a, b);
        }
      }
      clique.set_of.reserve(clique.pairs.size());
      for (std::uint32_t p = 0; p < clique.pairs.size(); ++p) {
        auto resources = net.path_resources(clique.pairs[p].first, clique.pairs[p].second);
        if (!resources.ok()) {
          clique.set_of.push_back(kNoRoute);
          continue;
        }
        const std::uint32_t id = model.intern(std::move(resources.value()));
        clique.set_of.push_back(id);
        for (const std::uint32_t r : model.set(id)) clique.by_resource[r].push_back(p);
      }
    }
  }
  const auto pair_label = [&topo](const NodePair& p) {
    return topo.node(p.first).name + "->" + topo.node(p.second).name;
  };
  std::vector<char> seen;
  std::vector<std::uint32_t> candidates;
  for (std::size_t i = 0; i < cliques.size(); ++i) {
    for (std::size_t j = 0; j < cliques.size(); ++j) {
      if (i == j) continue;
      const ResolvedClique& other = cliques[j];
      seen.assign(other.pairs.size(), 0);
      for (std::size_t p = 0; p < cliques[i].pairs.size(); ++p) {
        const std::uint32_t set_a = cliques[i].set_of[p];
        if (set_a == kNoRoute) continue;
        // Only pairs sharing a resource can interact; walk them in
        // ascending order so findings keep the all-pairs scan's order.
        candidates.clear();
        for (const std::uint32_t r : model.set(set_a)) {
          const auto users = other.by_resource.find(r);
          if (users == other.by_resource.end()) continue;
          for (const std::uint32_t q : users->second) {
            if (seen[q] == 0) {
              seen[q] = 1;
              candidates.push_back(q);
            }
          }
        }
        std::sort(candidates.begin(), candidates.end());
        const NodePair& pa = cliques[i].pairs[p];
        for (const std::uint32_t q : candidates) {
          seen[q] = 0;
          const NodePair& pb = other.pairs[q];
          // Host-level locks (extension) serialize any two experiments
          // that share an endpoint: those can never run concurrently.
          if (plan.use_host_locks && share_endpoint(pa, pb)) continue;
          const double error = model.error(set_a, other.set_of[q]);
          report.worst_collision_error = std::max(report.worst_collision_error, error);
          if (error > options.collision_tolerance) {
            report.collisions.push_back(CollisionFinding{cliques[i].name, pair_label(pa),
                                                         other.name, pair_label(pb), error});
          }
        }
      }
    }
  }
  std::sort(report.collisions.begin(), report.collisions.end(),
            [](const CollisionFinding& a, const CollisionFinding& b) {
              return a.worst_error > b.worst_error;
            });
  report.collision_free = report.collisions.empty();

  // --- constraint 3: completeness --------------------------------------
  // A pair is answerable exactly when both hosts sit in one connected
  // component of the measured-pair graph.
  const CoverageComponents components(plan, resolve);
  std::vector<std::string> nodes;
  for (const auto& host : plan.hosts) nodes.push_back(resolve(host));
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::vector<std::optional<std::uint32_t>> labels;
  labels.reserve(nodes.size());
  for (const auto& node : nodes) labels.push_back(components.label(node));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (!labels[i] || labels[i] != labels[j]) {
        report.uncovered_pairs.emplace_back(nodes[i], nodes[j]);
      }
    }
  }
  report.complete = report.uncovered_pairs.empty();

  // --- constraint 4: intrusiveness --------------------------------------
  report.experiments_per_cycle = plan.experiments_per_cycle();
  report.bytes_per_cycle = 0;
  for (const auto& planned : plan.cliques) {
    const auto n = static_cast<std::int64_t>(planned.members.size());
    if (n < 2) continue;
    const std::int64_t probe =
        planned.probe_bytes > 0 ? planned.probe_bytes : options.bandwidth_probe_bytes;
    report.bytes_per_cycle += n * (n - 1) * (probe + 2 * 4 /*latency*/ + 64 /*store*/);
  }
  return report;
}
std::string ValidationReport::render() const {
  std::ostringstream out;
  out << "deployment validation: " << (ok() ? "OK" : "VIOLATIONS FOUND") << "\n";
  out << "  collision-free : " << (collision_free ? "yes" : "NO") << " (worst concurrent error "
      << strings::format_double(worst_collision_error * 100.0, 1) << "%)\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(collisions.size(), 8); ++i) {
    const auto& c = collisions[i];
    out << "    " << c.clique_a << " [" << c.pair_a << "] vs " << c.clique_b << " ["
        << c.pair_b << "]: " << strings::format_double(c.worst_error * 100.0, 1) << "%\n";
  }
  out << "  completeness   : " << (complete ? "yes" : "NO");
  if (!uncovered_pairs.empty()) {
    out << " (" << uncovered_pairs.size() << " uncovered pairs, e.g. "
        << uncovered_pairs.front().first << "<->" << uncovered_pairs.front().second << ")";
  }
  out << "\n";
  out << "  max clique     : " << max_clique_size << " members\n";
  out << "  worst cycle    : " << strings::format_double(worst_cycle_time_s, 1) << " s\n";
  out << "  intrusiveness  : " << experiments_per_cycle << " experiments / cycle, "
      << bytes_per_cycle << " bytes / cycle\n";
  return out.str();
}

}  // namespace envnws::deploy
