#include "workload.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "affinity.hpp"
#include "api/observer.hpp"
#include "api/scenario_registry.hpp"
#include "api/session.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "deploy/query.hpp"
#include "env/sim_probe_engine.hpp"
#include "monitor/daemon.hpp"
#include "simnet/network.hpp"
#include "timed_engine.hpp"

namespace perfbench {

using namespace envnws;

namespace {

struct WorkloadSpec {
  std::string scenario;
  api::SessionOptions options;
  /// Monitor time per round (each round is set-up samples, one deploy,
  /// then this).
  double segment_s = 1.5;
  /// Set-up includes a map and the daemon build (the monitor workload).
  bool monitor_setup = false;
  /// Set-up samples per round.
  std::size_t setups_per_round = 50;
  /// Map-only samples per round, beside the deploy's map.
  std::size_t maps_per_round = 0;
  /// Deploy samples at least (one per round).
  std::size_t min_deploys = 3;
  /// Timed monitor cycles at least: the first segment runs until the
  /// run has this many, enough for a supported p90.
  std::uint64_t min_cycles = 100;
};

/// Tracked pairs are capped so a 1024-member clique (a million ordered
/// pairs) still preloads in set-up time.
constexpr std::size_t kMaxTrackedPairs = 8192;
/// Preloaded history points per tracked pair.
constexpr std::size_t kHistory = 8;

Result<WorkloadSpec> make_spec(const std::string& workload, std::uint64_t variant) {
  WorkloadSpec spec;
  if (workload == "deploy-star1k") {
    spec.scenario = "star-switch:1024";
    spec.options.mapper.max_pairwise = 64;
    spec.options.mapper.sample_seed = variant + 1;
    spec.options.mapper.probe_jobs = 1;
    spec.options.mapper.map_threads = 1;
    spec.maps_per_round = 5;
  } else if (workload == "deploy-dumbbell") {
    // The bottleneck rate varies with the variant (10..13.75 Mbps behind
    // 100 Mbps ports): below a third of the port rate, so the clusters
    // stay distinct networks (MapperOptions::bw_split_ratio), and close
    // enough that the modeled probe time stays comparable across seeds.
    std::ostringstream name;
    name << "dumbbell:48x48@100/" << 10.0 + 0.25 * static_cast<double>(variant);
    spec.scenario = name.str();
    spec.options.mapper.max_pairwise = 0;
    spec.options.mapper.probe_jobs = 4;
    spec.options.mapper.map_threads = 1;
    spec.options.planner.use_host_locks = true;
    spec.maps_per_round = 4;
  } else if (workload == "monitor-star64") {
    spec.scenario = "star-switch:64";
    spec.segment_s = 0.5;
    spec.monitor_setup = true;
    spec.setups_per_round = 1;
    spec.min_deploys = 5;
  } else {
    return make_error(ErrorCode::not_found, "unknown workload '" + workload + "'");
  }
  return spec;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Compares observations against the references (or records them).
class Checker {
 public:
  Checker(const RunConfig& config, PassResult& out) : config_(config), out_(out) {}

  /// True when `value` matches; a mismatch is a failed operation.
  bool observe(const std::string& key, const std::string& value) {
    const auto [seen, fresh] = out_.observed.emplace(key, value);
    if (!fresh && seen->second != value) {
      return problem(key + " changed within the run: " + seen->second + " then " + value);
    }
    if (config_.record) return true;
    const auto expected = config_.references.find(key);
    if (expected == config_.references.end()) return problem("no reference for " + key);
    if (expected->second != value) {
      return problem(key + " = " + value + ", reference " + expected->second);
    }
    return true;
  }
  bool require(bool condition, const std::string& what) {
    return condition ? true : problem(what);
  }

 private:
  bool problem(std::string text) {
    if (out_.problems.size() < 16) out_.problems.push_back(std::move(text));
    return false;
  }
  const RunConfig& config_;
  PassResult& out_;
};

/// Traced runs install this on the Session: env zone spans from the
/// zone_started / zone_finished events.
class ZoneSpanObserver final : public api::Observer {
 public:
  explicit ZoneSpanObserver(Tracer& tracer) : tracer_(tracer) {}
  void on_event(const api::Event& event) override {
    if (event.kind == api::Event::Kind::zone_started) {
      started_[event.zone_index] = now_ns();
    } else if (event.kind == api::Event::Kind::zone_finished ||
               event.kind == api::Event::Kind::zone_failed) {
      tracer_.record("env.zone", started_[event.zone_index], now_ns());
    }
  }

 private:
  Tracer& tracer_;
  std::map<int, std::int64_t> started_;
};

void instrument(api::Session& session, Tracer* tracer) {
  if (tracer == nullptr) return;
  session.set_probe_engine_factory(
      [tracer](simnet::Network& net, const env::MapperOptions& options) {
        return std::make_unique<TimedProbeEngine>(
            std::make_unique<env::SimProbeEngine>(net, options), *tracer);
      });
}

std::string verdict(const deploy::ValidationReport& report) {
  std::ostringstream out;
  out << "ok=" << report.ok() << ";collisions=" << report.collisions.size()
      << ";uncovered=" << report.uncovered_pairs.size()
      << ";max_clique=" << report.max_clique_size
      << ";experiments_per_cycle=" << report.experiments_per_cycle
      << ";bytes_per_cycle=" << report.bytes_per_cycle;
  return out.str();
}

/// Cross-clique experiment-pair combinations the validator's collision
/// check walks: the work count behind the validate stage.
double validate_pair_checks(const deploy::DeploymentPlan& plan) {
  double total_pairs = 0.0;
  double sum_squares = 0.0;
  for (const auto& clique : plan.cliques) {
    const double m = static_cast<double>(clique.members.size());
    const double pairs = m * (m - 1.0);
    total_pairs += pairs;
    sum_squares += pairs * pairs;
  }
  return total_pairs * total_pairs - sum_squares;
}

struct Deployed {
  env::MapResult map;
  simnet::Scenario scenario;
};

/// One map -> plan -> apply -> validate on a fresh Network and Session.
Result<Deployed> deploy_once(const WorkloadSpec& spec, const RunConfig& config, Checker& check,
                             PassResult& out) {
  Tracer* tracer = config.tracer;
  const ScopedSpan iteration(tracer, "deploy", tracer != nullptr ? tracer->new_op() : 0);

  auto scenario = api::ScenarioRegistry::builtin().make(spec.scenario);
  if (!scenario.ok()) return scenario.error();
  simnet::Network net(simnet::Scenario(scenario.value()).topology);

  std::optional<ZoneSpanObserver> zones;
  api::Session session(net, scenario.value(), spec.options);
  instrument(session, tracer);
  if (tracer != nullptr) session.set_observer(&zones.emplace(*tracer));

  // Stage calls add up to the deploy time; each is one api span.
  double deploy_s = 0.0;
  const auto stage = [&](const char* name, auto&& run) -> Status {
    const ScopedSpan span(tracer, std::string("api.") + name);
    const Clock::time_point start = Clock::now();
    Status status = run();
    deploy_s += seconds_since(start);
    return status;
  };
  if (auto s = stage("map", [&] { return session.map(); }); !s.ok()) return s.error();
  out.map_s.push_back(deploy_s);
  const simnet::NetStats after_map = net.stats();
  if (auto s = stage("plan", [&] { return session.plan(); }); !s.ok()) return s.error();
  if (auto s = stage("apply", [&] { return session.apply(); }); !s.ok()) return s.error();
  if (auto s = stage("validate", [&] { return session.validate(); }); !s.ok()) return s.error();
  out.deploy_s.push_back(deploy_s);

  const env::MapResult& map = session.map_result();
  const deploy::DeploymentPlan& plan = session.plan_result();
  const deploy::ValidationReport& report = session.validation();
  ++out.attempted;
  bool ok = check.observe("map_digest", hash::hex64(hash::fnv1a64(map.identity_digest())));
  ok = check.observe("experiments", std::to_string(map.stats.experiments)) && ok;
  char probe_sim[32];
  std::snprintf(probe_sim, sizeof(probe_sim), "%.17g", map.batched_duration_s());
  ok = check.observe("probe_sim_s", probe_sim) && ok;
  ok = check.observe("verdict", verdict(report)) && ok;
  ok = check.require(report.ok(), "validation failed: " + verdict(report)) && ok;
  if (!ok) ++out.failed;

  out.probe_experiments = static_cast<double>(map.stats.experiments);
  out.probe_sim_s = map.batched_duration_s();
  out.nws_bytes_per_cycle = static_cast<double>(report.bytes_per_cycle);
  auto& c = out.counts;
  c["simnet.flows_started"] = static_cast<double>(after_map.flows_started);
  c["simnet.messages_sent"] = static_cast<double>(after_map.messages_sent);
  c["simnet.bytes"] = static_cast<double>(after_map.total_bytes());
  c["env.experiments"] = static_cast<double>(map.stats.experiments);
  c["env.bytes_sent"] = static_cast<double>(map.stats.bytes_sent);
  c["env.batch.batches"] = static_cast<double>(map.batch.batches);
  c["env.batch.experiments"] = static_cast<double>(map.batch.batched_experiments);
  c["env.batch.sequential_s"] = map.batch.sequential_s;
  c["env.batch.makespan_s"] = map.batch.makespan_s;
  c["env.sampling.representatives"] = static_cast<double>(map.sampling.representatives);
  c["env.sampling.inferred"] = static_cast<double>(map.sampling.inferred_members);
  c["env.sampling.escalated"] = static_cast<double>(map.sampling.escalated_members);
  const double attempts =
      static_cast<double>(map.sampling.inferred_members + map.sampling.escalated_members);
  c["env.sampling.yield"] =
      attempts > 0 ? static_cast<double>(map.sampling.inferred_members) / attempts : 0.0;
  std::size_t max_clique = 0;
  for (const auto& clique : plan.cliques) max_clique = std::max(max_clique, clique.members.size());
  c["deploy.cliques"] = static_cast<double>(plan.cliques.size());
  c["deploy.max_clique_size"] = static_cast<double>(max_clique);
  c["deploy.experiments_per_cycle"] = static_cast<double>(report.experiments_per_cycle);
  c["deploy.collisions"] = static_cast<double>(report.collisions.size());
  c["deploy.uncovered_pairs"] = static_cast<double>(report.uncovered_pairs.size());
  c["deploy.validate_pair_checks"] = validate_pair_checks(plan);
  return Deployed{map, std::move(scenario.value())};
}

/// One map on a fresh Network and Session: a map_s sample.
Status map_once(const WorkloadSpec& spec, const RunConfig& config, Checker& check,
                PassResult& out) {
  auto scenario = api::ScenarioRegistry::builtin().make(spec.scenario);
  if (!scenario.ok()) return scenario.error();
  simnet::Network net(simnet::Scenario(scenario.value()).topology);
  api::Session session(net, scenario.value(), spec.options);
  instrument(session, config.tracer);
  {
    const ScopedSpan span(config.tracer, "api.map",
                          config.tracer != nullptr ? config.tracer->new_op() : 0);
    const Clock::time_point start = Clock::now();
    if (auto status = session.map(); !status.ok()) return status;
    out.map_s.push_back(seconds_since(start));
  }
  ++out.attempted;
  if (!check.observe("map_digest",
                     hash::hex64(hash::fnv1a64(session.map_result().identity_digest())))) {
    ++out.failed;
  }
  return {};
}

/// A monitor daemon over the plan of an already mapped platform, with
/// every tracked pair's history preloaded.
struct MonitorRig {
  std::unique_ptr<simnet::Network> net;
  std::unique_ptr<api::Session> session;
  std::unique_ptr<monitor::MonitorDaemon> daemon;
  std::vector<nws::SeriesKey> pairs;
};

Result<MonitorRig> build_monitor(const WorkloadSpec& spec, const Deployed& deployed,
                                 const RunConfig& config) {
  MonitorRig rig;
  rig.net = std::make_unique<simnet::Network>(simnet::Scenario(deployed.scenario).topology);
  rig.session = std::make_unique<api::Session>(*rig.net, deployed.scenario, spec.options);
  instrument(*rig.session, config.tracer);
  rig.session->load_map(deployed.map);
  if (auto status = rig.session->plan(); !status.ok()) return status.error();

  monitor::MonitorOptions options;
  options.remap_on_drift = false;
  {
    const ScopedSpan span(config.tracer, "api.make_monitor");
    auto made = rig.session->make_monitor(options);
    if (!made.ok()) return made.error();
    rig.daemon = std::move(made.value());
  }

  // Track the pairs the daemon's own rotation visits first, so the
  // timed cycles only ever measure pairs that are already tracked and
  // the per-cycle cost does not grow with run length.
  const monitor::CycleScheduler& scheduler = rig.daemon->scheduler();
  const std::size_t wanted =
      std::min<std::uint64_t>(scheduler.pairs_total(), kMaxTrackedPairs);
  std::set<std::pair<std::string, std::string>> seen;
  for (std::uint64_t k = 0; seen.size() < wanted && k < 4 * kMaxTrackedPairs; ++k) {
    for (const monitor::ScheduledProbe& probe : scheduler.cycle(k)) {
      if (seen.size() < wanted) seen.emplace(probe.transfer.from, probe.transfer.to);
    }
  }
  const auto resolve = deploy::topology_resolver(rig.net->topology());
  std::vector<std::pair<simnet::NodeId, simnet::NodeId>> ids;
  for (const auto& [from, to] : seen) {
    auto a = rig.net->topology().find_by_name(resolve(from));
    auto b = rig.net->topology().find_by_name(resolve(to));
    if (!a.ok()) return a.error();
    if (!b.ok()) return b.error();
    ids.emplace_back(a.value(), b.value());
    rig.pairs.push_back(nws::SeriesKey{nws::ResourceKind::bandwidth, from, to});
  }
  auto rates = rig.net->predicted_rates(ids);
  if (!rates.ok()) return rates.error();

  // Seeded history near each pair's simulated bandwidth, timestamps
  // before the daemon's first cycle.
  Rng rng(0x5eed0000ULL + config.seed % kVariants);
  std::string dump;
  char line[64];
  for (std::size_t i = 0; i < rig.pairs.size(); ++i) {
    dump += "series bandwidth " + rig.pairs[i].src + " " + rig.pairs[i].dst + "\n";
    for (std::size_t h = 0; h < kHistory; ++h) {
      const double time = static_cast<double>(h) - static_cast<double>(kHistory);
      const double value = rates.value()[i] * (1.0 + 0.02 * rng.normal());
      std::snprintf(line, sizeof(line), "%.9g %.9g\n", time, value);
      dump += line;
    }
  }
  {
    const ScopedSpan span(config.tracer, "monitor.restore");
    if (auto status = rig.daemon->restore_series(dump); !status.ok()) return status.error();
  }
  return rig;
}

/// CPUs for the timed thread, for the query server's acceptor, and for
/// each query connection (its client thread and the server thread
/// serving it; see affinity.hpp). The lookup and SNAPSHOT connections
/// get a CPU each, so a SNAPSHOT that recomputes the digest does not
/// hold up the pair lookups.
struct Placement {
  std::vector<int> timed;
  std::vector<int> helpers;
  std::vector<int> lookup;
  std::vector<int> snapshot;
};

Placement place() {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 2) return {cpus, cpus, cpus, cpus};
  const std::vector<int> helpers(cpus.begin() + 1, cpus.end());
  const int snapshot_cpu = helpers[std::min<std::size_t>(1, helpers.size() - 1)];
  return {{cpus[0]}, helpers, {helpers.front()}, {snapshot_cpu}};
}

/// Publish the first snapshot and start the query server.
Status start_serving(MonitorRig& rig, const RunConfig& config, const Placement& placement) {
  monitor::MonitorDaemon& daemon = *rig.daemon;
  if (Tracer* tracer = config.tracer; tracer != nullptr) {
    // A point span inside the cycle's span; per_layer times fold and
    // publish from the cycle's last probe-engine span to it.
    daemon.set_observer([tracer](const monitor::MonitorEvent& event) {
      if (event.kind == monitor::MonitorEvent::Kind::snapshot_published) {
        const std::int64_t now = now_ns();
        tracer->record("monitor.published", now, now);
      }
    });
  }
  // One untimed cycle publishes the first snapshot (the boot snapshot
  // holds no pairs), so every query from the first one on can succeed.
  if (auto status = daemon.run_cycles(1); !status.ok()) return status;
  // Server threads inherit the helper CPUs.
  pin_current_thread(placement.helpers);
  Status status = daemon.start_query_server("127.0.0.1", 0);
  pin_current_thread(placement.timed);
  return status;
}

/// One monitor segment: a closed loop of run_cycles(1) on the timed
/// thread beside the open-loop query load, for the segment's time (and
/// until the run has its minimum of cycles).
Status monitor_segment(MonitorRig& rig, const WorkloadSpec& spec, const RunConfig& config,
                       OpenLoopGenerator& generator, Checker& check, PassResult& out) {
  monitor::MonitorDaemon& daemon = *rig.daemon;
  Tracer* tracer = config.tracer;
  if (auto status = generator.start(); !status.ok()) return status;
  const Clock::time_point segment_start = Clock::now();
  while (seconds_since(segment_start) < spec.segment_s || out.cycles < spec.min_cycles) {
    const Clock::time_point start = Clock::now();
    Status status;
    {
      const ScopedSpan span(tracer, "monitor.cycle", tracer != nullptr ? tracer->new_op() : 0);
      status = daemon.run_cycles(1);
    }
    out.cycle_s.push_back(seconds_since(start));
    ++out.cycles;
    ++out.attempted;
    if (!status.ok()) {
      ++out.failed;
      check.require(false, "monitor cycle failed: " + status.error().to_string());
      continue;
    }
    if (out.cycles == kCheckedCycle) {
      if (!check.observe("snapshot_digest", daemon.snapshot()->digest())) ++out.failed;
    }
  }
  out.loop_s += seconds_since(segment_start);
  generator.stop();
  return {};
}

void finish_monitor(const MonitorRig& rig, Checker& check, PassResult& out) {
  const monitor::MonitorDaemon& daemon = *rig.daemon;
  const auto snapshot = daemon.snapshot();
  check.require(snapshot->pairs.size() == rig.pairs.size(),
                "snapshot tracks " + std::to_string(snapshot->pairs.size()) + " pairs, expected " +
                    std::to_string(rig.pairs.size()));
  check.require(daemon.remaps() == 0, "monitor re-mapped " + std::to_string(daemon.remaps()));
  check.require(daemon.probe_failures() == 0,
                "monitor probe failures: " + std::to_string(daemon.probe_failures()));
  auto& c = out.counts;
  c["monitor.pairs"] = static_cast<double>(snapshot->pairs.size());
  c["monitor.measurements"] = static_cast<double>(daemon.measurements());
  c["monitor.probe_failures"] = static_cast<double>(daemon.probe_failures());
  c["monitor.remaps"] = static_cast<double>(daemon.remaps());
  c["monitor.queries_served"] = static_cast<double>(daemon.queries_served());
  c["monitor.queries_attempted"] = static_cast<double>(out.requests.size());
}

/// One set-up sample. Deploy workloads: scenario + Network
/// construction. Monitor workload: that, plus a map and the daemon build
/// (plan, make_monitor, history preload), and the daemon is returned.
Result<std::optional<MonitorRig>> setup_once(const WorkloadSpec& spec, const RunConfig& config,
                                             Checker& check, PassResult& out) {
  const Clock::time_point start = Clock::now();
  auto scenario = api::ScenarioRegistry::builtin().make(spec.scenario);
  if (!scenario.ok()) return scenario.error();
  simnet::Network net(simnet::Scenario(scenario.value()).topology);
  std::optional<MonitorRig> rig;
  if (spec.monitor_setup) {
    api::Session session(net, scenario.value(), spec.options);
    instrument(session, config.tracer);
    if (auto status = session.map(); !status.ok()) return status.error();
    if (!check.observe("map_digest",
                       hash::hex64(hash::fnv1a64(session.map_result().identity_digest())))) {
      ++out.failed;
    }
    auto built = build_monitor(spec, Deployed{session.map_result(), scenario.value()}, config);
    if (!built.ok()) return built.error();
    rig = std::move(built.value());
  }
  out.setup_s.push_back(seconds_since(start));
  return rig;
}

}  // namespace

Result<PassResult> run_pass(const RunConfig& config) {
  auto made = make_spec(config.workload, config.seed % kVariants);
  if (!made.ok()) return made.error();
  WorkloadSpec& spec = made.value();
  if (config.record) {
    // References need one deploy and the checked cycle, nothing more.
    spec.segment_s = 0.0;
    spec.min_deploys = 1;
    spec.min_cycles = kCheckedCycle;
  }
  PassResult out;
  Checker check(config, out);
  const Placement placement = place();
  pin_current_thread(placement.timed);
  const Clock::time_point start = Clock::now();

  // Rounds of set-up samples, one deploy on a fresh Session, then one
  // monitor segment, until the run's time is up: every metric is sampled
  // across the whole run, not in one stretch of it. The query load runs
  // during the monitor segments only, so set-ups and deploys are timed
  // on a quiet machine. The daemon that serves is the first one built:
  // the monitor workload's first set-up, or else over the first deploy.
  std::optional<MonitorRig> rig;
  std::optional<OpenLoopGenerator> generator;
  for (std::uint64_t round = 0;
       round == 0 || seconds_since(start) < config.seconds ||
       out.deploy_s.size() < spec.min_deploys;
       ++round) {
    for (std::size_t i = 0; i < spec.setups_per_round; ++i) {
      auto built = setup_once(spec, config, check, out);
      if (!built.ok()) return built.error();
      if (!rig.has_value()) rig = std::move(built.value());
    }
    auto deployed = deploy_once(spec, config, check, out);
    if (!deployed.ok()) return deployed.error();
    for (std::size_t i = 0; i < spec.maps_per_round; ++i) {
      if (auto status = map_once(spec, config, check, out); !status.ok()) return status.error();
    }
    if (!rig.has_value()) {
      auto built = build_monitor(spec, deployed.value(), config);
      if (!built.ok()) return built.error();
      rig = std::move(built.value());
    }
    if (round == 0) {
      if (auto status = start_serving(*rig, config, placement); !status.ok()) {
        return status.error();
      }
      LoadConfig load;
      load.port = rig->daemon->query_port();
      load.seed = config.seed;
      load.pairs = rig->pairs;
      load.expected_pairs = rig->pairs.size();
      load.lookup_cpus = placement.lookup;
      load.snapshot_cpus = placement.snapshot;
      load.tracer = config.tracer;
      generator.emplace(std::move(load));
    }
    if (auto status = monitor_segment(*rig, spec, config, *generator, check, out); !status.ok()) {
      return status.error();
    }
  }
  for (const RequestRecord& record : generator->records()) {
    out.requests.push_back(record);
    ++out.attempted;
    if (!record.ok) {
      ++out.failed;
      check.require(false, std::string(to_string(record.kind)) + " request failed: " + record.error);
    }
  }
  finish_monitor(*rig, check, out);
  if (!out.problems.empty() && out.failed == 0) out.failed = 1;
  return out;
}

}  // namespace perfbench
