// The benchmark's three workloads, run through the public API only
// (api::Session, monitor::MonitorDaemon, monitor::QueryClient).
//
// Every workload is the paper's user story on one platform: map it with
// ENV, plan, apply and validate an NWS deployment on a fresh Session,
// and run the monitoring daemon over the deployed plan with every
// tracked pair's history preloaded. A run is rounds of set-up samples,
// one deploy (one deploy sample), map-only samples on the deploy
// workloads (whose deploys are few and long) and one monitor segment (a
// closed loop of measurement cycles on the timed thread beside an
// open-loop query generator on loopback connections), so every metric
// is sampled across the whole run. The workloads differ in platform and in where the
// run's time goes:
//
//   deploy-star1k    star-switch:1024, sampled interrogation — simnet
//                    routing in the map, one 1024-member clique to apply
//   deploy-dumbbell  dumbbell:48x48, full interrogation at probe_jobs=4,
//                    host-lock plan — validate and the batch-schedule model
//   monitor-star64   star-switch:64 (4032 pairs) — each round is one
//                    set-up (map and daemon build), one star-switch:64
//                    deploy, then a 0.5 s monitor segment beside the
//                    query server
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "loadgen.hpp"
#include "trace.hpp"

namespace perfbench {

/// Seeds select one of this many input variants (platform rates, the
/// sampling seed, the preloaded history); the query schedule uses the
/// full seed. Every variant has a committed reference.
inline constexpr std::uint64_t kVariants = 16;

/// The monitor snapshot digest is checked after this many timed cycles.
inline constexpr std::uint64_t kCheckedCycle = 16;

/// Expected outputs per key ("map_digest", "verdict", ...); a run
/// compares what it observes against them.
using References = std::map<std::string, std::string>;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Tracer* tracer = nullptr;  ///< null: untraced
  /// Record mode: no comparison, the first observation of each key
  /// becomes the reference (later observations must still agree).
  bool record = false;
  References references;
};

/// Raw samples and counts of one pass; metrics are derived from it.
struct PassResult {
  // Correctness.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, std::string> observed;  ///< key -> value (first seen)

  // Deploy iterations (one sample each).
  std::vector<double> setup_s, deploy_s, map_s;
  double probe_experiments = 0, probe_sim_s = 0, nws_bytes_per_cycle = 0;

  // Monitor phase.
  std::vector<double> cycle_s;
  double loop_s = 0;
  std::uint64_t cycles = 0;
  std::vector<RequestRecord> requests;

  /// Counters read from the public result structs, by metric name.
  std::map<std::string, double> counts;
};

/// Run one pass of `config.workload`. Fails only on set-up errors
/// (unknown workload, a stage that cannot run); wrong outputs are
/// counted in PassResult::failed instead.
[[nodiscard]] envnws::Result<PassResult> run_pass(const RunConfig& config);

}  // namespace perfbench
