#include "timed_engine.hpp"

namespace perfbench {

using namespace envnws;

Result<env::HostIdentity> TimedProbeEngine::lookup(const std::string& hostname) {
  const ScopedSpan span(&tracer_, "simnet.lookup");
  return inner_->lookup(hostname);
}

Result<std::vector<env::TraceHop>> TimedProbeEngine::traceroute(const std::string& from,
                                                                const std::string& target) {
  const ScopedSpan span(&tracer_, "simnet.traceroute");
  return inner_->traceroute(from, target);
}

Result<double> TimedProbeEngine::bandwidth(const std::string& from, const std::string& to) {
  const ScopedSpan span(&tracer_, "simnet.bandwidth");
  return inner_->bandwidth(from, to);
}

std::vector<Result<double>> TimedProbeEngine::concurrent_bandwidth(
    const std::vector<env::BandwidthRequest>& requests) {
  const ScopedSpan span(&tracer_, "simnet.concurrent");
  return inner_->concurrent_bandwidth(requests);
}

std::vector<env::ProbeExperimentOutcome> TimedProbeEngine::run_batch(
    const std::vector<env::ProbeExperiment>& experiments, std::size_t workers) {
  const ScopedSpan span(&tracer_, "simnet.batch", 0, experiments.size());
  return inner_->run_batch(experiments, workers);
}

}  // namespace perfbench
