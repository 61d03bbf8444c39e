// The simnet layer's boundary: a forwarding env::ProbeEngine decorator.
//
// Installed through api::Session::set_probe_engine_factory, it wraps
// the engine the mapper and the monitor daemon would have used and
// records one span per call into it — lookup, traceroute, bandwidth,
// concurrent_bandwidth and run_batch; a run_batch span carries its
// experiment count. It forwards every virtual unchanged, run_batch and
// stats() included, so what is measured (and every digest) is the same
// with or without it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "env/probe_engine.hpp"
#include "trace.hpp"

namespace perfbench {

class TimedProbeEngine final : public envnws::env::ProbeEngine {
 public:
  /// `tracer` is not owned and must outlive the engine.
  TimedProbeEngine(std::unique_ptr<envnws::env::ProbeEngine> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  envnws::Result<envnws::env::HostIdentity> lookup(const std::string& hostname) override;
  envnws::Result<std::vector<envnws::env::TraceHop>> traceroute(
      const std::string& from, const std::string& target) override;
  envnws::Result<double> bandwidth(const std::string& from, const std::string& to) override;
  std::vector<envnws::Result<double>> concurrent_bandwidth(
      const std::vector<envnws::env::BandwidthRequest>& requests) override;
  std::vector<envnws::env::ProbeExperimentOutcome> run_batch(
      const std::vector<envnws::env::ProbeExperiment>& experiments,
      std::size_t workers) override;
  [[nodiscard]] envnws::env::ProbeStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<envnws::env::ProbeEngine> inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
