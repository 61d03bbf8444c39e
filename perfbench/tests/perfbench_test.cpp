// The benchmark's own tests: the probe-engine decorator forwards every
// virtual, span self time is duration minus child coverage, and the
// reported tail percentile is the highest one with ten samples beyond it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "stats.hpp"
#include "timed_engine.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace envnws;

/// Scripted engine: records every call, answers with recognisable values.
class ScriptedEngine final : public env::ProbeEngine {
 public:
  std::vector<std::string> calls;

  Result<env::HostIdentity> lookup(const std::string& hostname) override {
    calls.push_back("lookup " + hostname);
    return env::HostIdentity{hostname + ".lan", "10.0.0.7", {}, {}};
  }
  Result<std::vector<env::TraceHop>> traceroute(const std::string& from,
                                                const std::string& target) override {
    calls.push_back("traceroute " + from + " " + target);
    return std::vector<env::TraceHop>{{"10.0.0.1", "gw", true}, {"10.0.0.9", target, true}};
  }
  Result<double> bandwidth(const std::string& from, const std::string& to) override {
    calls.push_back("bandwidth " + from + " " + to);
    return 42.0;
  }
  std::vector<Result<double>> concurrent_bandwidth(
      const std::vector<env::BandwidthRequest>& requests) override {
    calls.push_back("concurrent " + std::to_string(requests.size()));
    return {Result<double>(1.0), Result<double>(2.0)};
  }
  std::vector<env::ProbeExperimentOutcome> run_batch(
      const std::vector<env::ProbeExperiment>& experiments, std::size_t workers) override {
    calls.push_back("batch " + std::to_string(experiments.size()) + " " +
                    std::to_string(workers));
    env::ProbeExperimentOutcome outcome;
    outcome.results.emplace_back(7.0);
    outcome.duration_s = 0.5;
    return {outcome};
  }
  [[nodiscard]] env::ProbeStats stats() const override { return {11, 2048, 3.5}; }
};

TEST(TimedProbeEngine, ForwardsEveryVirtualUnchanged) {
  auto inner = std::make_unique<ScriptedEngine>();
  ScriptedEngine& scripted = *inner;
  Tracer tracer;
  TimedProbeEngine engine(std::move(inner), tracer);

  EXPECT_EQ(engine.lookup("h0").value().fqdn, "h0.lan");
  EXPECT_EQ(engine.traceroute("h0", "h1").value().back().name, "h1");
  EXPECT_EQ(engine.bandwidth("h0", "h1").value(), 42.0);
  const auto concurrent = engine.concurrent_bandwidth({{"a", "b", ""}, {"c", "d", ""}});
  ASSERT_EQ(concurrent.size(), 2u);
  EXPECT_EQ(concurrent[1].value(), 2.0);
  const std::vector<env::ProbeExperiment> batch = {env::ProbeExperiment::single("a", "b"),
                                                   env::ProbeExperiment::single("c", "d")};
  const auto outcomes = engine.run_batch(batch, 3);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].results[0].value(), 7.0);
  EXPECT_EQ(outcomes[0].duration_s, 0.5);
  const env::ProbeStats stats = engine.stats();
  EXPECT_EQ(stats.experiments, 11u);
  EXPECT_EQ(stats.bytes_sent, 2048);
  EXPECT_EQ(stats.busy_time_s, 3.5);

  // run_batch reaches the inner engine's own run_batch (not a loop over
  // the single-transfer virtuals), with its worker count.
  EXPECT_EQ(scripted.calls,
            (std::vector<std::string>{"lookup h0", "traceroute h0 h1", "bandwidth h0 h1",
                                      "concurrent 2", "batch 2 3"}));

  // One span per call; the batch span carries its experiment count.
  std::vector<std::string> names;
  for (const Span& span : tracer.spans()) {
    names.push_back(span.name);
    EXPECT_GE(span.end_ns, span.start_ns);
    EXPECT_EQ(span.items, span.name == "simnet.batch" ? 2u : 0u);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"simnet.lookup", "simnet.traceroute",
                                             "simnet.bandwidth", "simnet.concurrent",
                                             "simnet.batch"}));
}

Span span_at(std::int64_t start, std::int64_t end) {
  Span span;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SpanSelfTime, IsDurationMinusChildCoverage) {
  const Span parent = span_at(0, 100);
  EXPECT_DOUBLE_EQ(self_seconds(parent, {}), 100e-9);
  // Disjoint children: 10 + 20 covered.
  EXPECT_DOUBLE_EQ(self_seconds(parent, {span_at(10, 20), span_at(50, 70)}), 70e-9);
  // Overlapping children count once: [10, 50) covered.
  EXPECT_DOUBLE_EQ(self_seconds(parent, {span_at(10, 30), span_at(20, 50)}), 60e-9);
  // A child reaching past the parent counts only inside it; a child
  // entirely outside counts not at all.
  EXPECT_DOUBLE_EQ(self_seconds(parent, {span_at(90, 120), span_at(-5, 5), span_at(200, 300)}),
                   85e-9);
  // Fully covered.
  EXPECT_DOUBLE_EQ(self_seconds(parent, {span_at(0, 60), span_at(40, 100)}), 0.0);
}

TEST(Tracer, NestsSpansByThreadAndSharesOperationIds) {
  Tracer tracer;
  const std::uint64_t op = tracer.new_op();
  {
    const ScopedSpan outer(&tracer, "outer", op);
    { const ScopedSpan inner(&tracer, "inner"); }
    tracer.record("measured", 1, 2);
  }
  { const ScopedSpan root(&tracer, "root"); }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[0].id);
  EXPECT_EQ(spans[1].op, op);
  EXPECT_EQ(spans[2].op, op);
  EXPECT_EQ(spans[3].parent, 0u);
  EXPECT_EQ(spans[3].op, 0u);
  for (const Span& span : spans) EXPECT_GE(span.end_ns, span.start_ns);
}

TEST(Percentiles, TailIsHighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(100000), 99.99);
}

TEST(Percentiles, SummaryReportsValuesWithTheirSampleCount) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(static_cast<double>(i));
  const Summary summary = summarize(samples);
  EXPECT_EQ(summary.samples, 1000u);
  EXPECT_EQ(summary.tail_percentile, 99.0);
  EXPECT_DOUBLE_EQ(summary.p50, 500.5);
  EXPECT_NEAR(summary.tail, 990.01, 1e-9);
  // Exactly ten samples lie beyond the reported tail.
  std::size_t beyond = 0;
  for (const double s : samples) beyond += s > summary.tail ? 1 : 0;
  EXPECT_EQ(beyond, 10u);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({3.0}, 99.0), 3.0);
}

}  // namespace
}  // namespace perfbench
