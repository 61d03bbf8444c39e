// perfbench — the deployment benchmark (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --references <file> [--trace-out <file>]
//   perfbench --record --workload <name> --seed <n>   (prints reference lines)
//
// Prints a human-readable report, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; --trace 1 runs the workload twice,
// untraced then traced (half the time each), checks that both produce
// the same outputs, and reports the per-layer metrics derived from the
// traced pass's spans plus the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  std::string references_path;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      args.record = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") error = "--trace takes 0 or 1";
    } else if (flag == "--references") {
      args.references_path = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      error = "unknown flag " + flag;
    }
    if (end != nullptr && *end != '\0') error = "bad number for " + flag + ": " + value;
    if (!error.empty()) return false;
  }
  if (args.workload.empty()) error = "--workload is required";
  if (!(args.seconds > 0.0)) error = "--seconds must be positive";
  if (!args.record && args.references_path.empty()) error = "--references is required";
  return error.empty();
}

/// references.tsv: "<workload>\t<variant>\t<key>\t<value>" per line.
bool load_references(const std::string& path, const std::string& workload,
                     std::uint64_t variant, References& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  const std::string prefix = workload + "\t" + std::to_string(variant) + "\t";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::string rest = line.substr(prefix.size());
    const auto tab = rest.find('\t');
    if (tab != std::string::npos) out[rest.substr(0, tab)] = rest.substr(tab + 1);
  }
  return true;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::vector<double> scaled(const std::vector<double>& samples, double factor) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const double s : samples) out.push_back(s * factor);
  return out;
}

/// Query latencies (due time -> reply) in microseconds.
std::vector<double> query_us(const PassResult& pass) {
  std::vector<double> out;
  for (const RequestRecord& r : pass.requests) out.push_back(r.latency_s * 1e6);
  return out;
}

Metrics end_to_end(const PassResult& pass) {
  Metrics m;
  m["setup_s"] = {median(pass.setup_s), "s"};
  m["deploy_s"] = {median(pass.deploy_s), "s"};
  m["map_s"] = {median(pass.map_s), "s"};
  m["probe_experiments"] = {pass.probe_experiments, "count"};
  m["probe_sim_s"] = {pass.probe_sim_s, "sim_s"};
  m["nws_bytes_per_cycle"] = {pass.nws_bytes_per_cycle, "bytes"};
  m["cycle_rate"] = {pass.loop_s > 0 ? static_cast<double>(pass.cycles) / pass.loop_s : 0.0,
                     "1/s"};
  // The cycle median and the query p99 are per-layer metrics (see
  // per_layer): the median can sit between the machine's fast and slow
  // levels, and the p99 on the edge of the 1-3 % of replies that take a
  // ~5 ms step (see README.md); across seeds they move by up to 1.3x
  // and 2x.
  m["cycle_p90_ms"] = {percentile(scaled(pass.cycle_s, 1e3), 90.0), "ms"};
  m["query_p50_us"] = {percentile(query_us(pass), 50.0), "us"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  return m;
}

/// Per-layer metrics from the traced pass: span durations and self
/// times at the layer boundaries, plus the counters the pass read from
/// the public result structs. `untraced` gives the two user-facing
/// timings that are too unsteady to gate on.
Metrics per_layer(const PassResult& pass, const std::vector<Span>& spans,
                  const PassResult& untraced) {
  std::map<std::uint64_t, std::vector<Span>> children;
  for (const Span& span : spans) children[span.parent].push_back(span);
  const auto is_simnet = [](const Span& s) { return s.name.rfind("simnet.", 0) == 0; };
  const auto durations = [&](const std::string& name) {
    std::vector<double> out;
    for (const Span& s : spans) {
      if (s.name == name) out.push_back(s.seconds());
    }
    return out;
  };

  Metrics m;
  // api
  for (const char* stage : {"map", "plan", "apply", "validate", "make_monitor"}) {
    m[std::string("api.") + stage + "_s"] = {median(durations(std::string("api.") + stage)), "s"};
  }
  // simnet inside each map (time, calls, batched experiments), env self
  // time and zones
  const std::vector<std::string> calls = {"simnet.lookup", "simnet.traceroute",
                                          "simnet.bandwidth", "simnet.concurrent",
                                          "simnet.batch"};
  std::map<std::string, std::vector<double>> per_map;
  for (const Span& map : spans) {
    if (map.name != "api.map") continue;
    std::map<std::string, double> sums = {{"env.zone", 0}, {"simnet.batch.experiments", 0}};
    for (const std::string& call : calls) sums[call] = sums[call + ".calls"] = 0;
    std::vector<Span> simnet;
    double simnet_total = 0.0;
    for (const Span& child : children[map.id]) {
      sums[child.name] += child.seconds();
      if (is_simnet(child)) {
        sums[child.name + ".calls"] += 1;
        sums["simnet.batch.experiments"] += static_cast<double>(child.items);
        simnet.push_back(child);
        simnet_total += child.seconds();
      }
    }
    for (const auto& [name, total] : sums) per_map[name].push_back(total);
    per_map["share"].push_back(map.seconds() > 0 ? simnet_total / map.seconds() : 0.0);
    per_map["self"].push_back(self_seconds(map, simnet));
  }
  for (const std::string& call : calls) {
    m[call + "_s"] = {median(per_map[call]), "s"};
    m[call + ".calls"] = {median(per_map[call + ".calls"]), "count"};
  }
  m["simnet.batch.experiments"] = {median(per_map["simnet.batch.experiments"]), "count"};
  m["simnet.share_of_map"] = {median(per_map["share"]), "ratio"};
  m["env.mapper_self_s"] = {median(per_map["self"]), "s"};
  m["env.zone_s"] = {median(per_map["env.zone"]), "s"};

  // monitor cycles; fold and publish runs from the cycle's last
  // probe-engine return to its snapshot_published event
  std::vector<double> cycle, probe, self, fold_publish;
  for (const Span& span : spans) {
    if (span.name != "monitor.cycle") continue;
    std::vector<Span> simnet;
    double total = 0.0;
    std::int64_t engine_end = span.start_ns;
    std::int64_t published = 0;
    for (const Span& child : children[span.id]) {
      if (child.name == "monitor.published") published = child.start_ns;
      if (!is_simnet(child)) continue;
      simnet.push_back(child);
      total += child.seconds();
      engine_end = std::max(engine_end, child.end_ns);
    }
    cycle.push_back(span.seconds());
    probe.push_back(total);
    self.push_back(self_seconds(span, simnet));
    if (published != 0) fold_publish.push_back(static_cast<double>(published - engine_end) * 1e-9);
  }
  m["monitor.cycle_p50_ms"] = {percentile(scaled(untraced.cycle_s, 1e3), 50.0), "ms"};
  m["monitor.query_p99_us"] = {percentile(query_us(untraced), 99.0), "us"};
  m["monitor.cycle_s"] = {median(cycle), "s"};
  m["monitor.probe_s"] = {median(probe), "s"};
  m["monitor.self_s"] = {median(self), "s"};
  m["monitor.fold_publish_s"] = {median(fold_publish), "s"};
  m["monitor.restore_s"] = {median(durations("monitor.restore")), "s"};
  for (const char* kind : {"query", "series", "snapshot"}) {
    m[std::string("monitor.query.") + kind + "_us"] = {
        median(scaled(durations(std::string("query.") + kind), 1e6)), "us"};
  }
  std::uint64_t failed_requests = 0;
  std::vector<double> late_ms;
  for (const RequestRecord& r : pass.requests) {
    if (!r.ok) ++failed_requests;
    late_ms.push_back(r.late_s * 1e3);
  }
  m["monitor.query_fail_ratio"] = {
      pass.requests.empty() ? 0.0
                            : static_cast<double>(failed_requests) /
                                  static_cast<double>(pass.requests.size()),
      "ratio"};

  // bench
  m["bench.gen.late_max_ms"] = {late_ms.empty() ? 0.0 : percentile(late_ms, 100.0), "ms"};
  m["bench.gen.late_p99_ms"] = {percentile(late_ms, 99.0), "ms"};
  m["bench.samples.deploys"] = {static_cast<double>(pass.deploy_s.size()), "count"};
  m["bench.samples.cycles"] = {static_cast<double>(pass.cycle_s.size()), "count"};
  m["bench.samples.queries"] = {static_cast<double>(pass.requests.size()), "count"};

  for (const auto& [name, value] : pass.counts) {
    const auto ends_with = [&name](const std::string& suffix) {
      return name.size() >= suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    m[name] = {value, ends_with("_s")                                ? "sim_s"
                      : ends_with("bytes") || ends_with("bytes_sent") ? "bytes"
                      : ends_with("yield")                            ? "ratio"
                                                                      : "count"};
  }
  return m;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Each timing's median and highest supported percentile, with its
/// sample count.
void print_report(const std::string& title, const PassResult& pass) {
  std::printf("%s: %zu deploy(s), %llu cycle(s), %zu request(s), %llu/%llu failed\n",
              title.c_str(), pass.deploy_s.size(), static_cast<unsigned long long>(pass.cycles),
              pass.requests.size(), static_cast<unsigned long long>(pass.failed),
              static_cast<unsigned long long>(pass.attempted));
  const std::vector<std::pair<const char*, std::vector<double>>> timings = {
      {"setup s", pass.setup_s},
      {"deploy s", pass.deploy_s},
      {"map s", pass.map_s},
      {"cycle ms", scaled(pass.cycle_s, 1e3)},
      {"query us", query_us(pass)}};
  for (const auto& [name, samples] : timings) {
    const Summary summary = summarize(samples);
    std::printf("  %s: p50 %.4g", name, summary.p50);
    if (summary.tail_percentile > 50.0) {
      std::printf(", p%g %.4g", summary.tail_percentile, summary.tail);
    }
    std::printf(" (n=%zu)\n", summary.samples);
  }
  for (const std::string& problem : pass.problems) std::printf("  PROBLEM: %s\n", problem.c_str());
}

int run(const Args& args) {
  RunConfig config;
  config.workload = args.workload;
  config.seed = args.seed;
  config.seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  config.record = args.record;
  if (!args.record &&
      !load_references(args.references_path, args.workload, args.seed % kVariants,
                       config.references)) {
    std::fprintf(stderr, "perfbench: cannot read references %s\n", args.references_path.c_str());
    return 1;
  }

  auto untraced = run_pass(config);
  if (!untraced.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", untraced.error().to_string().c_str());
    return 1;
  }
  PassResult& base = untraced.value();
  print_report(args.workload + " (untraced)", base);

  if (args.record) {
    for (const auto& [key, value] : base.observed) {
      std::printf("REF\t%s\t%llu\t%s\t%s\n", args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed % kVariants), key.c_str(),
                  value.c_str());
    }
    return base.failed == 0 ? 0 : 1;
  }

  std::uint64_t attempted = base.attempted;
  std::uint64_t failed = base.failed;
  Metrics metrics = end_to_end(base);
  if (args.trace) {
    Tracer tracer;
    config.tracer = &tracer;
    auto traced = run_pass(config);
    if (!traced.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", traced.error().to_string().c_str());
      return 1;
    }
    print_report(args.workload + " (traced)", traced.value());
    attempted += traced.value().attempted;
    failed += traced.value().failed;
    if (traced.value().observed != base.observed) {
      std::printf("  PROBLEM: traced outputs differ from untraced ones\n");
      ++failed;
    }
    const std::vector<Span> spans = tracer.spans();
    if (!args.trace_out.empty() && !tracer.write(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    }
    Metrics layers = per_layer(traced.value(), spans, base);
    const Metrics traced_e2e = end_to_end(traced.value());
    for (const auto& [name, metric] : metrics) {
      if (metric.unit == "s" || metric.unit == "ms" || metric.unit == "us" ||
          metric.unit == "1/s") {
        layers["bench.trace_overhead." + name] = {traced_e2e.at(name).value - metric.value,
                                                  metric.unit};
      }
    }
    metrics = std::move(layers);
  }

  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-40s %.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << json_number(metric.value)
         << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::parse_args(argc, argv, args, error)) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --references <file> [--trace-out <file>] [--record]\n",
                 error.c_str());
    return 2;
  }
  return perfbench::run(args);
}
