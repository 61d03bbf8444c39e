// Open-loop query generator for the monitor daemon's query server.
//
// Each request is due at a fixed point of a constant-rate schedule. Each
// connection is sequential: a request that falls due while the previous
// reply is pending is sent when that reply arrives, so a stall delays
// the requests behind it instead of slowing the schedule down. Latency
// is timed from the request's due time, so that delay counts in it and
// in the generator's lateness (bench.gen.late_*). To send on time, a
// connection's thread sleeps until shortly before the due time and
// spins the rest. A refused connection, a transport error, an error
// reply or a reply that fails its check counts as a failed request.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/result.hpp"
#include "monitor/query_server.hpp"
#include "nws/series.hpp"
#include "trace.hpp"

namespace perfbench {

enum class RequestKind { query, series, snapshot };
[[nodiscard]] const char* to_string(RequestKind kind);

/// Two loopback connections, like two independent clients: one sends
/// pair lookups (QUERY, 8 % SERIES) at 1000 requests/s, the other one
/// SNAPSHOT every 2 s. A SNAPSHOT recomputes the full snapshot digest
/// (tens of milliseconds at 4000 pairs); on its own connection and CPU
/// no pair lookup queues behind it, and at 0.05 % of all requests it
/// cannot set the p99 by itself.
struct LoadConfig {
  std::uint16_t port = 0;
  std::uint64_t seed = 1;
  /// Pairs QUERY and SERIES pick from (seeded, uniformly).
  std::vector<envnws::nws::SeriesKey> pairs;
  /// SNAPSHOT replies must report this many pairs.
  std::uint64_t expected_pairs = 0;
  /// CPUs of the lookup and the SNAPSHOT connection: the client thread
  /// and the server thread serving it (see affinity.hpp).
  std::vector<int> lookup_cpus, snapshot_cpus;
  Tracer* tracer = nullptr;  ///< null: untraced
};

struct RequestRecord {
  RequestKind kind = RequestKind::query;
  bool ok = false;
  double latency_s = 0.0;  ///< due time -> reply
  double late_s = 0.0;     ///< due time -> send
  std::string error;       ///< why it failed (empty when ok)
};

/// The schedule is fixed when the generator is built; start() and stop()
/// may be called several times (the load pauses in between: slots that
/// fall into a pause are skipped, not sent late). Each start() opens
/// new connections, like clients that come back: the server closes a
/// connection left idle for 10 s, and a pause can last that long.
class OpenLoopGenerator {
 public:
  explicit OpenLoopGenerator(LoadConfig config)
      : config_(std::move(config)), epoch_(Clock::now()) {}
  ~OpenLoopGenerator() { stop(); }
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  /// Open both connections, one at a time, each with one untimed QUERY
  /// so its server thread exists, pin that server thread to the
  /// connection's CPUs, and start sending.
  [[nodiscard]] envnws::Status start();
  /// Stop scheduling, wait for in-flight requests, join the threads,
  /// close the connections.
  void stop();
  /// Every request attempted, all connections (valid after stop()).
  [[nodiscard]] std::vector<RequestRecord> records() const;

 private:
  /// `snapshots`: this connection sends SNAPSHOTs, else pair lookups.
  void run_connection(bool snapshots);

  LoadConfig config_;
  Clock::time_point epoch_;  ///< slot 0 of the schedule
  /// [0] pair lookups, [1] SNAPSHOTs; each used by its thread only. A
  /// connection reopened after a failed request is not pinned.
  std::optional<envnws::monitor::QueryClient> clients_[2];
  std::mutex mutex_;
  std::condition_variable wake_;  ///< interrupts the wait for the next slot
  bool stopping_ = false;         ///< guarded by mutex_
  std::vector<RequestRecord> lookups_;
  std::vector<RequestRecord> snapshots_;
  std::vector<std::thread> threads_;
};

}  // namespace perfbench
