#include "loadgen.hpp"

#include <algorithm>
#include <cmath>

#include "affinity.hpp"
#include "common/rng.hpp"

namespace perfbench {

using namespace envnws;

namespace {

constexpr double kLookupsPerSecond = 1000.0;
constexpr double kSeriesShare = 0.08;
constexpr double kSnapshotIntervalS = 2.0;
/// A connection's thread sleeps until this long before a request is
/// due and spins the rest, so a slow timer wake-up does not make it late.
constexpr auto kSpinLead = std::chrono::microseconds(200);

}  // namespace

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::query: return "query";
    case RequestKind::series: return "series";
    case RequestKind::snapshot: return "snapshot";
  }
  return "unknown";
}

Status OpenLoopGenerator::start() {
  for (const bool snapshots : {false, true}) {
    const std::set<pid_t> before = thread_ids();
    auto connected = monitor::QueryClient::connect("127.0.0.1", config_.port);
    if (!connected.ok()) return connected.error();
    std::optional<monitor::QueryClient>& client = clients_[snapshots ? 1 : 0];
    client.emplace(std::move(connected.value()));
    if (auto answer = client->query(config_.pairs.front()); !answer.ok()) return answer.error();
    pin_new_threads(before, snapshots ? config_.snapshot_cpus : config_.lookup_cpus);
  }
  {
    std::lock_guard lock(mutex_);
    stopping_ = false;
  }
  threads_.emplace_back([this] { run_connection(false); });
  threads_.emplace_back([this] { run_connection(true); });
  return {};
}

void OpenLoopGenerator::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  for (auto& client : clients_) client.reset();
}

std::vector<RequestRecord> OpenLoopGenerator::records() const {
  std::vector<RequestRecord> all = lookups_;
  all.insert(all.end(), snapshots_.begin(), snapshots_.end());
  return all;
}

void OpenLoopGenerator::run_connection(bool snapshots) {
  // Slot k of a constant-rate schedule is due at epoch + k * interval;
  // SNAPSHOTs are offset by half an interval. A (re)start resumes at the
  // first slot not yet due.
  const double interval_s = snapshots ? kSnapshotIntervalS : 1.0 / kLookupsPerSecond;
  const double offset_s = snapshots ? interval_s / 2.0 : 0.0;
  std::vector<RequestRecord>& out = snapshots ? snapshots_ : lookups_;
  const double elapsed_s = std::chrono::duration<double>(Clock::now() - epoch_).count();
  const auto first = static_cast<std::uint64_t>(
      std::max(0.0, std::ceil((elapsed_s - offset_s) / interval_s)));
  Rng rng(config_.seed * 0x9e3779b97f4a7c15ULL + first * 2 + (snapshots ? 1 : 0));
  std::optional<monitor::QueryClient>& client = clients_[snapshots ? 1 : 0];
  pin_current_thread(snapshots ? config_.snapshot_cpus : config_.lookup_cpus);

  for (std::uint64_t slot = first;; ++slot) {
    const Clock::time_point due =
        epoch_ + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                     offset_s + static_cast<double>(slot) * interval_s));
    {
      std::unique_lock lock(mutex_);
      if (wake_.wait_until(lock, due - kSpinLead, [this] { return stopping_; })) break;
    }
    while (Clock::now() < due) {
    }

    RequestRecord record;
    record.kind = snapshots                                   ? RequestKind::snapshot
                  : rng.next_double() < kSeriesShare ? RequestKind::series
                                                             : RequestKind::query;
    const nws::SeriesKey& key = config_.pairs[rng.next_below(config_.pairs.size())];

    const Clock::time_point sent = Clock::now();
    {
      const ScopedSpan span(config_.tracer, std::string("query.") + to_string(record.kind),
                            config_.tracer != nullptr ? config_.tracer->new_op() : 0);
      if (!client.has_value()) {
        // A refused connection fails this request; the next one retries.
        auto connected = monitor::QueryClient::connect("127.0.0.1", config_.port);
        if (connected.ok()) {
          client.emplace(std::move(connected.value()));
        } else {
          record.error = connected.error().to_string();
        }
      }
      if (client.has_value()) {
        switch (record.kind) {
          case RequestKind::query: {
            auto answer = client->query(key);
            record.ok = answer.ok() && std::isfinite(answer.value().latest) &&
                        answer.value().latest > 0.0;
            if (!answer.ok()) record.error = answer.error().to_string();
            break;
          }
          case RequestKind::series: {
            auto points = client->series(key, 16);
            record.ok = points.ok() && !points.value().empty();
            if (!points.ok()) record.error = points.error().to_string();
            break;
          }
          case RequestKind::snapshot: {
            auto summary = client->snapshot();
            record.ok = summary.ok() && summary.value().pairs == config_.expected_pairs &&
                        summary.value().remaps == 0;
            if (!summary.ok()) record.error = summary.error().to_string();
            break;
          }
        }
        if (!record.ok && record.error.empty()) record.error = "reply failed its check";
        if (!record.ok) client.reset();  // resynchronise after any failure
      }
    }
    const Clock::time_point replied = Clock::now();
    record.late_s = std::chrono::duration<double>(sent - due).count();
    record.latency_s = std::chrono::duration<double>(replied - due).count();
    out.push_back(record);
  }
}

}  // namespace perfbench
