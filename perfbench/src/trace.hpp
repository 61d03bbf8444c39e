// In-memory span recorder for the benchmark's traced runs.
//
// Spans are taken from the benchmark's own code, around the calls it
// makes into each layer (the Session stages, the probe engine, the
// monitor daemon, the query client); nothing inside the library is
// instrumented. Every span has a name, start, end, the span that was
// open on the same thread when it began (its parent), and an operation
// id shared by all spans of one deploy iteration, monitor cycle or query,
// and an item count where the call has one (a batch's experiments).
// Spans stay in memory until `write()` at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< operation id, shared by one request's spans
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< 0 while open
  std::uint64_t items = 0;  ///< work items of the call, 0 when not counted

  [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Self time of `span`: its duration minus the part of its interval
/// covered by at least one of `children` (overlapping children count
/// once; parts of a child outside the span do not count).
[[nodiscard]] double self_seconds(const Span& span, const std::vector<Span>& children);

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span on the calling thread; its parent is the innermost span
  /// still open on this thread. `op == 0` inherits the parent's op.
  std::uint64_t begin(std::string name, std::uint64_t op = 0, std::uint64_t items = 0);
  void end(std::uint64_t id);
  /// A span whose interval was measured elsewhere (e.g. between two
  /// observer events), parented to the span open on this thread.
  void record(std::string name, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] std::uint64_t new_op();
  [[nodiscard]] std::vector<Span> spans() const;
  /// Tab-separated: id parent op name start_ns end_ns items.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< index = id - 1
  std::uint64_t next_op_ = 1;
};

/// RAII span; a no-op when `tracer` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t op = 0, std::uint64_t items = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name), op, items) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
