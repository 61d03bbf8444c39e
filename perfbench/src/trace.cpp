#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

/// Spans open on this thread, innermost last.
thread_local std::vector<std::uint64_t> open_spans;

}  // namespace

double self_seconds(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const Span& child : children) {
    const std::int64_t start = std::max(child.start_ns, span.start_ns);
    const std::int64_t end = std::min(child.end_ns, span.end_ns);
    if (end > start) covered.emplace_back(start, end);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_ns = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [start, end] : covered) {
    const std::int64_t from = std::max(start, reach);
    if (end > from) union_ns += end - from;
    reach = std::max(reach, end);
  }
  return static_cast<double>(span.end_ns - span.start_ns - union_ns) * 1e-9;
}

std::uint64_t Tracer::begin(std::string name, std::uint64_t op, std::uint64_t items) {
  const std::int64_t start = now_ns();
  std::lock_guard lock(mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_spans.empty() || open_spans.back() > spans_.size() ? 0 : open_spans.back();
  span.op = op != 0 || span.parent == 0 ? op : spans_[span.parent - 1].op;
  span.name = std::move(name);
  span.start_ns = start;
  span.items = items;
  spans_.push_back(std::move(span));
  open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  const std::int64_t end = now_ns();
  if (const auto it = std::find(open_spans.rbegin(), open_spans.rend(), id);
      it != open_spans.rend()) {
    open_spans.erase(std::next(it).base());
  }
  std::lock_guard lock(mutex_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ns = end;
}

void Tracer::record(std::string name, std::int64_t start_ns, std::int64_t end_ns) {
  std::lock_guard lock(mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_spans.empty() || open_spans.back() > spans_.size() ? 0 : open_spans.back();
  span.op = span.parent == 0 ? 0 : spans_[span.parent - 1].op;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
}

std::uint64_t Tracer::new_op() {
  std::lock_guard lock(mutex_);
  return next_op_++;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "id\tparent\top\tname\tstart_ns\tend_ns\titems\n";
  std::lock_guard lock(mutex_);
  for (const Span& span : spans_) {
    out << span.id << '\t' << span.parent << '\t' << span.op << '\t' << span.name << '\t'
        << span.start_ns << '\t' << span.end_ns << '\t' << span.items << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
