#include "trace.hpp"

#include <cstdio>
#include <map>

namespace perfbench {

int SpanLog::open(std::uint64_t op, std::string_view name, int parent) {
  if (!on_) return -1;
  Span span;
  span.op = op;
  span.parent = parent;
  span.name = name;
  span.start = Clock::now();
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int index, std::uint64_t bytes) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
  spans_[static_cast<std::size_t>(index)].bytes = bytes;
}

void SpanLog::merge(const SpanLog& other) {
  int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

std::vector<double> SpanLog::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(ms_between(span.start, span.end));
  }
  return out;
}

std::pair<double, double> SpanLog::total_us_and_bytes(
    std::string_view name) const {
  double us = 0, bytes = 0;
  for (const Span& span : spans_) {
    if (span.name != name) continue;
    us += ms_between(span.start, span.end) * 1000.0;
    bytes += static_cast<double>(span.bytes);
  }
  return {us, bytes};
}

double SpanLog::unattributed_share(std::string_view call) const {
  struct OpTimes {
    double call_ms = 0;
    double replay_ms = 0;
  };
  std::map<int, OpTimes> per_root;
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    if (spans_[static_cast<std::size_t>(span.parent)].parent >= 0) continue;
    double ms = ms_between(span.start, span.end);
    OpTimes& times = per_root[span.parent];
    (span.name == call ? times.call_ms : times.replay_ms) += ms;
  }
  double call_ms = 0, replay_ms = 0;
  for (const auto& [root, times] : per_root) {
    if (times.replay_ms <= 0 || times.call_ms <= 0) continue;
    call_ms += times.call_ms;
    replay_ms += times.replay_ms;
  }
  return call_ms > 0 ? 1.0 - replay_ms / call_ms : 0;
}

void SpanLog::dump(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return;
  Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  std::fprintf(out, "op\tparent\tname\tstart_us\tdur_us\tbytes\n");
  for (const Span& span : spans_) {
    std::fprintf(out, "%llu\t%d\t%.*s\t%.3f\t%.3f\t%llu\n",
                 static_cast<unsigned long long>(span.op), span.parent,
                 static_cast<int>(span.name.size()), span.name.data(),
                 ms_between(origin, span.start) * 1000.0,
                 ms_between(span.start, span.end) * 1000.0,
                 static_cast<unsigned long long>(span.bytes));
  }
  std::fclose(out);
}

}  // namespace perfbench
