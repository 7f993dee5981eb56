// In-memory spans for the traced run.
//
// Every operation gets a root span; child spans are recorded around each
// public layer call the harness makes (client calls, explicit redirect
// legs, and the replay of the operation's captured inputs through the
// layer functions). Spans of one operation share its id. They stay in
// memory and are written out once the run ends; the per-layer metrics
// are computed from them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::uint64_t op = 0;
  int parent = -1;  // index into the same log; -1 = root
  std::string_view name;  // always a string literal
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t bytes = 0;  // payload the span processed, when it matters
};

/// One thread's spans. Off = every call is a no-op returning -1.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  bool on() const { return on_; }

  int open(std::uint64_t op, std::string_view name, int parent = -1);
  void close(int index, std::uint64_t bytes = 0);

  /// Record `fn()` as a child span of `parent` (or a root when -1).
  template <typename Fn>
  decltype(auto) time(std::uint64_t op, std::string_view name, int parent,
                      Fn&& fn, std::uint64_t bytes = 0) {
    int index = open(op, name, parent);
    struct Closer {
      SpanLog* log;
      int index;
      std::uint64_t bytes;
      ~Closer() { log->close(index, bytes); }
    } closer{this, index, bytes};
    return fn();
  }

  void merge(const SpanLog& other);

  /// Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(std::string_view name) const;
  /// Sum over spans called `name` of (microseconds, bytes).
  std::pair<double, double> total_us_and_bytes(std::string_view name) const;
  /// 1 - (replayed layer time / measured client-call time), summed over
  /// the operations that were replayed. `call` names the client-call
  /// span; every root-level sibling of it, other than `call`, is a layer
  /// replay.
  double unattributed_share(std::string_view call) const;

  /// Write one span per line: op, parent, name, start_us, dur_us, bytes.
  void dump(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
