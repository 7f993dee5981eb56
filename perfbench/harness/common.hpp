// Shared pieces of the benchmark harness: command line, seeded input
// generation, latency statistics, the result line, and the benchmark PKI.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pki/authority.hpp"
#include "pki/certificate.hpp"
#include "pki/verify.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";  // data dirs and span dumps
  int connections = 4;   // fig4_rpc only: steadiness checks of 1 vs 4
  bool dump_inputs = false;  // print the digest of the generated inputs
};

/// splitmix64: the only source of workload inputs, so one seed gives one
/// byte-identical request stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  std::string letters(std::size_t n);
  std::vector<std::uint8_t> bytes(std::size_t n);

 private:
  std::uint64_t state_;
};

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Order statistics over a sample (linear interpolation between ranks).
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
/// Latency histogram with fixed memory: log-spaced buckets 0.1 % wide
/// from 1 us to 100 s. A closed loop records a million calls a run, and
/// the harness's own memory must not grow with the program's speed
/// (peak_rss_mb measures the process).
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(double ms);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  /// q-quantile in ms, interpolated by rank inside its bucket.
  double quantile(double q) const;

 private:
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Median over `windows` of each window's q-quantile (empty windows are
/// skipped): a stall confined to one window moves one term of the
/// median, not the result.
double windowed_quantile(const std::vector<LatencyHistogram>& windows,
                         double q);

/// What a workload run produces. `attempted`/`failed` count operations;
/// `correct` is false as soon as any output check fails.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  // units come from the catalogue
  std::vector<std::string> notes;  // printed as "# ..." lines before the result

  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(const std::string& line) { notes.push_back(line); }
  /// Record a failed correctness check (and the operation as failed).
  void fail(const std::string& why);
};

/// The benchmark user's DN; its last component comes from the seed.
std::string user_dn(std::uint64_t seed);

/// The benchmark's certificate authority, one server and one user
/// credential (named by user_dn(seed)). Created during set-up: RSA key
/// generation is part of set-up time.
struct Pki {
  clarens::pki::CertificateAuthority ca;
  clarens::pki::Credential server;
  clarens::pki::Credential user;
  clarens::pki::TrustStore trust;

  static Pki create(std::uint64_t seed);
};

/// Start a new peak-RSS interval: return freed heap to the kernel and
/// reset the process's resident high-water mark. Called before each
/// set-up, so each server's share of a run has its own peak and the
/// allocator's leftovers from the previous server do not pile up.
void reset_peak_rss();
/// Peak resident set (MB) since the last reset_peak_rss().
double peak_rss_mb();

/// md5 hex of a byte string.
std::string md5_hex(const std::string& bytes);

std::string format_double(double v);

/// Restrict the calling thread (and the threads it starts later) to
/// `cpus`; empty = every CPU.
void pin_current_thread(const std::vector<int>& cpus);
/// The client threads get the last CPU to themselves and the server
/// threads the others, so neither migrates onto the other's core mid-run.
std::vector<int> client_cpus();
std::vector<int> server_cpus();

}  // namespace perfbench
