#include "common.hpp"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "crypto/md5.hpp"
#include "crypto/random.hpp"

namespace perfbench {

std::string Rng::letters(std::size_t n) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string out(n, 'a');
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t word = next();
    for (std::size_t j = i; j < n && j < i + 8; ++j) {
      out[j] = kAlphabet[(word & 0xff) % 62];
      word >>= 8;
    }
  }
  return out;
}

std::vector<std::uint8_t> Rng::bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t word = next();
    for (std::size_t j = i; j < n && j < i + 8; ++j) {
      out[j] = static_cast<std::uint8_t>(word);
      word >>= 8;
    }
  }
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

namespace {

constexpr double kBucketRatio = 1.001;
const double kLogRatio = std::log(kBucketRatio);
constexpr double kMinUs = 1.0;
const std::size_t kBuckets =
    static_cast<std::size_t>(std::log(1e8 / kMinUs) / kLogRatio) + 1;

double bucket_lower_us(std::size_t index) {
  return kMinUs * std::exp(static_cast<double>(index) * kLogRatio);
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::add(double ms) {
  double us = std::max(ms * 1000.0, kMinUs);
  std::size_t index =
      static_cast<std::size_t>(std::log(us / kMinUs) / kLogRatio);
  ++buckets_[std::min(index, kBuckets - 1)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  double rank = q * static_cast<double>(count_ - 1);
  double seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    double n = buckets_[i];
    if (n > 0 && seen + n > rank) {
      double lower = bucket_lower_us(i);
      double width = bucket_lower_us(i + 1) - lower;
      return (lower + width * (rank - seen + 0.5) / n) / 1000.0;
    }
    seen += n;
  }
  return bucket_lower_us(kBuckets) / 1000.0;
}

double windowed_quantile(const std::vector<LatencyHistogram>& windows,
                         double q) {
  std::vector<double> per_window;
  for (const LatencyHistogram& window : windows) {
    if (window.count() > 0) per_window.push_back(window.quantile(q));
  }
  return median(per_window);
}

void Report::fail(const std::string& why) {
  correct = false;
  ++failed;
  if (notes.size() < 64) notes.push_back("FAILED: " + why);
}

std::string user_dn(std::uint64_t seed) {
  return "/O=benchgrid.org/OU=People/CN=Analyst " + Rng(seed).letters(8);
}

Pki Pki::create(std::uint64_t seed) {
  // The keys come from a fixed DRBG seed: RSA key generation time depends
  // on how many prime candidates a draw needs, and set-up time must not
  // vary with that luck. Every run generates the same keys.
  namespace crypto = clarens::crypto;
  namespace pki = clarens::pki;
  const std::uint8_t key_seed[32] = {'p', 'e', 'r', 'f', 'b',
                                     'e', 'n', 'c', 'h'};
  crypto::Drbg saved = crypto::system_drbg();
  crypto::system_drbg() = crypto::Drbg(key_seed);
  Pki p{pki::CertificateAuthority::create(
            pki::DistinguishedName::parse("/O=benchgrid.org/CN=Bench CA"), 512),
        {}, {}, {}};
  p.server = p.ca.issue_server(pki::DistinguishedName::parse(
      "/O=benchgrid.org/OU=Services/CN=host/bench.example.org"));
  p.user = p.ca.issue_user(pki::DistinguishedName::parse(user_dn(seed)));
  p.trust.add_authority(p.ca.certificate());
  crypto::system_drbg() = saved;
  return p;
}

void reset_peak_rss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);  // 5 = reset the peak resident set size
    std::fclose(f);
  }
}

double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f)) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MB
}

std::string md5_hex(const std::string& bytes) {
  return clarens::crypto::Md5::hex(bytes);
}

std::string format_double(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Restrict the calling thread (and the threads it starts later) to
/// `cpus`; empty = every CPU.
void pin_current_thread(const std::vector<int>& cpus) {
  int n = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = 0; cpu < n; ++cpu) {
    if (cpus.empty() ||
        std::find(cpus.begin(), cpus.end(), cpu) != cpus.end()) {
      CPU_SET(cpu, &set);
    }
  }
  sched_setaffinity(0, sizeof(set), &set);
}

std::vector<int> client_cpus() {
  int n = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  return n > 1 ? std::vector<int>{n - 1} : std::vector<int>{};
}

std::vector<int> server_cpus() {
  int n = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::vector<int> cpus;
  for (int cpu = 0; cpu + 1 < n; ++cpu) cpus.push_back(cpu);
  return cpus;
}

}  // namespace perfbench
