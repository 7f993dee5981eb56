// Clarens benchmark harness.
//
//   perfbench --workload fig4_rpc|analyst_mix|fed_upload --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//             [--connections N] [--dump-inputs]
//
// Prints "# ..." notes, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1. Exits non-zero
// when an output check failed or the build measures a different program.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "crypto/md5.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Refuse to report numbers from a build that measures a different
/// program: sanitizers, the runtime lock-rank checker and fault-injection
/// hooks all change the hot paths, and so does a build without
/// optimization.
const char* build_refusal() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif defined(CLARENS_LOCK_RANK_CHECK)
  return "CLARENS_LOCK_RANK_CHECK build";
#elif defined(CLARENS_FAULT_INJECTION)
  return "CLARENS_FAULT_INJECTION build";
#elif !defined(__OPTIMIZE__)
  return "unoptimized build";
#else
  return nullptr;
#endif
}

std::string build_line() {
#ifdef PERFBENCH_BUILD_TYPE
  const char* build_type = PERFBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  return "build nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         " compiler=\"" + __VERSION__ + "\" build_type=" + build_type;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* flag = argv[i];
    const char* v = nullptr;
    if (!std::strcmp(flag, "--dump-inputs")) {
      args.dump_inputs = true;
      continue;
    }
    if (!(v = value())) return false;
    if (!std::strcmp(flag, "--workload")) {
      args.workload = v;
    } else if (!std::strcmp(flag, "--seed")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(flag, "--seconds")) {
      args.seconds = std::atof(v);
    } else if (!std::strcmp(flag, "--trace")) {
      args.trace = std::atoi(v) != 0;
    } else if (!std::strcmp(flag, "--work-dir")) {
      args.work_dir = v;
    } else if (!std::strcmp(flag, "--connections")) {
      args.connections = std::atoi(v);
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0 && args.connections > 0;
}

void print_result(const Report& report, bool trace) {
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : trace ? kPerLayer : kEndToEnd) {
    auto it = report.metrics.find(def.name);
    double value = it == report.metrics.end() ? 0 : it->second;
    json += first ? "" : ", ";
    first = false;
    json += "\"" + std::string(def.name) + "\": {\"value\": " +
            format_double(value) + ", \"unit\": \"" + def.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--connections N] "
                 "[--dump-inputs]\n");
    return 2;
  }
  void (*run)(const Args&, Report&) = nullptr;
  void (*inputs)(std::uint64_t, std::string&) = nullptr;
  if (args.workload == "fig4_rpc") {
    run = run_fig4;
    inputs = fig4_inputs;
  } else if (args.workload == "analyst_mix") {
    run = run_mix;
    inputs = mix_inputs;
  } else if (args.workload == "fed_upload") {
    run = run_fed;
    inputs = fed_inputs;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.dump_inputs) {
    std::string stream;
    inputs(args.seed, stream);
    std::printf("%s %zu\n", clarens::crypto::Md5::hex(stream).c_str(),
                stream.size());
    return 0;
  }
  if (const char* refusal = build_refusal()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s\n", refusal);
    return 3;
  }
  clarens::util::set_log_level(clarens::util::LogLevel::Error);
  std::filesystem::create_directories(args.work_dir);

  Report report;
  report.note(build_line());
  report.note("workload " + args.workload + " seed " +
              std::to_string(args.seed) + " seconds " +
              format_double(args.seconds) + " trace " +
              (args.trace ? "1" : "0"));
  try {
    run(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (report.attempted == 0) report.fail("no operation was attempted");
  print_result(report, args.trace);
  return report.correct ? 0 : 1;
}
