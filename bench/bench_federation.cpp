// Federation overhead: what does the head/storage role split cost?
//
// Topology: one head node (sessions + namespace, no file bytes) and two
// storage nodes, wired through a discovery station, placement decided by
// the consistent-hash ring over namespace prefixes. The ablation
// baseline is a standalone server doing the same file I/O with no hop.
//
// Measured:
//   * file.write / file.read through RoutedClient — every call pays the
//     head round-trip (redirect envelope) plus the replay on the owning
//     storage node;
//   * the same calls against a standalone server (no redirect tax);
//   * file.ls on the shared namespace root — head-side async fan-out to
//     every storage node, merged;
//   * the replication tax (ISSUE 10): the same writes against a head
//     running placement_replicas=2 — client-visible write cost (the
//     copy is asynchronous, so this should track the single-copy
//     number), background convergence to full replication, and the
//     replica.fsck scrub throughput over every replica;
//   * a growing file: one --grow-mb MiB upload in 256 KiB appends,
//     standalone and to the 2-replica cluster, timing the appends of the
//     first and the last MiB. Flat means the per-append cost does not
//     depend on the file size; then the time for that file to reach two
//     healthy, confirmed replicas once the appends stop.
//
// Usage: bench_federation [--files N] [--reads N] [--grow-mb N]
//                         [--json FILE]
//   --json writes machine-readable results (folded into
//   BENCH_federation.json when committing a federation change).
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "client/client.hpp"
#include "client/routed.hpp"
#include "db/store.hpp"
#include "discovery/discovery_server.hpp"
#include "discovery/station.hpp"
#include "federation/router.hpp"
#include "util/clock.hpp"

using namespace clarens;

namespace {

constexpr const char* kSecret = "bench-federation-secret";

core::ClarensConfig fed_config(const std::string& node, core::NodeRole role,
                               const std::string& data_dir,
                               const std::string& head_url,
                               std::uint16_t station_port) {
  core::ClarensConfig config = bench::paper_server_config();
  core::FileAcl open_acl;
  open_acl.read = bench::allow_anyone();
  open_acl.write = bench::allow_anyone();
  config.initial_file_acls = {{"/data", open_acl}};
  // The replication control plane: storage-node landed-write notices
  // (replica.committed) run the method ACL against the writer identity.
  config.initial_method_acls.push_back({"replica", bench::allow_anyone()});
  config.farm = "benchfarm";
  config.node = node;
  config.node_role = role;
  config.node_ticket_secret = kSecret;
  config.head_url = head_url;
  if (station_port != 0) config.station = {{"127.0.0.1", station_port}};
  config.publish_interval_ms = 100;
  config.federation_refresh_ms = 100;
  if (!data_dir.empty()) config.file_roots = {{"/data", data_dir}};
  return config;
}

struct IoCost {
  double write_us = 0;
  double read_us = 0;
};

/// mkdir every run prefix, then time `files` writes and `reads` reads of
/// an 8 KiB payload spread over the prefixes.
template <typename Client>
IoCost measure_io(Client& client, int files, int reads,
                  const std::string& payload) {
  for (int i = 0; i < files; ++i) {
    client.call("file.mkdir", {rpc::Value("/data/run" + std::to_string(i))});
  }
  IoCost cost;
  util::Stopwatch write_timer;
  for (int i = 0; i < files; ++i) {
    std::string path = "/data/run" + std::to_string(i) + "/evt.bin";
    client.call("file.write", {rpc::Value(path), rpc::Value(payload)});
  }
  cost.write_us = write_timer.seconds() * 1e6 / files;
  util::Stopwatch read_timer;
  for (int i = 0; i < reads; ++i) {
    std::string path = "/data/run" + std::to_string(i % files) + "/evt.bin";
    client.call("file.read", {rpc::Value(path), rpc::Value(std::int64_t{0}),
                              rpc::Value(std::int64_t{1 << 20})});
  }
  cost.read_us = read_timer.seconds() * 1e6 / reads;
  return cost;
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Per-append latency (ms) while one file grows.
struct Growth {
  double first_mib_ms = 0;  // median over the appends of the first MiB
  double last_mib_ms = 0;   // ... and of the last MiB
};

/// Upload `path` in 256 KiB write/appends until it holds `mb` MiB.
template <typename Client>
Growth measure_growth(Client& client, const std::string& path, int mb) {
  constexpr int kChunk = 256 * 1024;
  constexpr int kPerMiB = (1 << 20) / kChunk;
  const std::string chunk(kChunk, 'g');
  const int calls = mb * kPerMiB;
  std::vector<double> first, last;
  for (int i = 0; i < calls; ++i) {
    util::Stopwatch timer;
    client.call(i == 0 ? "file.write" : "file.append",
                {rpc::Value(path), rpc::Value(chunk)});
    double ms = timer.seconds() * 1e3;
    if (i < kPerMiB) first.push_back(ms);
    if (i >= calls - kPerMiB) last.push_back(ms);
  }
  return {median_of(first), median_of(last)};
}

}  // namespace

int main(int argc, char** argv) {
  int files = 16;
  int reads = 400;
  int grow_mb = 32;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--files") && i + 1 < argc) {
      files = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--reads") && i + 1 < argc) {
      reads = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--grow-mb") && i + 1 < argc) {
      grow_mb = std::max(1, std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  const bench::BenchPki& pki = bench::BenchPki::instance();
  const std::string payload(8192, 'x');
  std::string root = "/tmp/clarens_bench_federation";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root + "/solo");
  std::filesystem::create_directories(root + "/fst1");
  std::filesystem::create_directories(root + "/fst2");

  std::printf("# Federation: redirect-to-node file I/O vs standalone "
              "(8 KiB payloads, %d files, %d reads)\n", files, reads);

  // Baseline: one standalone server, no discovery, no redirect hop.
  IoCost solo;
  Growth solo_growth;
  {
    core::ClarensConfig config =
        fed_config("solo", core::NodeRole::Standalone, root + "/solo",
                   /*head_url=*/"", /*station_port=*/0);
    core::ClarensServer server(std::move(config));
    server.start();
    client::ClientOptions options;
    options.port = server.port();
    options.credential = pki.user;
    options.trust = &pki.trust;
    client::ClarensClient client(options);
    client.connect();
    client.authenticate();
    solo = measure_io(client, files, reads, payload);
    client.call("file.mkdir", {rpc::Value("/data/grow")});
    solo_growth = measure_growth(client, "/data/grow/big.bin", grow_mb);
    server.stop();
  }

  // Cluster: head + 2 storage behind one discovery fabric.
  discovery::StationServer station;
  db::Store store;
  discovery::DiscoveryServer discovery(store, /*record_ttl=*/3600);
  discovery.subscribe("127.0.0.1", station.port());

  core::ClarensServer head(fed_config("head", core::NodeRole::Head,
                                      /*data_dir=*/"", /*head_url=*/"",
                                      station.port()));
  head.attach_discovery(discovery);
  head.start();
  const std::string head_url = head.url();
  core::ClarensServer storage1(fed_config("fst1", core::NodeRole::Storage,
                                          root + "/fst1", head_url,
                                          station.port()));
  storage1.start();
  core::ClarensServer storage2(fed_config("fst2", core::NodeRole::Storage,
                                          root + "/fst2", head_url,
                                          station.port()));
  storage2.start();
  for (int i = 0; i < 500 && (!head.router() ||
                              head.router()->storage_nodes().size() < 2);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!head.router() || head.router()->storage_nodes().size() < 2) {
    std::printf("error: head never saw both storage nodes\n");
    return 1;
  }

  client::ClientOptions base;
  base.credential = pki.user;
  base.trust = &pki.trust;
  client::RoutedClient routed(head_url, base, /*max_attempts=*/10,
                              /*retry_backoff_ms=*/50);
  routed.authenticate();
  IoCost fed = measure_io(routed, files, reads, payload);

  // Fan-out listing: the head asks every storage node and merges.
  int ls_calls = reads / 10 > 5 ? reads / 10 : 5;
  util::Stopwatch ls_timer;
  for (int i = 0; i < ls_calls; ++i) {
    routed.call("file.ls", {rpc::Value("/data")});
  }
  double ls_ms = ls_timer.seconds() * 1e3 / ls_calls;

  // Replication: an isolated cluster (own discovery fabric, so its ring
  // and commit notifications do not mix with the single-copy one) whose
  // head targets two copies per file. The client-visible write should
  // stay near the single-copy number (the second copy is made in the
  // background); convergence and fsck measure the repair engine itself.
  std::filesystem::create_directories(root + "/fst3");
  std::filesystem::create_directories(root + "/fst4");
  discovery::StationServer rep_station;
  db::Store rep_store;
  discovery::DiscoveryServer rep_discovery(rep_store, /*record_ttl=*/3600);
  rep_discovery.subscribe("127.0.0.1", rep_station.port());
  core::ClarensConfig rep_config = fed_config(
      "head2", core::NodeRole::Head, /*data_dir=*/"", /*head_url=*/"",
      rep_station.port());
  rep_config.placement_replicas = 2;
  rep_config.replication_grace_ms = 500;
  core::ClarensServer rep_head(std::move(rep_config));
  rep_head.attach_discovery(rep_discovery);
  rep_head.start();
  core::ClarensServer storage3(fed_config("fst3", core::NodeRole::Storage,
                                          root + "/fst3", rep_head.url(),
                                          rep_station.port()));
  storage3.start();
  core::ClarensServer storage4(fed_config("fst4", core::NodeRole::Storage,
                                          root + "/fst4", rep_head.url(),
                                          rep_station.port()));
  storage4.start();
  for (int i = 0; i < 500 && (!rep_head.router() ||
                              rep_head.router()->storage_nodes().size() < 2);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!rep_head.router() || rep_head.router()->storage_nodes().size() < 2) {
    std::printf("error: replication head never saw its storage nodes\n");
    return 1;
  }
  client::RoutedClient rep_client(rep_head.url(), base, /*max_attempts=*/10,
                                  /*retry_backoff_ms=*/50);
  rep_client.authenticate();
  for (int i = 0; i < files; ++i) {
    rep_client.call("file.mkdir",
                    {rpc::Value("/data/rep" + std::to_string(i))});
  }
  util::Stopwatch rep_write_timer;
  for (int i = 0; i < files; ++i) {
    std::string path = "/data/rep" + std::to_string(i) + "/evt.bin";
    rep_client.call("file.write", {rpc::Value(path), rpc::Value(payload)});
  }
  double rep_write_us = rep_write_timer.seconds() * 1e6 / files;

  // Convergence: seconds from the last write until every file reports
  // two healthy, checksum-confirmed replicas.
  auto healthy_count = [&](const std::string& path) {
    int healthy = 0;
    try {
      rpc::Value layout = rep_client.call("file.layout", {rpc::Value(path)});
      if (!layout.at("confirmed").as_bool()) return 0;
      for (const rpc::Value& replica : layout.at("replicas").as_array()) {
        if (replica.at("state").as_string() == "healthy") ++healthy;
      }
    } catch (const std::exception&) {
    }
    return healthy;
  };
  util::Stopwatch converge_timer;
  double converge_s = -1;
  for (int spin = 0; spin < 3000; ++spin) {
    bool done = true;
    for (int i = 0; i < files && done; ++i) {
      done = healthy_count("/data/rep" + std::to_string(i) + "/evt.bin") >= 2;
    }
    if (done) {
      converge_s = converge_timer.seconds();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (converge_s < 0) {
    std::printf("error: replication never converged\n");
    return 1;
  }

  // fsck scrub: every replica of every managed file gets stream-hashed
  // on its storage node; throughput is replicas checked (and bytes
  // hashed) per second of wall clock.
  util::Stopwatch fsck_timer;
  rpc::Value fsck = rep_client.call("replica.fsck", {rpc::Value("/data")});
  double fsck_s = fsck_timer.seconds();
  std::int64_t fsck_files = fsck.at("files").as_int();
  std::int64_t fsck_replicas = fsck.at("replicas_checked").as_int();
  double fsck_mb = fsck_replicas * static_cast<double>(payload.size()) / 1e6;

  // Growing file on the 2-replica cluster, then its convergence.
  rep_client.call("file.mkdir", {rpc::Value("/data/grow")});
  const std::string grow_path = "/data/grow/big.bin";
  Growth rep_growth = measure_growth(rep_client, grow_path, grow_mb);
  util::Stopwatch grow_timer;
  double grow_converge_s = -1;
  for (int spin = 0; spin < 6000; ++spin) {
    if (healthy_count(grow_path) >= 2) {
      grow_converge_s = grow_timer.seconds();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (grow_converge_s < 0) {
    std::printf("error: the grown file never reached two replicas\n");
    return 1;
  }

  std::printf("%-28s %-12s %-12s\n", "path", "write us", "read us");
  std::printf("%-28s %-12.1f %-12.1f\n", "standalone (no hop)",
              solo.write_us, solo.read_us);
  std::printf("%-28s %-12.1f %-12.1f\n", "federated (head redirect)",
              fed.write_us, fed.read_us);
  std::printf("%-28s %-12.1f %-12s\n", "federated, 2 replicas",
              rep_write_us, "-");
  std::printf("# redirect tax: write %.2fx, read %.2fx; fan-out file.ls "
              "%.2f ms over %zu nodes; %llu redirects followed\n",
              fed.write_us / solo.write_us, fed.read_us / solo.read_us,
              ls_ms, head.router()->storage_nodes().size(),
              static_cast<unsigned long long>(routed.redirects_followed()));
  std::printf("# replication: client-visible write %.2fx single-copy; "
              "%d files fully replicated %.2fs after last write\n",
              rep_write_us / fed.write_us, files, converge_s);
  std::printf("# fsck scrub: %lld replicas of %lld files in %.3fs "
              "(%.0f replicas/s, %.1f MB/s hashed)\n",
              static_cast<long long>(fsck_replicas),
              static_cast<long long>(fsck_files), fsck_s,
              fsck_replicas / fsck_s, fsck_mb / fsck_s);
  std::printf("# growing file (%d MiB, 256 KiB appends): per-append ms "
              "first MiB / last MiB: standalone %.2f / %.2f, 2 replicas "
              "%.2f / %.2f (growth %.2fx); 2 replicas %.2fs after the last "
              "append\n",
              grow_mb, solo_growth.first_mib_ms, solo_growth.last_mib_ms,
              rep_growth.first_mib_ms, rep_growth.last_mib_ms,
              rep_growth.last_mib_ms / rep_growth.first_mib_ms,
              grow_converge_s);

  if (json_path) {
    std::string json =
        "{\n  \"bench\": \"federation\",\n"
        "  \"files\": " + std::to_string(files) + ",\n"
        "  \"reads\": " + std::to_string(reads) + ",\n"
        "  \"payload_bytes\": 8192,\n"
        "  \"standalone_us\": {\"file_write\": " +
        std::to_string(solo.write_us) + ", \"file_read\": " +
        std::to_string(solo.read_us) + "},\n"
        "  \"federated_us\": {\"file_write\": " +
        std::to_string(fed.write_us) + ", \"file_read\": " +
        std::to_string(fed.read_us) + ", \"file_ls_fanout_ms\": " +
        std::to_string(ls_ms) + "},\n"
        "  \"redirect_tax\": {\"write\": " +
        std::to_string(fed.write_us / solo.write_us) + ", \"read\": " +
        std::to_string(fed.read_us / solo.read_us) + "},\n"
        "  \"replication\": {\"file_write_us\": " +
        std::to_string(rep_write_us) + ", \"write_tax_vs_single_copy\": " +
        std::to_string(rep_write_us / fed.write_us) +
        ", \"convergence_s\": " + std::to_string(converge_s) + "},\n"
        "  \"fsck\": {\"files\": " + std::to_string(fsck_files) +
        ", \"replicas_checked\": " + std::to_string(fsck_replicas) +
        ", \"seconds\": " + std::to_string(fsck_s) +
        ", \"replicas_per_s\": " + std::to_string(fsck_replicas / fsck_s) +
        ", \"mb_hashed_per_s\": " + std::to_string(fsck_mb / fsck_s) + "},\n"
        "  \"growing_file\": {\"mb\": " + std::to_string(grow_mb) +
        ", \"append_bytes\": 262144, \"standalone_ms\": {\"first_mib\": " +
        std::to_string(solo_growth.first_mib_ms) + ", \"last_mib\": " +
        std::to_string(solo_growth.last_mib_ms) +
        "}, \"replicated_ms\": {\"first_mib\": " +
        std::to_string(rep_growth.first_mib_ms) + ", \"last_mib\": " +
        std::to_string(rep_growth.last_mib_ms) + "}, \"growth\": " +
        std::to_string(rep_growth.last_mib_ms / rep_growth.first_mib_ms) +
        ", \"convergence_s\": " + std::to_string(grow_converge_s) + "},\n"
        "  \"redirects_followed\": " +
        std::to_string(routed.redirects_followed()) + "\n}\n";
    if (!std::strcmp(json_path, "-")) {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out(json_path);
      out << json;
    }
  }

  storage4.stop();
  storage3.stop();
  rep_head.stop();
  storage2.stop();
  storage1.stop();
  head.stop();
  std::filesystem::remove_all(root);
  return 0;
}
