// fed_upload: the federated data path.
//
// Closed loop, one RoutedClient speaking binrpc to a cluster of 1 head +
// 2 storage nodes with placement_replicas=2, all in-process behind one
// discovery station. The client uploads files of 8 MiB each in 256 KiB
// file.write / file.append calls; after each file it reads the previous
// file back in 1 MiB file.reads and checks the md5. When the last file
// is written it waits until every file's file.layout reports 2 healthy
// replicas confirmed with the client's md5, then runs replica.fsck over
// the set. The time goes into federation (ticket mint, redirect, node
// replay, commit notify, replicator copy), the file service and md5;
// the fig4 hot path hardly runs. The 8 MiB size is what makes the growth
// of per-append cost with file size visible.
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "client/routed.hpp"
#include "core/server.hpp"
#include "crypto/md5.hpp"
#include "db/store.hpp"
#include "discovery/discovery_server.hpp"
#include "discovery/station.hpp"
#include "federation/node_ticket.hpp"
#include "federation/router.hpp"
#include "rpc/binding.hpp"
#include "util/clock.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = clarens::core;
namespace rpc = clarens::rpc;
namespace client = clarens::client;
namespace federation = clarens::federation;

namespace {

constexpr std::size_t kFileBytes = 8u << 20;
constexpr std::size_t kChunk = 256u << 10;
constexpr std::size_t kReadChunk = 1u << 20;
constexpr std::size_t kChunksPerMiB = (1u << 20) / kChunk;
// Clusters set up per run: setup_s is their median, and the window is
// split between them.
constexpr int kClusters = 2;
constexpr const char* kSecret = "perfbench-federation-secret";

struct Cluster {
  std::unique_ptr<Pki> pki;
  std::unique_ptr<clarens::discovery::StationServer> station;
  std::unique_ptr<clarens::db::Store> discovery_store;
  std::unique_ptr<clarens::discovery::DiscoveryServer> discovery;
  std::unique_ptr<core::ClarensServer> head;
  std::unique_ptr<core::ClarensServer> nodes[2];
  double ring_ready_ms = 0;

  ~Cluster() {
    for (auto& node : nodes) {
      if (node) node->stop();
    }
    if (head) head->stop();
    if (discovery) discovery->stop();
    if (station) station->stop();
  }
};

core::ClarensConfig node_config(const Pki& pki, const std::string& name,
                                core::NodeRole role,
                                std::uint16_t station_port,
                                const std::string& head_url,
                                const std::string& files) {
  core::ClarensConfig config = paper_config(pki);
  core::FileAcl open;
  open.read.allow_dns = {core::AclSpec::kAnyone};
  open.write.allow_dns = {core::AclSpec::kAnyone};
  config.initial_file_acls = {{"/data", open}};
  // Storage-node commit notifications run the method ACL against the
  // writer identity.
  config.initial_method_acls.push_back(
      {"replica", config.initial_method_acls.front().second});
  config.farm = "benchfarm";
  config.node = name;
  config.node_role = role;
  config.node_ticket_secret = kSecret;
  config.head_url = head_url;
  config.station = {{"127.0.0.1", station_port}};
  // Discovery cadence short enough that the ring forms during set-up.
  config.publish_interval_ms = 100;
  config.federation_refresh_ms = 100;
  if (role == core::NodeRole::Head) config.placement_replicas = 2;
  if (!files.empty()) config.file_roots = {{"/data", files}};
  return config;
}

std::unique_ptr<Cluster> start_cluster(std::uint64_t seed,
                                       const std::string& dir) {
  auto c = std::make_unique<Cluster>();
  c->pki = std::make_unique<Pki>(Pki::create(seed));
  std::filesystem::remove_all(dir);
  c->station = std::make_unique<clarens::discovery::StationServer>();
  c->discovery_store = std::make_unique<clarens::db::Store>();
  c->discovery = std::make_unique<clarens::discovery::DiscoveryServer>(
      *c->discovery_store, /*record_ttl=*/3600);
  c->discovery->subscribe("127.0.0.1", c->station->port());
  Clock::time_point start = Clock::now();
  c->head = std::make_unique<core::ClarensServer>(node_config(
      *c->pki, "head", core::NodeRole::Head, c->station->port(), "", ""));
  c->head->attach_discovery(*c->discovery);
  c->head->start();
  for (int i = 0; i < 2; ++i) {
    std::string files = dir + "/fst" + std::to_string(i);
    std::filesystem::create_directories(files);
    c->nodes[i] = std::make_unique<core::ClarensServer>(
        node_config(*c->pki, "fst" + std::to_string(i),
                    core::NodeRole::Storage, c->station->port(),
                    c->head->url(), files));
    c->nodes[i]->start();
  }
  while (!c->head->router() || c->head->router()->storage_nodes().size() < 2) {
    if (ms_between(start, Clock::now()) > 10000) {
      throw clarens::Error("the head never saw both storage nodes");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  c->ring_ready_ms = ms_between(start, Clock::now());
  return c;
}

/// File `index` of the seed's upload sequence.
std::string file_content(std::uint64_t seed, std::size_t index) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + index + 1);
  std::vector<std::uint8_t> bytes = rng.bytes(kFileBytes);
  return std::string(bytes.begin(), bytes.end());
}

std::string file_path(std::size_t index) {
  return "/data/u" + std::to_string(index) + "/f.bin";
}

std::string dir_of(std::size_t index) {
  return "/data/u" + std::to_string(index);
}

rpc::Value blob(std::string_view bytes) {
  return rpc::Value(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
}

/// What one cluster's share of the run measured.
struct FedRun {
  std::vector<double> upload_ms;     // per write/append call
  double upload_s = 0;               // summed upload call time
  double read_s = 0;                 // summed read-back time
  std::uint64_t read_bytes = 0;
  double window_s = 0;               // the upload/read-back loop
  std::uint64_t calls = 0;           // every client RPC in the loop
  std::size_t files = 0;
  double replicated_s = 0;           // first write -> all replicated
  double fsck_s = 0;
  double fsck_bytes = 0;
  std::uint64_t redirects = 0;
  std::uint64_t retries = 0;
  std::uint64_t requests = 0;        // served by head + storage nodes
  std::uint64_t head_store_ops = 0;
  clarens::federation::ReplicatorStats stats_before, stats_after;
  std::size_t queue_depth_max = 0;
  double ring_ready_ms = 0;
  double setup_s = 0;
  double rss_mb = 0;
  std::vector<double> leg_first_mib, leg_last_mib;
};

/// The upload loop against one cluster. Untraced calls go through
/// RoutedClient; traced calls make the head-mint leg and the ticketed
/// node-replay leg as two explicit ClarensClient calls, and replay each
/// operation's inputs through the layers.
class Uploader {
 public:
  Uploader(Cluster& c, std::uint64_t seed, Report& report, SpanLog& log,
           FedRun& out, const std::string& scratch_dir)
      : c_(c), seed_(seed), report_(report), log_(log), out_(out),
        routed_(c.head->url(),
                client_options(*c.pki, 0, rpc::Protocol::Binary), 10, 50),
        node_base_(client_options(*c.pki, 0, rpc::Protocol::Binary)) {
    routed_.authenticate();
    if (log_.on()) scratch_ = std::make_unique<ScratchCore>(scratch_dir);
  }

  /// The upload/read-back loop, for `seconds`.
  void run(double seconds) {
    start_ = Clock::now();
    window_ms_ = seconds * 1000.0;
    std::string previous;
    while (ms_between(start_, Clock::now()) < window_ms_) {
      std::string content = file_content(seed_, out_.files);
      upload(out_.files, content);
      if (out_.files > 0) read_back(out_.files - 1, previous);
      md5s_.push_back(md5_hex(content));
      previous = std::move(content);
      ++out_.files;
    }
    read_back(out_.files - 1, previous);
    out_.window_s = ms_between(start_, Clock::now()) / 1000.0;
  }

  /// After run(): wait until every file is replicated, then scrub them.
  void confirm_replicas() {
    wait_replicated();
    fsck();
    out_.redirects += routed_.redirects_followed();
    out_.retries += routed_.failures_reported();
  }

 private:
  rpc::Value call(const std::string& method,
                  const std::vector<rpc::Value>& params, std::uint64_t op,
                  int root) {
    ++out_.calls;
    if (!log_.on()) return routed_.call(method, params);
    int span = log_.open(op, "client.call", root);
    rpc::Value result = log_.time(op, "federation.head_leg", span, [&] {
      return routed_.head().call(method, params);
    });
    if (rpc::RedirectResult::is_redirect(result)) {
      ++out_.redirects;
      rpc::RedirectResult redirect = rpc::RedirectResult::from_value(result);
      last_ticket_ = redirect.ticket;
      last_scope_ = redirect.scope;
      client::ClarensClient& node = node_client(redirect.url);
      node.set_header("X-Clarens-Node-Ticket", redirect.ticket);
      Clock::time_point leg_start = Clock::now();
      result = log_.time(op, "federation.node_leg", span,
                         [&] { return node.call(method, params); });
      last_node_leg_ms_ = ms_between(leg_start, Clock::now());
    }
    log_.close(span);
    return result;
  }

  client::ClarensClient& node_client(const std::string& url) {
    auto it = nodes_.find(url);
    if (it == nodes_.end()) {
      client::PeerEndpoint endpoint = client::PeerEndpoint::parse(url);
      client::ClientOptions options = node_base_;
      options.host = endpoint.host;
      options.port = endpoint.port;
      it = nodes_.emplace(url, std::make_unique<client::ClarensClient>(options))
               .first;
      it->second->connect();
    }
    return *it->second;
  }

  void sample_queue() {
    out_.queue_depth_max = std::max(
        out_.queue_depth_max, c_.head->replicator()->stats().queue_depth);
  }

  void upload(std::size_t index, const std::string& content) {
    ++report_.attempted;
    std::uint64_t op = ++op_;
    int root = log_.open(op, "op");
    try {
      call("file.mkdir", {rpc::Value(dir_of(index))}, op, root);
    } catch (const std::exception& ex) {
      report_.fail("file.mkdir: " + std::string(ex.what()));
    }
    log_.close(root);
    if (log_.on()) scratch_->files.mkdir(dir_of(index), c_.pki->user.dn());
    const std::string path = file_path(index);
    for (std::size_t offset = 0; offset < content.size(); offset += kChunk) {
      std::string_view chunk(content.data() + offset, kChunk);
      const char* method = offset == 0 ? "file.write" : "file.append";
      std::vector<rpc::Value> params = {rpc::Value(path), blob(chunk)};
      ++report_.attempted;
      op = ++op_;
      root = log_.open(op, "op");
      Clock::time_point sent = Clock::now();
      bool ok = false;
      try {
        ok = call(method, params, op, root).as_bool();
        if (!ok) report_.fail(std::string(method) + " returned false");
      } catch (const std::exception& ex) {
        report_.fail(std::string(method) + ": " + ex.what());
      }
      double ms = ms_between(sent, Clock::now());
      // A failed call counts as missing any latency limit.
      out_.upload_ms.push_back(ok ? ms : window_ms_);
      out_.upload_s += ms / 1000.0;
      if (ok && log_.on()) {
        std::size_t chunk_index = offset / kChunk;
        if (chunk_index < kChunksPerMiB) {
          out_.leg_first_mib.push_back(last_node_leg_ms_);
        } else if (chunk_index >= kFileBytes / kChunk - kChunksPerMiB) {
          out_.leg_last_mib.push_back(last_node_leg_ms_);
        }
        replay_upload(op, root, method, params, content, offset);
      }
      log_.close(root);
      sample_queue();
    }
  }

  void read_back(std::size_t index, const std::string& content) {
    const std::string path = file_path(index);
    std::string got;
    Clock::time_point start = Clock::now();
    for (std::size_t offset = 0; offset < content.size();
         offset += kReadChunk) {
      ++report_.attempted;
      std::uint64_t op = ++op_;
      int root = log_.open(op, "op");
      std::vector<rpc::Value> params = {
          rpc::Value(path), rpc::Value(static_cast<std::int64_t>(offset)),
          rpc::Value(static_cast<std::int64_t>(kReadChunk))};
      rpc::Value result;
      try {
        result = call("file.read", params, op, root);
        const std::vector<std::uint8_t>& bytes = result.as_binary();
        got.append(bytes.begin(), bytes.end());
      } catch (const std::exception& ex) {
        report_.fail("file.read of " + path + ": " + ex.what());
        log_.close(root);
        return;
      }
      if (log_.on()) replay_read(op, root, params, result);
      log_.close(root);
    }
    out_.read_s += ms_between(start, Clock::now()) / 1000.0;
    out_.read_bytes += got.size();
    if (md5_hex(got) != md5_hex(content)) {
      report_.fail("read-back md5 of " + path + " differs from the upload");
    }
  }

  /// Replicas of every file: 2 healthy, the layout confirmed and carrying
  /// the client's md5.
  void wait_replicated() {
    for (std::size_t i = 0; i < out_.files;) {
      try {
        if (replicated(i)) {
          ++i;
          continue;
        }
      } catch (const std::exception& ex) {
        report_.fail("file.layout of " + file_path(i) + ": " + ex.what());
        return;
      }
      if (ms_between(start_, Clock::now()) > 60000) {
        report_.fail("replication of " + file_path(i) + " never completed");
        return;
      }
      sample_queue();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    out_.replicated_s = ms_between(start_, Clock::now()) / 1000.0;
  }

  bool replicated(std::size_t index) {
    rpc::Value layout =
        routed_.call("file.layout", {rpc::Value(file_path(index))});
    if (!layout.at("confirmed").as_bool()) return false;
    if (layout.at("checksum").as_string() != md5s_[index]) return false;
    int healthy = 0;
    for (const rpc::Value& replica : layout.at("replicas").as_array()) {
      if (replica.at("state").as_string() == "healthy") ++healthy;
    }
    return healthy == 2;
  }

  void fsck() {
    ++report_.attempted;
    Clock::time_point start = Clock::now();
    try {
      rpc::Value report =
          routed_.call("replica.fsck", {rpc::Value("/data")});
      out_.fsck_s = ms_between(start, Clock::now()) / 1000.0;
      std::int64_t checked = report.at("replicas_checked").as_int();
      out_.fsck_bytes = static_cast<double>(checked) * kFileBytes;
      if (report.at("mismatched").as_int() != 0 ||
          report.at("missing").as_int() != 0 ||
          report.at("failed").as_int() != 0 ||
          checked != static_cast<std::int64_t>(2 * out_.files)) {
        report_.fail("replica.fsck found damage: " + report.debug_string());
      }
    } catch (const std::exception& ex) {
      report_.fail(std::string("replica.fsck: ") + ex.what());
    }
  }

  void replay_upload(std::uint64_t op, int root, const char* method,
                     const std::vector<rpc::Value>& params,
                     const std::string& content, std::size_t offset) {
    rpc::Request request;
    request.method = method;
    request.params = params;
    request.id = rpc::Value(static_cast<std::int64_t>(op));
    const std::string wire = request_wire(
        rpc::Protocol::Binary, request, "", "X-Clarens-Node-Ticket",
        last_ticket_);
    replay_request_path(log_, op, root, rpc::Protocol::Binary, wire,
                        rpc::Response::success(rpc::Value(true)));
    const clarens::pki::DistinguishedName& dn = c_.pki->user.dn();
    log_.time(op, "core.session_lookup", root, [&] {
      return c_.head->sessions().lookup_shared(routed_.head().session());
    });
    log_.time(op, "core.acl_check", root,
              [&] { return c_.head->acl().check_method(method, dn); });
    federation::NodeTicket ticket;
    ticket.dn = dn.str();
    ticket.scope = last_scope_;
    ticket.write = true;
    ticket.expires = clarens::util::unix_now() + 300;
    std::string token = log_.time(op, "federation.ticket_mint", root,
                                  [&] { return ticket.mint(kSecret); });
    log_.time(op, "federation.ticket_verify", root, [&] {
      return federation::NodeTicket::verify(kSecret, token,
                                            clarens::util::unix_now());
    });
    const std::string path = file_path(out_.files);
    std::span<const std::uint8_t> chunk(
        reinterpret_cast<const std::uint8_t*>(content.data()) + offset,
        kChunk);
    if (offset == 0) {
      log_.time(op, "core.file_write", root,
                [&] { scratch_->files.write(path, chunk, dn); });
    } else {
      log_.time(op, "core.file_append", root,
                [&] { scratch_->files.append(path, chunk, dn); });
    }
    // The storage node re-hashes the whole file after every write to
    // report the commit to the head.
    std::size_t size = offset + kChunk;
    log_.time(op, "crypto.md5", root, [&] {
      return clarens::crypto::Md5::hash(std::string_view(content.data(), size));
    }, size);
  }

  void replay_read(std::uint64_t op, int root,
                   const std::vector<rpc::Value>& params,
                   const rpc::Value& result) {
    rpc::Request request;
    request.method = "file.read";
    request.params = params;
    request.id = rpc::Value(static_cast<std::int64_t>(op));
    const std::string wire = request_wire(
        rpc::Protocol::Binary, request, "", "X-Clarens-Node-Ticket",
        last_ticket_);
    replay_request_path(log_, op, root, rpc::Protocol::Binary, wire,
                        rpc::Response::success(result));
    log_.time(op, "core.file_read", root, [&] {
      return scratch_->files.read(params[0].as_string(), params[1].as_int(),
                                  params[2].as_int(), c_.pki->user.dn());
    });
  }

  Cluster& c_;
  std::uint64_t seed_;
  Report& report_;
  SpanLog& log_;
  FedRun& out_;
  client::RoutedClient routed_;
  client::ClientOptions node_base_;
  std::map<std::string, std::unique_ptr<client::ClarensClient>> nodes_;
  std::unique_ptr<ScratchCore> scratch_;
  std::vector<std::string> md5s_;
  std::string last_ticket_;
  std::string last_scope_;
  double last_node_leg_ms_ = 0;
  std::uint64_t op_ = 0;
  Clock::time_point start_;  // the first write
  double window_ms_ = 0;     // the upload loop's length
};

std::uint64_t requests_served(Cluster& c) {
  return c.head->requests_served() + c.nodes[0]->requests_served() +
         c.nodes[1]->requests_served();
}

}  // namespace

void fed_inputs(std::uint64_t seed, std::string& stream) {
  stream += user_dn(seed) + "\n";
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string content = file_content(seed, i);
    for (std::size_t offset = 0; offset < content.size(); offset += kChunk) {
      rpc::Request request;
      request.method = offset == 0 ? "file.write" : "file.append";
      request.params = {rpc::Value(file_path(i)),
                        blob(std::string_view(content).substr(offset, kChunk))};
      stream += rpc::serialize_request(rpc::Protocol::Binary, request);
    }
  }
}

void run_fed(const Args& args, Report& report) {
  std::vector<FedRun> runs(kClusters);
  SpanLog quiet(false);
  SpanLog traced(true);
  for (int i = 0; i < kClusters; ++i) {
    FedRun& run = runs[static_cast<std::size_t>(i)];
    const std::string dir = args.work_dir + "/fed";
    reset_peak_rss();
    Clock::time_point setup_start = Clock::now();
    std::unique_ptr<Cluster> c = start_cluster(args.seed, dir);
    bool trace = args.trace && i >= kClusters / 2;
    Uploader uploader(*c, args.seed, report, trace ? traced : quiet, run,
                      dir + "/scratch");
    run.setup_s = ms_between(setup_start, Clock::now()) / 1000.0;
    run.ring_ready_ms = c->ring_ready_ms;
    run.stats_before = c->head->replicator()->stats();
    std::uint64_t requests_before = requests_served(*c);
    std::uint64_t store_before = c->head->store().operations();
    uploader.run(args.seconds / kClusters);
    // Taken before the harness's own replication polling and fsck.
    run.requests = requests_served(*c) - requests_before;
    run.head_store_ops = c->head->store().operations() - store_before;
    uploader.confirm_replicas();
    run.stats_after = c->head->replicator()->stats();
    run.rss_mb = peak_rss_mb();
    c.reset();
    std::filesystem::remove_all(dir);
  }

  // End-to-end figures come from the untraced clusters only.
  std::vector<double> setups, rss_mb, upload_ms;
  double upload_s = 0, read_s = 0, window_s = 0, replicated_s = 0;
  double fsck_s = 0, fsck_bytes = 0, read_bytes = 0;
  std::uint64_t calls = 0, files = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const FedRun& run = runs[i];
    setups.push_back(run.setup_s);
    rss_mb.push_back(run.rss_mb);
    if (args.trace && i >= kClusters / 2) continue;
    upload_ms.insert(upload_ms.end(), run.upload_ms.begin(),
                     run.upload_ms.end());
    upload_s += run.upload_s;
    read_s += run.read_s;
    read_bytes += static_cast<double>(run.read_bytes);
    window_s += run.window_s;
    replicated_s += run.replicated_s;
    fsck_s += run.fsck_s;
    fsck_bytes += run.fsck_bytes;
    calls += run.calls;
    files += run.files;
  }
  const double user_mb = static_cast<double>(files) * kFileBytes / 1e6;
  const double upload_mb_s = user_mb / upload_s;
  const double read_mb_s = read_bytes / 1e6 / read_s;
  const double replicated_mb_s = user_mb / replicated_s;
  const double fsck_mb_s = fsck_bytes / 1e6 / fsck_s;
  const double p50 = quantile(upload_ms, 0.50);
  const double p99 = quantile(upload_ms, 0.99);
  report.set("setup_s", median(setups));
  report.set("calls_per_s", static_cast<double>(calls) / window_s);
  report.set("call_p50_ms", p50);
  report.set("call_p99_ms", p99);
  report.set("peak_rss_mb", median(rss_mb));
  report.note("metric upload_mb_s " + format_double(upload_mb_s) + " MB/s");
  report.note("metric append_p50_ms " + format_double(p50) + " ms");
  report.note("metric append_p99_ms " + format_double(p99) + " ms");
  report.note("metric fed_read_mb_s " + format_double(read_mb_s) + " MB/s");
  report.note("metric replicated_mb_s " + format_double(replicated_mb_s) +
              " MB/s");
  report.note("metric fsck_mb_s " + format_double(fsck_mb_s) + " MB/s");
  report.note("fed_upload files=" + std::to_string(files) + " upload_calls=" +
              std::to_string(upload_ms.size()));

  if (args.trace) {
    zero_layer_metrics(report);
    std::uint64_t all_calls = 0, requests = 0, store_ops = 0, redirects = 0;
    std::uint64_t retries = 0, commits = 0, copied = 0, retried = 0;
    std::size_t queue_max = 0, appends = 0;
    double user_bytes = 0;
    std::vector<double> ring, first, last;
    for (const FedRun& run : runs) {
      all_calls += run.calls;
      requests += run.requests;
      store_ops += run.head_store_ops;
      redirects += run.redirects;
      retries += run.retries;
      commits += run.stats_after.commits - run.stats_before.commits;
      copied += run.stats_after.bytes_copied - run.stats_before.bytes_copied;
      retried += run.stats_after.retried - run.stats_before.retried;
      queue_max = std::max(queue_max, run.queue_depth_max);
      appends += run.upload_ms.size();
      user_bytes += static_cast<double>(run.files) * kFileBytes;
      ring.push_back(run.ring_ready_ms);
      first.insert(first.end(), run.leg_first_mib.begin(),
                   run.leg_first_mib.end());
      last.insert(last.end(), run.leg_last_mib.begin(), run.leg_last_mib.end());
    }
    report.set("http.requests_per_op", double(requests) / double(all_calls));
    report.set("http.parse_us", median_us(traced, "http.parse"));
    report.set("rpc.binrpc.parse_us", median_us(traced, "rpc.binrpc.parse"));
    report.set("rpc.binrpc.serialize_us",
               median_us(traced, "rpc.binrpc.serialize"));
    report.set("core.session_lookup_us",
               median_us(traced, "core.session_lookup"));
    report.set("core.acl_check_us", median_us(traced, "core.acl_check"));
    report.set("core.file_read_us", median_us(traced, "core.file_read"));
    report.set("core.file_append_us", median_us(traced, "core.file_append"));
    report.set("db.ops_per_op", double(store_ops) / double(all_calls));
    report.set("crypto.md5_mb_s", mb_per_s(traced, "crypto.md5"));
    report.set("federation.head_leg_ms",
               median_us(traced, "federation.head_leg") / 1000);
    report.set("federation.node_leg_ms",
               median_us(traced, "federation.node_leg") / 1000);
    report.set("federation.node_leg_growth",
               first.empty() ? 0 : median(last) / median(first));
    report.set("federation.ticket_mint_us",
               median_us(traced, "federation.ticket_mint"));
    report.set("federation.ticket_verify_us",
               median_us(traced, "federation.ticket_verify"));
    report.set("federation.commits_per_append",
               double(commits) / double(appends));
    report.set("federation.head_bytes_per_user_byte",
               double(copied) / user_bytes);
    report.set("federation.retried", double(retried));
    report.set("federation.queue_depth_max", double(queue_max));
    report.set("federation.replicated_mb_s", replicated_mb_s);
    report.set("federation.fsck_mb_s", fsck_mb_s);
    report.set("client.upload_mb_s", upload_mb_s);
    report.set("client.read_mb_s", read_mb_s);
    report.set("client.redirects_per_op",
               double(redirects) / double(all_calls));
    report.set("client.retries", double(retries));
    report.set("discovery.ring_ready_ms", median(ring));
    report.set("unattributed_share", traced.unattributed_share("client.call"));
    std::vector<double> traced_upload = runs.back().upload_ms;
    report.set("trace.overhead_share", quantile(traced_upload, 0.5) / p50 - 1);
    traced.dump(args.work_dir + "/spans-fed_upload.tsv");
  }
}

}  // namespace perfbench
