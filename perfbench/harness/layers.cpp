#include "layers.hpp"

#include <filesystem>

#include "http/parser.hpp"
#include "util/buffer.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace rpc = clarens::rpc;
namespace tls = clarens::tls;
namespace util = clarens::util;

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"calls_per_s", "1/s"},
    {"call_p50_ms", "ms"},
    {"call_p99_ms", "ms"},
};

const std::vector<MetricDef> kPerLayer = {
    {"http.requests_per_op", "count"},
    {"http.inline_share", "share"},
    {"http.parse_us", "us"},
    {"rpc.xmlrpc.parse_us", "us"},
    {"rpc.xmlrpc.serialize_us", "us"},
    {"rpc.soap.parse_us", "us"},
    {"rpc.soap.serialize_us", "us"},
    {"rpc.jsonrpc.parse_us", "us"},
    {"rpc.jsonrpc.serialize_us", "us"},
    {"rpc.binrpc.parse_us", "us"},
    {"rpc.binrpc.serialize_us", "us"},
    {"core.session_lookup_us", "us"},
    {"core.acl_check_us", "us"},
    {"core.session_create_us", "us"},
    {"core.file_read_us", "us"},
    {"core.file_append_us", "us"},
    {"db.ops_per_op", "count"},
    {"db.put_us", "us"},
    {"tls.seal_us_per_kib", "us/KiB"},
    {"tls.open_us_per_kib", "us/KiB"},
    {"tls.handshake_ms", "ms"},
    {"pki.verify_us", "us"},
    {"crypto.md5_mb_s", "MB/s"},
    {"federation.head_leg_ms", "ms"},
    {"federation.node_leg_ms", "ms"},
    {"federation.node_leg_growth", "ratio"},
    {"federation.ticket_mint_us", "us"},
    {"federation.ticket_verify_us", "us"},
    {"federation.commits_per_append", "count"},
    {"federation.head_bytes_per_user_byte", "ratio"},
    {"federation.retried", "count"},
    {"federation.queue_depth_max", "count"},
    {"federation.replicated_mb_s", "MB/s"},
    {"federation.fsck_mb_s", "MB/s"},
    {"client.upload_mb_s", "MB/s"},
    {"client.read_mb_s", "MB/s"},
    {"client.redirects_per_op", "count"},
    {"client.retries", "count"},
    {"discovery.ring_ready_ms", "ms"},
    {"unattributed_share", "share"},
    {"trace.overhead_share", "share"},
};

void zero_layer_metrics(Report& report) {
  for (const MetricDef& def : kPerLayer) report.set(def.name, 0);
}

std::string request_wire(rpc::Protocol protocol, const rpc::Request& request,
                         const std::string& session,
                         const std::string& extra_header_name,
                         const std::string& extra_header_value) {
  clarens::http::Request http;
  http.method = "POST";
  http.target = "/clarens";
  http.headers.set("Content-Type", rpc::content_type(protocol));
  http.headers.set("Host", "127.0.0.1");
  if (!session.empty()) http.headers.set("X-Clarens-Session", session);
  if (!extra_header_name.empty()) {
    http.headers.set(extra_header_name, extra_header_value);
  }
  http.body = rpc::serialize_request(protocol, request);
  return http.serialize();
}

std::string_view parse_span(rpc::Protocol protocol) {
  switch (protocol) {
    case rpc::Protocol::XmlRpc: return "rpc.xmlrpc.parse";
    case rpc::Protocol::Soap: return "rpc.soap.parse";
    case rpc::Protocol::JsonRpc: return "rpc.jsonrpc.parse";
    case rpc::Protocol::Binary: return "rpc.binrpc.parse";
  }
  return "rpc.unknown.parse";
}

std::string_view serialize_span(rpc::Protocol protocol) {
  switch (protocol) {
    case rpc::Protocol::XmlRpc: return "rpc.xmlrpc.serialize";
    case rpc::Protocol::Soap: return "rpc.soap.serialize";
    case rpc::Protocol::JsonRpc: return "rpc.jsonrpc.serialize";
    case rpc::Protocol::Binary: return "rpc.binrpc.serialize";
  }
  return "rpc.unknown.serialize";
}

void replay_request_path(SpanLog& log, std::uint64_t op, int root,
                         rpc::Protocol protocol, const std::string& wire,
                         const rpc::Response& response) {
  std::string body = log.time(op, "http.parse", root, [&] {
    clarens::http::RequestParser parser;
    parser.feed(std::string_view(wire));
    std::optional<clarens::http::Request> request = parser.next();
    if (!request) throw clarens::ParseError("replayed request incomplete");
    return std::move(request->body);
  });
  log.time(op, parse_span(protocol), root,
           [&] { return rpc::parse_request(protocol, body); });
  log.time(op, serialize_span(protocol), root,
           [&] { return rpc::serialize_response(protocol, response); });
}

TlsPair::TlsPair(const Pki& pki) {
  client_config_.credential = pki.user;
  client_config_.trust = &pki.trust;
  server_config_.credential = pki.server;
  server_config_.trust = &pki.trust;
  handshake();
}

namespace {

void deliver(util::Buffer& wire, tls::Engine& to, util::Buffer& reply) {
  if (wire.empty()) return;
  to.feed(wire.peek(), reply);
  wire.clear();
}

}  // namespace

void TlsPair::handshake() {
  client_ = std::make_unique<tls::Engine>(tls::Engine::Role::Client,
                                          client_config_);
  server_ = std::make_unique<tls::Engine>(tls::Engine::Role::Server,
                                          server_config_);
  util::Buffer to_server;
  util::Buffer to_client;
  client_->start(to_server);
  for (int round = 0;
       round < 16 && !(client_->handshake_done() && server_->handshake_done());
       ++round) {
    deliver(to_server, *server_, to_client);
    deliver(to_client, *client_, to_server);
  }
  if (!client_->handshake_done() || !server_->handshake_done()) {
    throw clarens::Error("in-memory handshake did not converge");
  }
}

void TlsPair::seal_and_open(SpanLog& log, std::uint64_t op, int root,
                            std::string_view bytes) {
  util::Buffer sealed;
  log.time(op, "tls.seal", root, [&] {
    std::string_view chunks[] = {bytes};
    client_->encrypt(chunks, sealed);
  }, bytes.size());
  util::Buffer ignored;
  std::vector<std::uint8_t> plain(bytes.size());
  log.time(op, "tls.open", root, [&] {
    server_->feed(sealed.peek(), ignored);
    std::size_t got = 0;
    while (server_->plain_available() > 0) {
      got += server_->read_plain(
          std::span<std::uint8_t>(plain.data() + got, plain.size() - got));
    }
    return got;
  }, bytes.size());
}

ScratchCore::ScratchCore(const std::string& dir)
    : store((std::filesystem::create_directories(dir + "/data"), dir + "/db")),
      vo(store, {}),
      acl(store, vo, /*default_allow=*/true),
      files(acl),
      sessions(store) {
  files.add_root("/data", dir + "/data");
}

double median_us(const SpanLog& log, std::string_view name) {
  std::vector<double> ms = log.durations_ms(name);
  return ms.empty() ? 0 : median(ms) * 1000.0;
}

double us_per_kib(const SpanLog& log, std::string_view name) {
  auto [us, bytes] = log.total_us_and_bytes(name);
  return bytes > 0 ? us / (bytes / 1024.0) : 0;
}

double mb_per_s(const SpanLog& log, std::string_view name) {
  auto [us, bytes] = log.total_us_and_bytes(name);
  return us > 0 ? bytes / us : 0;  // bytes per microsecond == MB/s
}

}  // namespace perfbench
