// fig4_rpc: the paper's Figure 4 call.
//
// Closed loop: 4 keep-alive plaintext connections driven from one epoll
// thread, each sending an authenticated XML-RPC system.list_methods to a
// standalone in-memory server, one call at a time. The time goes into
// net, http, the xmlrpc codec, the session/ACL caches and dispatch; db,
// tls, federation and the file service stay idle.
//
// The measured window is split into rounds, each on fresh connections,
// and calls_per_s is the median round rate, so one slow stretch of a
// shared host does not decide the run.
#include <array>
#include <memory>
#include <optional>


#include "client/client.hpp"
#include "core/server.hpp"
#include "http/parser.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "rpc/protocol.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = clarens::core;
namespace rpc = clarens::rpc;
namespace net = clarens::net;
namespace http = clarens::http;

namespace {

// The window is spread over several servers, each set up afresh (the
// set-ups are what setup_s times): a run must not hang on one server's
// memory layout.
constexpr int kServers = 5;
constexpr int kRoundsPerServer = 2;
constexpr double kWarmupSeconds = 0.5;  // lets the vCPUs reach speed
constexpr std::uint64_t kReplayEvery = 16;  // traced calls replayed

struct Fig4Server {
  std::unique_ptr<Pki> pki;
  std::unique_ptr<core::ClarensServer> server;
  std::string session;
  std::size_t methods = 0;
};

Fig4Server start_server(std::uint64_t seed) {
  Fig4Server s;
  s.pki = std::make_unique<Pki>(Pki::create(seed));
  core::ClarensConfig config = paper_config(*s.pki);
  s.server = std::make_unique<core::ClarensServer>(std::move(config));
  s.server->start();
  clarens::client::ClientOptions options;
  options.port = s.server->port();
  options.credential = s.pki->user;
  options.trust = &s.pki->trust;
  clarens::client::ClarensClient login(options);
  login.connect();
  s.session = login.authenticate();
  s.methods = login.call("system.list_methods").as_array().size();
  return s;
}

/// Does `body` carry a list_methods result of exactly `expected` names?
bool valid_listing(std::string_view body, std::size_t expected) {
  try {
    rpc::Response response = rpc::parse_response(rpc::Protocol::XmlRpc, body);
    if (response.is_fault) return false;
    const rpc::Array& names = response.result.as_array();
    if (names.size() != expected) return false;
    for (const rpc::Value& name : names) {
      if (name.type() != rpc::Value::Type::String) return false;
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

struct Conn {
  net::TcpConnection tcp;
  http::ResponseParser parser;
  std::size_t write_offset = 0;
  bool busy = false;
  Clock::time_point sent;
  std::uint64_t op = 0;
  int root = -1;
  int call = -1;
};

struct RoundResult {
  std::uint64_t calls = 0;
  double seconds = 0;
};

class ClosedLoop {
 public:
  /// `ops` numbers operations across every loop of the run.
  ClosedLoop(Fig4Server& s, const std::string& wire, Report& report,
             SpanLog& log, LatencyHistogram& latencies_ms,
             std::uint64_t& ops)
      : s_(s), wire_(wire), report_(report), log_(log),
        latencies_ms_(latencies_ms), ops_(ops) {}

  RoundResult round(int connections, double seconds) {
    net::Reactor reactor;
    std::vector<std::unique_ptr<Conn>> conns;
    for (int i = 0; i < connections; ++i) {
      auto conn = std::make_unique<Conn>();
      conn->tcp = net::TcpConnection::connect("127.0.0.1", s_.server->port());
      conn->tcp.set_nonblocking(true);
      conn->tcp.set_nodelay(true);
      conns.push_back(std::move(conn));
    }
    reactor_ = &reactor;
    window_ms_ = seconds * 1000.0;
    Clock::time_point start = Clock::now();
    deadline_ = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
    std::uint64_t before = completed_;
    for (auto& conn : conns) {
      Conn* raw = conn.get();
      reactor.add(raw->tcp.fd(), net::Reactor::kRead,
                  [this, raw](std::uint32_t) { pump(*raw); });
      pump(*raw);
    }
    auto busy = [&] {
      for (auto& conn : conns) {
        if (conn->busy) return true;
      }
      return false;
    };
    // Spin like AsyncCallDriver does: a sleeping client thread adds its
    // own wakeup latency to every call and makes the rate depend on how
    // the host schedules an idle vCPU.
    while (busy()) reactor.poll(0);
    RoundResult result;
    result.calls = completed_ - before;
    result.seconds = ms_between(start, Clock::now()) / 1000.0;
    for (auto& conn : conns) reactor.remove(conn->tcp.fd());
    reactor_ = nullptr;
    return result;
  }

 private:
  void pump(Conn& conn) {
    for (;;) {
      if (!conn.busy) {
        if (Clock::now() >= deadline_) return;
        conn.busy = true;
        conn.write_offset = 0;
        conn.op = ++ops_;
        ++report_.attempted;
        conn.sent = Clock::now();
        conn.root = log_.open(conn.op, "op");
        conn.call = log_.open(conn.op, "client.call", conn.root);
      }
      while (conn.write_offset < wire_.size()) {
        std::size_t n = conn.tcp.write_some(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(wire_.data()) +
                conn.write_offset,
            wire_.size() - conn.write_offset));
        if (n == 0) {
          reactor_->modify(conn.tcp.fd(),
                           net::Reactor::kRead | net::Reactor::kWrite);
          return;
        }
        conn.write_offset += n;
      }
      for (;;) {
        if (std::optional<http::Response> response = conn.parser.next()) {
          finish(conn, *response);
          break;
        }
        std::array<std::uint8_t, 64 * 1024> chunk;
        std::optional<std::size_t> n = conn.tcp.read_some(chunk);
        if (!n) {
          reactor_->modify(conn.tcp.fd(), net::Reactor::kRead);
          return;
        }
        if (*n == 0) {
          throw clarens::SystemError("server closed a benchmark connection");
        }
        conn.parser.feed(std::span<const std::uint8_t>(chunk.data(), *n));
      }
    }
  }

  void finish(Conn& conn, const http::Response& response) {
    Clock::time_point now = Clock::now();
    log_.close(conn.call);
    conn.busy = false;
    ++completed_;
    // The listing is the same bytes every time: the first response is
    // parsed and checked in full, later ones must match it byte for byte
    // (or pass the full check themselves).
    bool ok = response.status == 200;
    if (ok && response.body != expected_body_) {
      ok = valid_listing(response.body, s_.server->registry().size());
      if (ok && expected_body_.empty()) expected_body_ = response.body;
    }
    // A failed call counts as missing any latency limit.
    latencies_ms_.add(ok ? ms_between(conn.sent, now) : window_ms_);
    if (!ok) report_.fail("system.list_methods returned a wrong listing");
    if (log_.on() && conn.op % kReplayEvery == 0) replay(conn, response);
    log_.close(conn.root);
  }

  void replay(const Conn& conn, const http::Response& response) {
    if (!replay_response_) {
      replay_response_ = rpc::parse_response(rpc::Protocol::XmlRpc,
                                             response.body);
    }
    replay_request_path(log_, conn.op, conn.root, rpc::Protocol::XmlRpc,
                        wire_, *replay_response_);
    auto session = log_.time(conn.op, "core.session_lookup", conn.root, [&] {
      return s_.server->sessions().lookup_shared(s_.session);
    });
    log_.time(conn.op, "core.acl_check", conn.root, [&] {
      return s_.server->acl().check_method("system.list_methods",
                                           session->identity_dn);
    });
    log_.time(conn.op, "core.dispatch", conn.root,
              [&] { return s_.server->registry().list(); });
  }

  Fig4Server& s_;
  const std::string& wire_;
  Report& report_;
  SpanLog& log_;
  LatencyHistogram& latencies_ms_;
  net::Reactor* reactor_ = nullptr;
  Clock::time_point deadline_;
  double window_ms_ = 0;  // the round's length
  std::uint64_t& ops_;
  std::uint64_t completed_ = 0;
  std::string expected_body_;
  std::optional<rpc::Response> replay_response_;
};

rpc::Request fig4_request() {
  rpc::Request request;
  request.method = "system.list_methods";
  return request;
}

}  // namespace

// The call is the same for every seed; the seed names the caller.
void fig4_inputs(std::uint64_t seed, std::string& stream) {
  stream += user_dn(seed) + "\n";
  stream += rpc::serialize_request(rpc::Protocol::XmlRpc, fig4_request());
}

void run_fig4(const Args& args, Report& report) {
  // Untraced rounds give the end-to-end numbers; with --trace 1 the
  // second half of the rounds runs with spans on, and the difference in
  // median call latency between the halves is the tracing overhead.
  SpanLog quiet(false);
  SpanLog traced(true);
  // One latency vector per round; percentiles are medians over rounds.
  std::vector<LatencyHistogram> latencies, traced_latencies;
  LatencyHistogram warmup_latencies;
  std::vector<double> setup_seconds, round_rates, rss_mb;
  std::uint64_t served = 0, inlined = 0, store_ops = 0;
  std::size_t methods = 0;
  std::uint64_t ops = 0;
  int round_index = 0;
  for (int instance = 0; instance < kServers; ++instance) {
    pin_current_thread(server_cpus());
    reset_peak_rss();
    Clock::time_point setup_start = Clock::now();
    Fig4Server s = start_server(args.seed);
    setup_seconds.push_back(ms_between(setup_start, Clock::now()) / 1000.0);
    pin_current_thread(client_cpus());
    methods = s.methods;
    const std::string wire = request_wire(
        rpc::Protocol::XmlRpc, fig4_request(), s.session);
    std::uint64_t served_before = s.server->requests_served();
    std::uint64_t inlined_before = s.server->requests_inlined();
    std::uint64_t store_before = s.server->store().operations();
    ClosedLoop(s, wire, report, quiet, warmup_latencies, ops)
        .round(args.connections, kWarmupSeconds);
    for (int r = 0; r < kRoundsPerServer; ++r, ++round_index) {
      bool trace_round =
          args.trace && round_index >= kServers * kRoundsPerServer / 2;
      std::vector<LatencyHistogram>& into =
          trace_round ? traced_latencies : latencies;
      into.emplace_back();
      RoundResult round =
          ClosedLoop(s, wire, report, trace_round ? traced : quiet,
                     into.back(), ops)
              .round(args.connections,
                     args.seconds / (kServers * kRoundsPerServer));
      if (!trace_round) round_rates.push_back(round.calls / round.seconds);
    }
    rss_mb.push_back(peak_rss_mb());
    served += s.server->requests_served() - served_before;
    inlined += s.server->requests_inlined() - inlined_before;
    store_ops += s.server->store().operations() - store_before;
    s.server->stop();
  }
  pin_current_thread({});
  std::uint64_t calls = warmup_latencies.count();
  for (const auto& round : latencies) calls += round.count();
  for (const auto& round : traced_latencies) calls += round.count();
  const double p50 = windowed_quantile(latencies, 0.50);
  const double p99 = windowed_quantile(latencies, 0.99);

  report.set("setup_s", median(setup_seconds));
  report.set("calls_per_s", median(round_rates));
  report.set("call_p50_ms", p50);
  report.set("call_p99_ms", p99);
  report.set("peak_rss_mb", median(rss_mb));
  report.note("metric rpc_calls_per_s " + format_double(median(round_rates)) +
              " 1/s");
  report.note("metric rpc_p50_us " + format_double(p50 * 1000) + " us");
  report.note("metric rpc_p99_us " + format_double(p99 * 1000) + " us");
  std::string rates, round_p50, round_p99;
  for (double rate : round_rates) rates += " " + format_double(rate);
  for (const LatencyHistogram& round : latencies) {
    round_p50 += " " + format_double(round.quantile(0.50));
    round_p99 += " " + format_double(round.quantile(0.99));
  }
  report.note("fig4 connections=" + std::to_string(args.connections) +
              " methods=" + std::to_string(methods) +
              " calls=" + std::to_string(calls) + " round_rates:" + rates);
  report.note("fig4 round_p50_ms:" + round_p50);
  report.note("fig4 round_p99_ms:" + round_p99);

  if (args.trace) {
    zero_layer_metrics(report);
    report.set("http.requests_per_op", double(served) / double(calls));
    report.set("http.inline_share", served ? double(inlined) / served : 0);
    report.set("http.parse_us", median_us(traced, "http.parse"));
    report.set("rpc.xmlrpc.parse_us", median_us(traced, "rpc.xmlrpc.parse"));
    report.set("rpc.xmlrpc.serialize_us",
               median_us(traced, "rpc.xmlrpc.serialize"));
    report.set("core.session_lookup_us",
               median_us(traced, "core.session_lookup"));
    report.set("core.acl_check_us", median_us(traced, "core.acl_check"));
    report.set("db.ops_per_op", double(store_ops) / double(calls));
    report.set("unattributed_share", traced.unattributed_share("client.call"));
    report.set("trace.overhead_share",
               windowed_quantile(traced_latencies, 0.5) / p50 - 1);
    traced.dump(args.work_dir + "/spans-fig4_rpc.tsv");
  }
}

}  // namespace perfbench
