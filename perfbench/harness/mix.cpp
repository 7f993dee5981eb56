// analyst_mix: the analysts' traffic mix over TLS.
//
// 4 TLS connections, each speaking a different protocol (XML-RPC, SOAP,
// JSON-RPC, binrpc), against a server that keeps persistent state
// (data_dir set). The traffic mixes system.list_methods, echo.echo with
// payloads log-uniform from 64 B to 64 KiB, file.stat / file.read on a
// pre-written file set, small file.writes beside the reads, vo.groups /
// acl.check_method, and a small share of fresh-connection logins
// (system.challenge / system.auth after a system.logout of the
// connection's previous session).
//
// Each connection is a closed loop: it sends its next request when the
// previous one completes.
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "client/client.hpp"
#include "core/server.hpp"
#include "crypto/rsa.hpp"
#include "util/clock.hpp"
#include "util/hex.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = clarens::core;
namespace rpc = clarens::rpc;
namespace client = clarens::client;

namespace {

constexpr double kP99LimitMs = 50;  // the workload's latency limit
// Each run sets up kServers servers in turn (setup_s is their median)
// and splits each server's share of the window in kWindowsPerServer
// windows; a latency percentile is the median over the windows of that
// percentile, so one stall of the shared host does not decide the run.
constexpr int kServers = 3;
constexpr std::size_t kWindowsPerServer = 8;
constexpr int kConnections = 4;
constexpr std::uint64_t kReplayEvery = 4;
// No record of real Clarens traffic exists to weigh the operations by,
// so the seven request operations get equal shares and logins a small
// one. Every payload (echo, read length, write) is log-uniform over one
// range, 64 B to 64 KiB. These are assumptions, not measurements.
constexpr double kLoginShare = 0.02;
constexpr double kMinPayload = 64;
constexpr double kMaxPayload = 65536;
// Pre-written files, each as large as the largest read; the count only
// spreads stat/read over several paths.
constexpr int kFiles = 12;

const rpc::Protocol kProtocols[kConnections] = {
    rpc::Protocol::XmlRpc, rpc::Protocol::Soap, rpc::Protocol::JsonRpc,
    rpc::Protocol::Binary};

enum class Op { ListMethods, Echo, Stat, Read, Write, Groups, AclCheck, Login };

struct StoredFile {
  std::string path;
  std::string content;
};

/// The pre-written file set; contents come from the seed.
std::vector<StoredFile> file_set(std::uint64_t seed) {
  Rng rng(seed ^ 0xf11e5u);
  std::vector<StoredFile> files;
  for (int i = 0; i < kFiles; ++i) {
    files.push_back({"/data/set/f" + std::to_string(i) + ".bin",
                     rng.letters(static_cast<std::size_t>(kMaxPayload))});
  }
  return files;
}

std::size_t payload_size(Rng& rng) {
  return static_cast<std::size_t>(
      kMinPayload * std::pow(kMaxPayload / kMinPayload, rng.uniform()));
}

struct Event {
  Op op = Op::ListMethods;
  std::string method;
  std::vector<rpc::Value> params;
  std::string expect;  // echo payload / read slice / written bytes
};

/// One connection's request stream; a pure function of (seed, index).
class Generator {
 public:
  Generator(std::uint64_t seed, int index,
            const std::vector<StoredFile>& files, const std::string& user_dn)
      : rng_(seed * 0x100000001b3ull + static_cast<std::uint64_t>(index) + 1),
        index_(index), files_(files), user_dn_(user_dn) {}

  Event next() {
    Event e;
    if (rng_.uniform() < kLoginShare) {
      e.op = Op::Login;
      e.method = "system.logout";
      return e;
    }
    switch (rng_.below(7)) {
      case 0:
        e.op = Op::ListMethods;
        e.method = "system.list_methods";
        break;
      case 1:
        e.op = Op::Echo;
        e.method = "echo.echo";
        e.expect = rng_.letters(payload_size(rng_));
        e.params = {rpc::Value(e.expect)};
        break;
      case 2: {
        const StoredFile& f = files_[rng_.below(files_.size())];
        e.op = Op::Stat;
        e.method = "file.stat";
        e.params = {rpc::Value(f.path)};
        e.expect = std::to_string(f.content.size());
        break;
      }
      case 3: {
        const StoredFile& f = files_[rng_.below(files_.size())];
        std::size_t length = payload_size(rng_);
        std::size_t offset = rng_.below(f.content.size());
        e.op = Op::Read;
        e.method = "file.read";
        e.params = {rpc::Value(f.path),
                    rpc::Value(static_cast<std::int64_t>(offset)),
                    rpc::Value(static_cast<std::int64_t>(length))};
        e.expect = f.content.substr(offset, length);
        break;
      }
      case 4:
        e.op = Op::Write;
        e.method = "file.write";
        e.expect = rng_.letters(payload_size(rng_));
        e.params = {rpc::Value("/data/out/c" + std::to_string(index_) + ".bin"),
                    rpc::Value(std::vector<std::uint8_t>(e.expect.begin(),
                                                         e.expect.end()))};
        break;
      case 5:
        e.op = Op::Groups;
        e.method = "vo.groups";
        break;
      default:
        e.op = Op::AclCheck;
        e.method = "acl.check_method";
        e.params = {rpc::Value("echo.echo"), rpc::Value(user_dn_)};
        break;
    }
    return e;
  }

 private:
  Rng rng_;
  int index_;
  const std::vector<StoredFile>& files_;
  std::string user_dn_;
};

std::string bytes_of(const rpc::Value& v) {
  if (v.type() == rpc::Value::Type::Binary) {
    const std::vector<std::uint8_t>& b = v.as_binary();
    return std::string(b.begin(), b.end());
  }
  return v.as_string();
}

/// Challenge-response login over an already connected client (the
/// plaintext path of system.auth, here inside TLS).
std::string login(client::ClarensClient& c, const Pki& pki) {
  std::string nonce = c.call("system.challenge").as_string();
  std::vector<std::uint8_t> signature =
      clarens::crypto::rsa_sign(pki.user.private_key, nonce);
  rpc::Value chain = rpc::Value::array();
  chain.push(pki.user.certificate.encode());
  std::string session =
      c.call("system.auth", {rpc::Value(nonce), chain,
                             rpc::Value(clarens::util::base64_encode(
                                 signature))})
          .as_string();
  c.set_session(session);
  return session;
}

struct MixServer {
  std::unique_ptr<Pki> pki;
  std::unique_ptr<core::ClarensServer> server;
};

MixServer start_server(std::uint64_t seed, const std::string& dir,
                       const std::vector<StoredFile>& files) {
  MixServer s;
  s.pki = std::make_unique<Pki>(Pki::create(seed));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/files/set");
  std::filesystem::create_directories(dir + "/files/out");
  core::ClarensConfig config = paper_config(*s.pki);
  config.use_tls = true;
  config.data_dir = dir + "/db";
  config.file_roots = {{"/data", dir + "/files"}};
  core::FileAcl open;
  open.read.allow_dns = {core::AclSpec::kAnyone};
  open.write.allow_dns = {core::AclSpec::kAnyone};
  config.initial_file_acls = {{"/data", open}};
  s.server = std::make_unique<core::ClarensServer>(std::move(config));
  s.server->start();
  // File pre-population goes through the server like any upload.
  client::ClarensClient c(client_options(*s.pki, s.server->port(),
                                         rpc::Protocol::Binary, true));
  c.connect();
  login(c, *s.pki);
  for (const StoredFile& f : files) {
    c.call("file.write",
           {rpc::Value(f.path), rpc::Value(std::vector<std::uint8_t>(
                                    f.content.begin(), f.content.end()))});
  }
  c.call("system.logout");
  return s;
}

/// Everything one connection's thread measured.
struct ConnRun {
  std::vector<LatencyHistogram> window_ms =
      std::vector<LatencyHistogram>(kWindowsPerServer);
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::string> written;  // path -> last content
  SpanLog log{false};
};

class Connection {
 public:
  /// Operation ids start above `op_base`, which keeps them unique across
  /// the connections and servers of a run.
  Connection(const MixServer& s, int index, Generator& gen, ConnRun& out,
             const std::string& scratch_dir, std::uint64_t op_base)
      : s_(s), index_(index), protocol_(kProtocols[index]), gen_(gen),
        out_(out), scratch_dir_(scratch_dir), op_base_(op_base) {}

  void run(Clock::time_point start, double seconds) {
    connect();
    std::unique_ptr<ScratchCore> scratch;
    std::unique_ptr<TlsPair> tls;
    if (out_.log.on()) {
      scratch = std::make_unique<ScratchCore>(scratch_dir_);
      tls = std::make_unique<TlsPair>(*s_.pki);
    }
    std::uint64_t op_id = op_base_;
    std::this_thread::sleep_until(start);
    for (;;) {
      Clock::time_point issued = Clock::now();
      const double issued_s = ms_between(start, issued) / 1000.0;
      if (issued_s >= seconds) break;
      Event e = gen_.next();
      ++out_.attempted;
      std::uint64_t op = ++op_id;
      int root = out_.log.open(op, "op");
      int call = out_.log.open(op, "client.call", root);
      rpc::Value result;
      bool ok = perform(e, result);
      out_.log.close(call);
      std::size_t window = std::min<std::size_t>(
          static_cast<std::size_t>(issued_s / seconds * kWindowsPerServer),
          kWindowsPerServer - 1);
      out_.window_ms[window].add(ok ? ms_between(issued, Clock::now())
                                    : seconds * 1000.0);
      if (ok && out_.log.on() && op % kReplayEvery == 0) {
        replay(e, result, *scratch, *tls, op, root);
      }
      out_.log.close(root);
    }
    verify_writes();
    try {
      client_->call("system.logout");
    } catch (const std::exception& ex) {
      out_.failures.push_back(std::string("final logout: ") + ex.what());
    }
  }

 private:
  void connect() {
    client_ = std::make_unique<client::ClarensClient>(
        client_options(*s_.pki, s_.server->port(), protocol_, true));
    client_->connect();
    session_ = login(*client_, *s_.pki);
  }

  bool perform(const Event& e, rpc::Value& result) {
    try {
      if (e.op == Op::Login) {
        result = client_->call("system.logout");
        if (!result.as_bool()) return fail("system.logout returned false");
        connect();
        return true;
      }
      result = client_->call(e.method, e.params);
      switch (e.op) {
        case Op::ListMethods:
          if (result.as_array().size() != s_.server->registry().size()) {
            return fail("system.list_methods count differs from registry");
          }
          break;
        case Op::Echo:
          if (bytes_of(result) != e.expect) return fail("echo.echo mismatch");
          break;
        case Op::Stat:
          if (std::to_string(result.at("size").as_int()) != e.expect) {
            return fail("file.stat size mismatch");
          }
          break;
        case Op::Read:
          if (bytes_of(result) != e.expect) return fail("file.read mismatch");
          break;
        case Op::Write:
          if (!result.as_bool()) return fail("file.write returned false");
          out_.written[e.params[0].as_string()] = e.expect;
          break;
        case Op::Groups:
          if (result.as_array().empty()) return fail("vo.groups empty");
          break;
        case Op::AclCheck:
          if (!result.as_bool()) return fail("acl.check_method denied");
          break;
        case Op::Login:
          break;
      }
      return true;
    } catch (const std::exception& ex) {
      return fail(e.method + ": " + ex.what());
    }
  }

  bool fail(const std::string& why) {
    out_.failures.push_back(why);
    return false;
  }

  /// Every path this connection wrote must read back as its last write.
  void verify_writes() {
    for (const auto& [path, content] : out_.written) {
      ++out_.attempted;
      try {
        rpc::Value got = client_->call(
            "file.read", {rpc::Value(path), rpc::Value(std::int64_t{0}),
                          rpc::Value(std::int64_t{1 << 20})});
        if (bytes_of(got) != content) fail("read-back of " + path + " differs");
      } catch (const std::exception& ex) {
        fail("read-back of " + path + ": " + ex.what());
      }
    }
  }

  void replay(const Event& e, const rpc::Value& result, ScratchCore& scratch,
              TlsPair& tls, std::uint64_t op, int root) {
    SpanLog& log = out_.log;
    rpc::Request request;
    request.method = e.method;
    request.params = e.params;
    request.id = rpc::Value(static_cast<std::int64_t>(op));
    const std::string wire = request_wire(protocol_, request, session_);
    rpc::Response response = rpc::Response::success(result);
    replay_request_path(log, op, root, protocol_, wire, response);
    tls.seal_and_open(log, op, root, wire);
    tls.seal_and_open(log, op, root,
                      rpc::serialize_response(protocol_, response));
    const clarens::pki::DistinguishedName& dn = s_.pki->user.dn();
    log.time(op, "core.session_lookup", root, [&] {
      return s_.server->sessions().lookup_shared(session_);
    });
    log.time(op, "core.acl_check", root,
             [&] { return s_.server->acl().check_method(e.method, dn); });
    switch (e.op) {
      case Op::Read:
        log.time(op, "core.file_read", root, [&] {
          return s_.server->files().read(e.params[0].as_string(),
                                         e.params[1].as_int(),
                                         e.params[2].as_int(), dn);
        });
        break;
      case Op::Write: {
        const std::vector<std::uint8_t>& bytes = e.params[1].as_binary();
        log.time(op, "core.file_write", root, [&] {
          scratch.files.write("/data/c" + std::to_string(index_) + ".bin",
                              bytes, dn);
        });
        break;
      }
      case Op::Login: {
        log.time(op, "tls.handshake", root, [&] { tls.handshake(); });
        log.time(op, "pki.verify", root, [&] {
          return s_.pki->trust.verify({s_.pki->user.certificate},
                                      clarens::util::unix_now());
        });
        std::string id = log.time(op, "core.session_create", root, [&] {
          return scratch.sessions.create(dn.str(), false).id;
        });
        log.time(op, "db.put", root, [&] {
          scratch.store.put("replay", id, std::string(192, 's'));
        });
        break;
      }
      default:
        break;
    }
  }

  const MixServer& s_;
  int index_;
  rpc::Protocol protocol_;
  Generator& gen_;
  ConnRun& out_;
  std::string scratch_dir_;
  std::uint64_t op_base_;
  std::unique_ptr<client::ClarensClient> client_;
  std::string session_;
};

}  // namespace

void mix_inputs(std::uint64_t seed, std::string& stream) {
  stream += user_dn(seed) + "\n";
  std::vector<StoredFile> files = file_set(seed);
  for (const StoredFile& f : files) stream += f.path + f.content;
  for (int c = 0; c < kConnections; ++c) {
    Generator gen(seed, c, files, user_dn(seed));
    for (int i = 0; i < 2000; ++i) {
      Event e = gen.next();
      rpc::Request request;
      request.method = e.method;
      request.params = e.params;
      stream += rpc::serialize_request(kProtocols[c], request);
    }
  }
}

void run_mix(const Args& args, Report& report) {
  const std::vector<StoredFile> files = file_set(args.seed);
  std::vector<double> setup_seconds, rss_mb;
  // Window w of server i collects every connection's window w.
  std::vector<LatencyHistogram> windows, traced_windows;
  std::vector<ConnRun> traced_runs;
  std::uint64_t served = 0, store_ops = 0, ops = 0;
  double window_s = 0;
  for (int instance = 0; instance < kServers; ++instance) {
    const std::string dir = args.work_dir + "/mix";
    reset_peak_rss();
    Clock::time_point setup_start = Clock::now();
    MixServer s = start_server(args.seed, dir, files);
    setup_seconds.push_back(ms_between(setup_start, Clock::now()) / 1000.0);
    const std::string dn = s.pki->user.dn().str();
    bool traced = args.trace && instance >= kServers / 2;
    std::vector<ConnRun> runs(kConnections);
    std::vector<std::unique_ptr<Generator>> gens;
    for (int c = 0; c < kConnections; ++c) {
      gens.push_back(std::make_unique<Generator>(
          args.seed + static_cast<std::uint64_t>(instance) * 7919, c, files,
          dn));
      runs[c].log = SpanLog(traced);
    }
    std::uint64_t served_before = s.server->requests_served();
    std::uint64_t store_before = s.server->store().operations();
    const double seconds = args.seconds / kServers;
    // Far enough ahead for every connection to finish its TLS login.
    Clock::time_point start = Clock::now() + std::chrono::milliseconds(200);
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
          try {
            std::uint64_t op_base =
                static_cast<std::uint64_t>(instance * kConnections + c) << 32;
            Connection(s, c, *gens[c], runs[c],
                       dir + "/scratch" + std::to_string(c), op_base)
                .run(start, seconds);
          } catch (const std::exception& ex) {
            runs[c].failures.push_back(std::string("connection: ") +
                                       ex.what());
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    window_s += ms_between(start, Clock::now()) / 1000.0;
    rss_mb.push_back(peak_rss_mb());
    served += s.server->requests_served() - served_before;
    store_ops += s.server->store().operations() - store_before;
    s.server->stop();
    std::filesystem::remove_all(dir);
    std::vector<LatencyHistogram>& into = traced ? traced_windows : windows;
    into.resize(into.size() + kWindowsPerServer);
    for (ConnRun& run : runs) {
      for (std::size_t w = 0; w < kWindowsPerServer; ++w) {
        ops += run.window_ms[w].count();
        into[into.size() - kWindowsPerServer + w].merge(run.window_ms[w]);
      }
      report.attempted += run.attempted;
      for (const std::string& why : run.failures) report.fail(why);
      if (traced) traced_runs.push_back(std::move(run));
    }
  }

  double p50 = windowed_quantile(windows, 0.50);
  double p99 = windowed_quantile(windows, 0.99);
  report.set("setup_s", median(setup_seconds));
  report.set("calls_per_s", double(ops) / window_s);
  report.set("call_p50_ms", p50);
  report.set("call_p99_ms", p99);
  report.set("peak_rss_mb", median(rss_mb));
  report.note("metric mix_p50_ms " + format_double(p50) + " ms");
  report.note("metric mix_p99_ms " + format_double(p99) + " ms");
  report.note("analyst_mix closed loop requests=" +
              std::to_string(ops) + " p99 limit " +
              format_double(kP99LimitMs) + " ms " +
              (p99 <= kP99LimitMs ? "met" : "MISSED"));

  if (args.trace) {
    SpanLog traced(true);
    for (const ConnRun& run : traced_runs) traced.merge(run.log);
    zero_layer_metrics(report);
    report.set("http.requests_per_op", double(served) / double(ops));
    report.set("http.parse_us", median_us(traced, "http.parse"));
    for (rpc::Protocol p : kProtocols) {
      std::string name(parse_span(p));
      report.set(name + "_us", median_us(traced, parse_span(p)));
      name = serialize_span(p);
      report.set(name + "_us", median_us(traced, serialize_span(p)));
    }
    report.set("core.session_lookup_us",
               median_us(traced, "core.session_lookup"));
    report.set("core.acl_check_us", median_us(traced, "core.acl_check"));
    report.set("core.session_create_us",
               median_us(traced, "core.session_create"));
    report.set("core.file_read_us", median_us(traced, "core.file_read"));
    report.set("db.ops_per_op", double(store_ops) / double(ops));
    report.set("db.put_us", median_us(traced, "db.put"));
    report.set("tls.seal_us_per_kib", us_per_kib(traced, "tls.seal"));
    report.set("tls.open_us_per_kib", us_per_kib(traced, "tls.open"));
    report.set("tls.handshake_ms", median_us(traced, "tls.handshake") / 1000);
    report.set("pki.verify_us", median_us(traced, "pki.verify"));
    report.set("unattributed_share", traced.unattributed_share("client.call"));
    report.set("trace.overhead_share",
               windowed_quantile(traced_windows, 0.5) / p50 - 1);
    traced.dump(args.work_dir + "/spans-analyst_mix.tsv");
  }
}

}  // namespace perfbench
