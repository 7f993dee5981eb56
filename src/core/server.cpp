#include "core/server.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <set>

#include "client/peer_pool.hpp"
#include "core/bindings/bindings.hpp"
#include "rpc/binrpc.hpp"
#include "rpc/fault.hpp"
#include "rpc/protocol.hpp"
#include "rpc/xml.hpp"
#include "util/buffer.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace clarens::core {

namespace {

constexpr const char* kSessionHeader = "X-Clarens-Session";
constexpr const char* kNodeTicketHeader = "X-Clarens-Node-Ticket";

// Minimal browser portal (paper §3): a static page whose JavaScript would
// issue the web-service calls; served to satisfy HTTP GET on "/".
constexpr const char* kPortalPage = R"(<!DOCTYPE html>
<html><head><title>Clarens Server</title></head>
<body>
<h1>Clarens Web Service Framework</h1>
<p>This server speaks XML-RPC, SOAP and JSON-RPC on POST /clarens.</p>
<ul>
  <li>Remote file browsing: GET under a configured virtual root</li>
  <li>VO management: vo.* methods</li>
  <li>Access control management: acl.* methods</li>
  <li>Service discovery: discovery.* methods</li>
  <li>Job submission / shell: shell.* methods</li>
</ul>
</body></html>
)";

}  // namespace

const char* to_string(NodeRole role) {
  switch (role) {
    case NodeRole::Standalone: return "standalone";
    case NodeRole::Head: return "head";
    case NodeRole::Storage: return "storage";
  }
  return "standalone";
}

ClarensServer::ClarensServer(ClarensConfig config)
    : config_(std::move(config)) {
  if (config_.data_dir.empty()) {
    store_ = std::make_unique<db::Store>();
  } else {
    db::StoreOptions store_options;
    store_options.shards = config_.store_shards;
    store_options.group_commit = config_.store_group_commit;
    store_options.commit_interval_us =
        static_cast<std::uint32_t>(config_.store_commit_interval_us);
    store_options.commit_batch_max = config_.store_commit_batch_max;
    store_options.compact_threshold =
        static_cast<std::size_t>(config_.store_compact_threshold);
    store_ = std::make_unique<db::Store>(config_.data_dir, store_options);
  }
  sessions_ = std::make_unique<SessionManager>(
      *store_, config_.session_ttl,
      config_.session_durable_writes && store_->persistent());
  vo_ = std::make_unique<VoManager>(*store_, config_.admins);
  acl_ = std::make_unique<AclManager>(*store_, *vo_, config_.default_allow);
  files_ = std::make_unique<FileService>(*acl_);
  files_->set_max_read_chunk(config_.max_read_chunk);
  files_->set_sendfile_threshold(config_.sendfile_threshold);
  for (const auto& [prefix, dir] : config_.file_roots) {
    files_->add_root(prefix, dir);
  }
  if (!config_.sandbox_base.empty()) {
    shell_ = std::make_unique<ShellService>(*vo_, config_.sandbox_base);
    shell_->set_user_map(config_.user_map);
    // Sandboxes are visible to the file service (paper §2.5).
    files_->add_root("/sandbox", config_.sandbox_base);
  }
  proxy_ = std::make_unique<ProxyService>(*store_, *sessions_, config_.trust);
  messages_ = std::make_unique<MessageService>(*store_);
  if (shell_) {
    jobs_ = std::make_unique<JobService>(*store_, *shell_, config_.job_workers);
  }
  if (config_.transfer_workers > 0) {
    transfers_ = std::make_unique<TransferService>(
        *store_, *files_, *proxy_, config_.trust, config_.transfer_workers);
  }

  for (const auto& [path, spec] : config_.initial_method_acls) {
    acl_->set_method_acl(path, spec);
  }
  for (const auto& [path, facl] : config_.initial_file_acls) {
    acl_->set_file_acl(path, facl);
  }

  if (config_.node_role == NodeRole::Storage && !config_.head_url.empty() &&
      !config_.node_ticket_secret.empty()) {
    // Commit notifications ride the same plaintext binrpc peer channel
    // the head uses toward storage nodes (the trust boundary is the node
    // ticket, not the transport).
    client::ClientOptions base;
    base.protocol = rpc::Protocol::Binary;
    head_pool_ = std::make_unique<client::PeerPool>(std::move(base));
  }

  register_core_methods();
}

ClarensServer::~ClarensServer() { stop(); }

// Method registration is decomposed into per-service binding units
// (core/bindings/): each attaches one service module's typed handlers,
// signatures and metadata. This server only decides which services exist.
void ClarensServer::register_core_methods() {
  bindings::register_system_methods(*this);
  bindings::register_vo_methods(*vo_, registry_);
  bindings::register_acl_methods(*acl_, *vo_, registry_);
  bindings::register_file_methods(
      *files_, registry_,
      [this](const rpc::CallContext& context, const std::string& path) {
        notify_commit(context, path);
      });
  if (shell_) bindings::register_shell_methods(*shell_, registry_);
  if (jobs_) bindings::register_job_methods(*jobs_, registry_);
  bindings::register_proxy_methods(*proxy_, registry_);
  bindings::register_message_methods(*messages_, registry_);
  if (transfers_) bindings::register_transfer_methods(*transfers_, registry_);
}

void ClarensServer::attach_discovery(discovery::DiscoveryServer& discovery) {
  discovery_ = &discovery;
  bindings::register_discovery_methods(discovery, registry_);
  if (config_.node_role == NodeRole::Head) {
    // The head's routing layer: discovery records feed the placement
    // ring, and the federated file.* bindings re-bind the local
    // handlers with redirect/proxy/fan-out variants.
    federation::RouterOptions options;
    options.secret = config_.node_ticket_secret;
    options.replicas = config_.placement_replicas;
    options.refresh_ms = config_.federation_refresh_ms;
    options.ticket_ttl_s = config_.node_ticket_ttl_s;
    options.prefix_depth = config_.placement_prefix_depth;
    router_ = std::make_unique<federation::Router>(discovery, options);
    bindings::register_federation_methods(*this, *router_, registry_);

    // Replication control plane: the layout table persists in the head's
    // own store; the repair engine drains its queue once start() runs.
    layouts_ = std::make_unique<federation::LayoutTable>(*store_);
    federation::ReplicatorOptions ropts;
    ropts.replicas = config_.placement_replicas;
    ropts.retry_max = config_.replication_retry_max;
    ropts.retry_base_ms = config_.replication_retry_base_ms;
    ropts.retry_max_ms = config_.replication_retry_max_ms;
    ropts.node_grace_ms = config_.replication_grace_ms;
    ropts.suspect_ttl_ms = config_.replica_suspect_ttl_ms;
    ropts.fsck_interval_ms = config_.fsck_interval_ms;
    ropts.copy_chunk =
        std::min(config_.replication_chunk, config_.max_read_chunk);
    // Poll membership fast enough to resolve the grace period, and sweep
    // for under-replication at least as often as nodes are declared gone.
    ropts.tick_ms = std::clamp(config_.replication_grace_ms / 4, 50, 250);
    ropts.rescan_ms = std::max(1000, config_.replication_grace_ms);
    replicator_ = std::make_unique<federation::Replicator>(*router_, *layouts_,
                                                           ropts);
    bindings::register_replica_methods(*this, *router_, *layouts_,
                                       *replicator_, registry_);
  }
}

void ClarensServer::attach_storage(storage::SrmService& srm) {
  srm_ = &srm;
  // Staged copies live in the SRM disk cache; exposing it as a virtual
  // root lets clients read READY files through file.read / HTTP GET.
  files_->add_root("/srmcache", srm.storage().cache_dir());
  bindings::register_srm_methods(srm, registry_);
}

void ClarensServer::start() {
  http::ServerOptions options;
  options.host = config_.host;
  options.port = config_.port;
  options.max_connections = config_.max_connections;
  options.dispatch.inline_dispatch = config_.inline_dispatch;
  // The dispatch-cost key (DESIGN.md "Dispatch policy"): a cheap method
  // peek before the full parse. Only modules whose handlers are
  // in-memory and store-read-only are inline-eligible; the auth
  // handshake methods do crypto and write the session store, so they
  // always take a worker.
  options.dispatch.cost_key = [](const http::Request& request) -> std::string {
    if (request.method != "POST") return {};
    const std::string* content_type = request.headers.find("Content-Type");
    rpc::Protocol protocol = rpc::detect(
        content_type ? *content_type : std::string_view(), request.body);
    std::string name = rpc::peek_method(protocol, request.body);
    std::string_view module =
        std::string_view(name).substr(0, std::min(name.find('.'), name.size()));
    if (module != "system" && module != "echo") return {};
    if (name == "system.auth" || name == "system.challenge" ||
        name == "system.logout") {
      return {};
    }
    return name;
  };
  if (config_.use_tls) {
    if (!config_.credential) {
      throw Error("TLS requires a server credential");
    }
    tls::TlsConfig tls;
    tls.credential = config_.credential;
    tls.chain = config_.chain;
    tls.trust = &config_.trust;
    tls.require_peer_certificate = config_.require_client_cert;
    options.tls = std::move(tls);
  }
  http_ = std::make_unique<http::Server>(
      std::move(options), [this](const http::Request& request,
                                 const http::Peer& peer) {
        return handle(request, peer);
      });
  http_->start();
  started_at_ = util::unix_now();
  if (config_.station) start_publisher();
  if (replicator_) replicator_->start();
  if (config_.session_reap_interval_s > 0) {
    {
      util::LockGuard lock(reaper_mutex_);
      reaper_stopping_ = false;
    }
    reaper_ = util::Thread([this] {
      // The sweep below takes session-shard and store locks while the
      // reaper lock is held.
      // lock-order: core.server.reaper -> core.session.shard
      // lock-order: core.server.reaper -> db.store.shard
      util::UniqueLock lock(reaper_mutex_);
      while (!reaper_stopping_) {
        reaper_stop_.wait_for(
            lock, std::chrono::seconds(config_.session_reap_interval_s));
        if (reaper_stopping_) break;
        sessions_->reap_expired();
      }
    });
  }
}

void ClarensServer::stop() {
  {
    util::LockGuard lock(reaper_mutex_);
    reaper_stopping_ = true;
  }
  reaper_stop_.notify_all();
  if (reaper_.joinable()) reaper_.join();
  if (replicator_) replicator_->stop();
  if (publisher_) publisher_->stop();
  if (http_) http_->stop();
}

std::uint16_t ClarensServer::port() const { return http_ ? http_->port() : 0; }

std::string ClarensServer::url() const {
  return std::string(config_.use_tls ? "https" : "http") + "://" +
         config_.host + ":" + std::to_string(port()) + "/clarens";
}

Session ClarensServer::direct_login(const std::string& identity_dn) {
  return sessions_->create(identity_dn, /*via_proxy=*/false);
}

std::shared_ptr<const Session> ClarensServer::check_session(
    const std::string& session_id) const {
  if (session_id.empty()) throw AuthError("no session token supplied");
  return sessions_->lookup_shared(session_id);
}

federation::NodeTicket ClarensServer::check_node_ticket(
    const std::string& token) const {
  if (config_.node_ticket_secret.empty()) {
    throw AuthError("this server does not accept node tickets");
  }
  std::optional<federation::NodeTicket> ticket = federation::NodeTicket::verify(
      config_.node_ticket_secret, token, util::unix_now());
  if (!ticket) throw AuthError("invalid or expired node ticket");
  return *ticket;
}

void ClarensServer::notify_commit(const rpc::CallContext& context,
                                  const std::string& path) {
  if (!head_pool_) return;
  try {
    // O(1) landed-write notice under a self-minted node ticket: storage
    // nodes hold the same cluster secret the head mints with, and the
    // head honors node tickets for exactly this one method. The ticket
    // carries the original writer's identity so the head's method ACL
    // still judges the user, not the node. No hash rides along: the
    // head polls file.checksum once, after writes to the file go quiet.
    federation::NodeTicket ticket;
    ticket.dn = context.identity;
    ticket.via_proxy = context.via_proxy;
    ticket.proxy_serial = context.proxy_serial;
    ticket.scope = path;
    ticket.write = false;
    ticket.expires = util::unix_now() + 60;
    std::string token = ticket.mint(config_.node_ticket_secret);
    client::PeerPool::Lease lease = head_pool_->lease(config_.head_url);
    lease->set_header(kNodeTicketHeader, token);
    try {
      lease->call("replica.committed",
                  {rpc::Value(path),
                   rpc::Value(config_.farm + "/" + config_.node)});
    } catch (const SystemError&) {
      lease.discard();
      throw;
    }
  } catch (const std::exception& error) {
    // Best effort: until a notice follows the last redirect the head only
    // adopts the hashes it polls, so fsck re-polls rather than reverting
    // these bytes. A write on a reused ticket has only this notice.
    CLARENS_LOG(Warn) << "commit notification for '" << path
                      << "' failed: " << error.what();
  }
}

void ClarensServer::check_acl(const std::string& method,
                              const pki::DistinguishedName& dn) const {
  // ACL first: the common case is an explicit allow, and the root-admin
  // bypass (root administrators own the ACL tables) only matters when
  // the ACL chain would deny.
  if (acl_->check_method(method, dn)) return;
  if (vo_->is_root_admin(dn)) return;
  throw AccessError("access denied to method '" + method + "'");
}

void ClarensServer::start_publisher() {
  publisher_ = std::make_unique<discovery::Publisher>(config_.station->first,
                                                      config_.station->second);
  std::vector<discovery::ServiceRecord> records;
  std::set<std::string> modules;
  for (const auto& name : registry_.list()) {
    modules.insert(name.substr(0, name.find('.')));
  }
  for (const auto& module : modules) {
    discovery::ServiceRecord record;
    record.farm = config_.farm;
    record.node = config_.node;
    record.service = module;
    record.url = url();
    record.protocol = "xmlrpc";
    record.version = "1.0";
    // Federation attributes: the role tells head routers whether this
    // node belongs on the placement ring; storage nodes advertise their
    // virtual roots as namespace prefixes.
    record.role = to_string(config_.node_role);
    if (config_.node_role == NodeRole::Storage) {
      record.prefixes = files_->roots();
    }
    // GLUE-style key/numerical-value pairs (paper §2.4): basic load data
    // rides along with the service description.
    record.metrics["methods"] = static_cast<double>(registry_.size());
    record.metrics["sessions"] =
        static_cast<double>(sessions_->active_count());
    record.metrics["capacity"] = config_.node_capacity;
    records.push_back(std::move(record));
  }
  publisher_->set_records(std::move(records));
  publisher_->start_periodic(config_.publish_interval_ms);
}

http::Response ClarensServer::handle(const http::Request& request,
                                     const http::Peer& peer) {
  if (request.method == "POST") return handle_rpc(request, peer);
  if (request.method == "GET" || request.method == "HEAD") {
    return handle_get(request, peer);
  }
  return http::Response::make(405, "method not allowed\n");
}

http::Response ClarensServer::handle_rpc(const http::Request& request,
                                         const http::Peer& peer) {
  rpc::Protocol protocol = rpc::Protocol::XmlRpc;
  rpc::Response rpc_response;
  rpc::Value request_id;
  try {
    const std::string* content_type = request.headers.find("Content-Type");
    protocol = rpc::detect(content_type ? *content_type : std::string_view(),
                           request.body);
    rpc::Request rpc_request = rpc::parse_request(protocol, request.body);
    request_id = rpc_request.id;

    // One registry lookup serves the pre-dispatch metadata checks and
    // the dispatch itself.
    std::shared_ptr<const rpc::Method> method =
        registry_.find(rpc_request.method);
    if (!method) {
      throw rpc::Fault(rpc::kFaultBadMethod,
                       "no such method: " + rpc_request.method);
    }

    rpc::CallContext context;
    context.protocol = rpc::to_string(protocol);
    // Binary responses can carry a raw byte range spliced in by the
    // transport (sendfile); offer that path to handlers that support it.
    context.offer_file_region =
        protocol == rpc::Protocol::Binary && config_.sendfile_threshold >= 0;

    if (method->info.is_public) {
      // Public methods create the session or are liveness probes; a
      // TLS-verified identity is still available pre-session.
      if (peer.tls_identity && peer.tls_identity->ok) {
        context.identity = peer.tls_identity->identity.str();
        context.via_proxy = peer.tls_identity->via_proxy;
      }
    } else if (const std::string* node_token =
                   config_.node_role == NodeRole::Standalone ||
                           config_.node_ticket_secret.empty()
                       ? nullptr
                       : request.headers.find(kNodeTicketHeader)) {
      // Federation fast path: a head-minted node ticket replaces the
      // session handshake — the head already authenticated the caller
      // and the HMAC proves it. Standalone servers run the full session
      // stack only; a ticket is a *file capability*, not a blanket
      // identity. On storage nodes it authorizes file.* methods only,
      // and the file handlers enforce its namespace scope and write bit
      // against the path they touch. On the head exactly one method
      // honors tickets: replica.committed, the storage node's landed-write
      // notice (minted by the node with the same shared secret; the
      // binding checks the ticket scope against the reported path). The
      // method ACL still runs against the forwarded identity
      // (delegated credentials ride along in via_proxy / proxy_serial).
      federation::NodeTicket ticket = check_node_ticket(*node_token);
      bool allowed = config_.node_role == NodeRole::Storage
                         ? util::starts_with(rpc_request.method, "file.")
                         : rpc_request.method == "replica.committed";
      if (!allowed) {
        throw AuthError("node ticket does not authorize method '" +
                        rpc_request.method + "'");
      }
      context.identity = ticket.dn;
      context.via_proxy = ticket.via_proxy;
      context.proxy_serial = ticket.proxy_serial;
      context.via_ticket = true;
      context.ticket_scope = ticket.scope;
      context.ticket_write = ticket.write;
      context.replication = ticket.replication;
      check_acl(method->info.acl_path.empty() ? rpc_request.method
                                              : method->info.acl_path,
                pki::DistinguishedName::parse(ticket.dn));
    } else {
      // Check 1: session lookup (cache, write-through to the database).
      static const std::string kNoToken;
      const std::string* token = request.headers.find(kSessionHeader);
      std::shared_ptr<const Session> session =
          check_session(token ? *token : kNoToken);
      context.identity = session->identity;
      context.session_id = session->id;
      context.via_proxy = session->via_proxy;
      context.proxy_serial = session->attached_proxy_serial;
      // Check 2: method ACL (compiled-spec cache; DN pre-parsed at
      // session decode time). Methods may carry an explicit ACL path;
      // the default is the method name itself.
      check_acl(method->info.acl_path.empty() ? rpc_request.method
                                              : method->info.acl_path,
                session->identity_dn);
    }

    rpc::Value result = method->handler(context, rpc_request.params);

    if (context.file_region && protocol == rpc::Protocol::Binary) {
      // Zero-copy response: the handler claimed the file-region offer, so
      // splice the resolved range into the binary framing. The result
      // value is the placeholder the handler returned; discard it.
      const auto& claimed = *context.file_region;
      // The blob framing length is a u32; config validation bounds
      // max_read_chunk below that, but a handler could still hand back a
      // wider region — fail it rather than desynchronize the framing
      // from Content-Length.
      if (claimed.length < 0 ||
          static_cast<std::uint64_t>(claimed.length) >
              std::numeric_limits<std::uint32_t>::max()) {
        throw rpc::Fault(rpc::kFaultGeneric,
                         "file region exceeds 32-bit frame length");
      }
      util::Buffer framing;
      rpc::binrpc::serialize_blob_response_head(
          static_cast<std::uint32_t>(claimed.length), framing);
      http::Response response;
      response.status = 200;
      response.reason = http::reason_phrase(200);
      response.headers.set("Content-Type", rpc::content_type(protocol));
      http::Response::FileRegion region;
      region.path = claimed.path;
      region.offset = claimed.offset;
      region.length = claimed.length;
      region.head = std::string(framing.peek_view());
      framing.clear();
      rpc::binrpc::serialize_blob_response_tail(request_id, framing);
      region.tail = std::string(framing.peek_view());
      response.file = std::move(region);
      return response;
    }

    rpc_response = rpc::Response::success(std::move(result));
  } catch (const rpc::Fault& fault) {
    rpc_response = rpc::Response::fault(fault.code(), fault.what());
  } catch (const Error& error) {
    rpc_response = rpc::Response::fault(error.code(), error.what());
  } catch (const std::exception& error) {
    rpc_response = rpc::Response::fault(rpc::kFaultGeneric, error.what());
  }
  rpc_response.id = request_id;

  // Serialize into a per-worker arena and hand the HTTP layer a view of
  // it: the worker that runs this handler also performs the vectored
  // write, so no heap copy of the body is ever made. The arena is
  // compacted after pathological responses so a one-off huge payload
  // doesn't pin its allocation.
  thread_local util::Buffer arena;
  arena.clear();
  arena.compact();
  rpc::serialize_response(protocol, rpc_response, arena);
  http::Response response;
  response.status = 200;
  response.reason = http::reason_phrase(200);
  response.headers.set("Content-Type", rpc::content_type(protocol));
  response.body_view = arena.peek_view();
  return response;
}

namespace {

/// Content types for the portal's static assets.
const char* portal_content_type(const std::string& path) {
  auto ends = [&path](const char* suffix) {
    return util::ends_with(path, suffix);
  };
  if (ends(".html") || ends(".htm")) return "text/html";
  if (ends(".js")) return "application/javascript";
  if (ends(".css")) return "text/css";
  if (ends(".png")) return "image/png";
  if (ends(".gif")) return "image/gif";
  if (ends(".jpg") || ends(".jpeg")) return "image/jpeg";
  if (ends(".svg")) return "image/svg+xml";
  if (ends(".txt")) return "text/plain";
  return "application/octet-stream";
}

}  // namespace

http::Response ClarensServer::serve_portal(const std::string& path) const {
  if (config_.portal_dir.empty()) {
    if (path == "/" || path == "/index.html" || path == "/portal") {
      return http::Response::make(200, kPortalPage, "text/html");
    }
    return http::Response::make(404, "no portal configured\n");
  }
  // Map "/" -> index.html; "/portal/x" -> x. Containment enforced.
  std::string rel = path == "/" || path == "/portal"
                        ? "index.html"
                        : path.substr(std::string("/portal/").size());
  namespace fs = std::filesystem;
  fs::path full = (fs::path(config_.portal_dir) / rel).lexically_normal();
  auto inside = full.lexically_relative(
      fs::path(config_.portal_dir).lexically_normal());
  if (inside.empty() || (*inside.begin() == "..")) {
    return http::Response::make(403, "portal path escapes root\n");
  }
  if (!fs::is_regular_file(full)) {
    return http::Response::make(404, "no such portal page\n");
  }
  http::Response response =
      http::Response::make(200, "", portal_content_type(rel));
  response.file = http::Response::FileRegion{full.string(), 0, -1};
  return response;
}

http::Response ClarensServer::handle_get(const http::Request& request,
                                         const http::Peer& peer) {
  std::string path = request.path();
  if (path == "/" || path == "/index.html" || path == "/portal" ||
      util::starts_with(path, "/portal/")) {
    return serve_portal(path);
  }
  if (path == "/ping") return http::Response::make(200, "pong\n");

  // File serving: identity from TLS, else from a session header, else
  // anonymous (empty DN — only files whose ACL allows '*' are served...
  // which requires an authenticated match, so effectively none unless
  // default_allow is set).
  auto query = request.query();
  pki::DistinguishedName identity;
  // Delegation info rides into any node ticket minted below: a caller
  // whose identity came from a stored proxy logon must look the same to
  // a storage node whichever protocol (RPC or GET) carried the hop.
  bool via_proxy = false;
  std::string proxy_serial;
  if (peer.tls_identity && peer.tls_identity->ok) {
    identity = peer.tls_identity->identity;
    via_proxy = peer.tls_identity->via_proxy;
  } else if (auto token = request.headers.get(kSessionHeader)) {
    try {
      std::shared_ptr<const Session> session = sessions_->lookup_shared(*token);
      identity = session->identity_dn;
      via_proxy = session->via_proxy;
      proxy_serial = session->attached_proxy_serial;
    } catch (const AuthError&) {
      return http::Response::make(401, "invalid session\n");
    }
  } else if (auto it = query.find("ticket");
             it != query.end() && config_.node_role == NodeRole::Storage) {
    // Storage-node GET path: a head-minted node ticket rides as a query
    // parameter (the token is hex, hence URL-safe) because the 307
    // redirect cannot make the browser attach a custom header. Only
    // storage-role nodes honor tickets — everywhere else the full
    // session stack decides. GET is read-only, so any valid covering
    // ticket (read or write) serves.
    try {
      federation::NodeTicket ticket = check_node_ticket(it->second);
      if (!ticket.covers(path)) {
        return http::Response::make(403, "ticket does not cover path\n");
      }
      identity = pki::DistinguishedName::parse(ticket.dn);
    } catch (const AuthError& e) {
      return http::Response::make(401, std::string(e.what()) + "\n");
    }
  }

  // Federated head: file bytes live on storage nodes — answer with a
  // real HTTP 307 carrying a ticket-bearing Location, the GET analogue
  // of the RPC redirect envelope. Falls through to local serving when
  // no storage node owns the prefix (empty ring).
  if (config_.node_role == NodeRole::Head && router_) {
    // Replica-aware pick: a node the layout table knows is unhealthy or
    // that a client reported unreachable is skipped, so GETs keep
    // succeeding while the repair engine restores replication.
    std::optional<federation::NodeInfo> owner =
        replicator_ ? replicator_->pick_read_node(path)
                    : router_->route(path);
    if (owner) {
      if (!acl_->check_file_read(path, identity) &&
          !vo_->is_root_admin(identity)) {
        return http::Response::make(403, "file access denied\n");
      }
      std::string scope = router_->prefix_of(path);
      // Read-only ticket: the GET ticket travels in a query string that
      // proxies and access logs capture, so even a leaked token must
      // never authorize a mutation (see docs/FEDERATION.md).
      std::string ticket = router_->mint_ticket(identity.str(), via_proxy,
                                                proxy_serial, scope,
                                                /*write=*/false);
      client::PeerEndpoint endpoint = client::PeerEndpoint::parse(owner->url);
      // The path was %-decoded by request.path(); re-encode it (keeping
      // '/') so names with spaces/'#'/'&' survive as a well-formed URL.
      // The ticket itself is hex-safe by construction.
      std::string location = std::string(endpoint.tls ? "https" : "http") +
                             "://" + endpoint.host + ":" +
                             std::to_string(endpoint.port) +
                             http::url_encode(path) + "?ticket=" + ticket;
      // Byte-range parameters survive the hop.
      for (const char* key : {"offset", "length"}) {
        if (auto param = query.find(key); param != query.end()) {
          location += "&" + std::string(key) + "=" +
                      http::url_encode(param->second);
        }
      }
      http::Response response =
          http::Response::make(307, "file is on " + owner->url + "\n");
      response.reason = http::reason_phrase(307);
      response.headers.set("Location", location);
      return response;
    }
  }

  try {
    std::string real = files_->resolve_for_read(path, identity);
    FileStat st = files_->stat(path, identity);
    if (st.is_directory) {
      // Simple index listing, as the paper's file browser component shows.
      // Path and names are user-writable: escape them, or a file name
      // becomes script on the portal's origin.
      std::string body =
          "<html><body><h2>" + rpc::xml_escape(path) + "</h2><ul>";
      for (const auto& entry : files_->ls(path, identity)) {
        body += "<li>" + rpc::xml_escape(entry.name) +
                (entry.is_directory ? "/" : "") + "</li>";
      }
      body += "</ul></body></html>";
      return http::Response::make(200, body, "text/html");
    }
    http::Response response = http::Response::make(200, "", "application/octet-stream");
    // Range support: "offset-length" via query (?offset=&length=).
    std::int64_t offset = 0, length = -1;
    if (auto it = query.find("offset"); it != query.end()) {
      offset = util::parse_int(it->second);
    }
    if (auto it = query.find("length"); it != query.end()) {
      length = util::parse_int(it->second);
    }
    response.file = http::Response::FileRegion{real, offset, length};
    return response;
  } catch (const AccessError& e) {
    return http::Response::make(403, std::string(e.what()) + "\n");
  } catch (const NotFoundError& e) {
    return http::Response::make(404, std::string(e.what()) + "\n");
  }
}

}  // namespace clarens::core
