// Federated head routing for file.* (ISSUE 8 tentpole).
//
// On a head node these bindings *replace* the local file.* handlers
// registered by register_file_methods (Registry::bind replaces same-name
// registrations):
//
//   * Bulk data (file.read / file.write) and namespace mutations
//     (file.mkdir / file.rm) come back as redirect envelopes — the
//     client replays the call on the owning storage node with a
//     head-minted node ticket, so the bytes never cross the head.
//     Mutations redirect rather than proxy so a replay decision stays
//     with the client (proxying a non-idempotent call over a pooled
//     connection could double-execute on retry).
//   * Small metadata (file.stat / file.md5 / file.size) is proxied
//     head-side over the per-node keep-alive pool — one client hop.
//   * Namespace-spanning reads (file.ls / file.find) fan out to every
//     storage node concurrently and merge.
//   * file.locate (new) exposes the placement decision itself.
//
// When the ring is empty (no live storage node) every method falls back
// to the head's local FileService, so a degraded cluster behaves like a
// standalone server rather than erroring.
#include <algorithm>
#include <set>

#include "core/bindings/bindings.hpp"
#include "core/acl.hpp"
#include "core/file_service.hpp"
#include "core/server.hpp"
#include "core/vo.hpp"
#include "federation/replicator.hpp"
#include "federation/router.hpp"
#include "rpc/binding.hpp"
#include "rpc/fault.hpp"
#include "util/error.hpp"

namespace clarens::core::bindings {

namespace {

/// Head-side pre-check of the *file* ACL before a ticket is minted: a
/// caller the head would deny locally never receives a capability to
/// present elsewhere.
void check_file_access(ClarensServer& server, const rpc::CallContext& context,
                       const std::string& path, bool write) {
  pki::DistinguishedName dn = caller_dn(context);
  bool ok = write ? server.acl().check_file_write(path, dn)
                  : server.acl().check_file_read(path, dn);
  if (!ok && !server.vo().is_root_admin(dn)) {
    throw AccessError(std::string("file ") + (write ? "write" : "read") +
                      " access denied: " + path);
  }
}

std::string mint(federation::Router& router, const rpc::CallContext& context,
                 const std::string& scope, bool write) {
  return router.mint_ticket(context.identity, context.via_proxy,
                            context.proxy_serial, scope, write);
}

rpc::RedirectResult redirect_to(federation::Router& router,
                                const rpc::CallContext& context,
                                const federation::NodeInfo& node,
                                const std::string& path, bool write) {
  rpc::RedirectResult redirect;
  redirect.url = node.url;
  redirect.scope = router.prefix_of(path);
  redirect.ticket = mint(router, context, redirect.scope, write);
  return redirect;
}

/// Fan a read-only namespace call out to every storage node and hand the
/// per-node replies to `merge`. Nodes that fail with "not found" are
/// normal (the path simply isn't placed there); if *every* node fails,
/// the first error is rethrown as a fault.
std::vector<rpc::Value> fan_out_collect(federation::Router& router,
                                        const rpc::CallContext& context,
                                        const std::string& method,
                                        const std::string& path,
                                        const std::vector<rpc::Value>& params) {
  std::vector<federation::NodeInfo> nodes = router.storage_nodes();
  std::vector<client::FanOutReply> replies = router.fan_out(
      nodes, method, params, mint(router, context, "/", /*write=*/false));
  std::vector<rpc::Value> results;
  std::string first_error;
  for (auto& reply : replies) {
    if (reply.ok) {
      results.push_back(std::move(reply.result));
    } else if (first_error.empty()) {
      first_error = reply.error;
    }
  }
  if (results.empty() && !replies.empty()) {
    throw rpc::Fault(rpc::kFaultNotFound,
                     method + " '" + path + "' failed on every storage node: " +
                         first_error);
  }
  return results;
}

/// Node to serve a read of `path`. With a replicator attached (head with
/// replication wired up) the layout table drives the choice — healthy,
/// live, non-suspect replicas first — so reads keep succeeding while a
/// node is down. Without one, fall back to plain ring routing.
std::optional<federation::NodeInfo> pick_read(ClarensServer& server,
                                              federation::Router& router,
                                              const std::string& path) {
  if (federation::Replicator* rep = server.replicator()) {
    return rep->pick_read_node(path);
  }
  return router.route(path);
}

/// Record the intent of a write/append redirect in the layout table
/// before the client ever reaches the storage node: the layout reopens
/// with `primary` pending and every other replica stale.
void note_write(ClarensServer& server, const rpc::CallContext& context,
                const std::string& path, const federation::NodeInfo& primary) {
  if (federation::Replicator* rep = server.replicator()) {
    rep->note_write(path, primary.id,
                    {context.identity, context.via_proxy,
                     context.proxy_serial});
  }
}

}  // namespace

void register_federation_methods(ClarensServer& server,
                                 federation::Router& router,
                                 rpc::Registry& registry) {
  ClarensServer* s = &server;
  federation::Router* r = &router;
  FileService* files = &server.files();

  registry.bind(
      "file.read",
      [s, r, files](const rpc::CallContext& context, const std::string& path,
                    std::int64_t offset, std::int64_t length) -> rpc::Value {
        if (auto owner = pick_read(*s, *r, path)) {
          check_file_access(*s, context, path, /*write=*/false);
          return redirect_to(*r, context, *owner, path, /*write=*/false)
              .to_value();
        }
        return rpc::Value(files->read(path, offset, length,
                                      caller_dn(context)));
      },
      {.help = "Read a byte range (redirects to the owning storage node)",
       .params = {"path", "offset", "length"},
       .acl_path = "file.read"});

  registry.bind(
      "file.write",
      [s, r, files](const rpc::CallContext& context, const std::string& path,
                    rpc::Blob data) -> rpc::Value {
        if (auto owner = r->route(path)) {
          check_file_access(*s, context, path, /*write=*/true);
          note_write(*s, context, path, *owner);
          return redirect_to(*r, context, *owner, path, /*write=*/true)
              .to_value();
        }
        files->write(path, data.bytes, caller_dn(context));
        return rpc::Value(true);
      },
      {.help = "Create or overwrite a file (redirects to the owning node)",
       .params = {"path", "data"},
       .acl_path = "file.write"});

  registry.bind(
      "file.append",
      [s, r, files](const rpc::CallContext& context, const std::string& path,
                    rpc::Blob data) -> rpc::Value {
        if (auto owner = r->route(path)) {
          check_file_access(*s, context, path, /*write=*/true);
          note_write(*s, context, path, *owner);
          return redirect_to(*r, context, *owner, path, /*write=*/true)
              .to_value();
        }
        files->append(path, data.bytes, caller_dn(context));
        return rpc::Value(true);
      },
      {.help = "Append to a file (redirects to the owning node)",
       .params = {"path", "data"},
       .acl_path = "file.write"});

  registry.bind(
      "file.mkdir",
      [s, r, files](const rpc::CallContext& context,
                    const std::string& path) -> rpc::Value {
        if (auto owner = r->route(path)) {
          check_file_access(*s, context, path, /*write=*/true);
          return redirect_to(*r, context, *owner, path, /*write=*/true)
              .to_value();
        }
        files->mkdir(path, caller_dn(context));
        return rpc::Value(true);
      },
      {.help = "Create a directory (redirects to the owning node)",
       .params = {"path"},
       .acl_path = "file.mkdir"});

  registry.bind(
      "file.rm",
      [s, r, files](const rpc::CallContext& context,
                    const std::string& path) -> rpc::Value {
        if (auto owner = r->route(path)) {
          check_file_access(*s, context, path, /*write=*/true);
          // The client removes the primary copy; the replicator purges
          // the other replicas and the layout rows underneath `path`.
          if (federation::Replicator* rep = s->replicator()) {
            rep->note_remove(path);
          }
          return redirect_to(*r, context, *owner, path, /*write=*/true)
              .to_value();
        }
        files->remove(path, caller_dn(context));
        return rpc::Value(true);
      },
      {.help = "Remove a file or tree (redirects to the owning node)",
       .params = {"path"},
       .acl_path = "file.rm"});

  // Small metadata: one proxied hop over the keep-alive peer pool beats
  // bouncing the client (all three are idempotent, so a stale pooled
  // connection is retried safely by the peer client).
  for (const char* name :
       {"file.stat", "file.md5", "file.size", "file.checksum"}) {
    std::string method = name;
    registry.bind(
        method,
        [s, r, files, method](const rpc::CallContext& context,
                              const std::string& path) -> rpc::Value {
          std::vector<rpc::Value> params = {rpc::Value(path)};
          if (auto owner = pick_read(*s, *r, path)) {
            check_file_access(*s, context, path, /*write=*/false);
            std::string ticket =
                mint(*r, context, r->prefix_of(path), /*write=*/false);
            try {
              return r->call_on(*owner, method, params, ticket);
            } catch (const SystemError&) {
              // The node did not answer; mark it suspect so the client's
              // retry of this call lands on a healthy replica.
              if (federation::Replicator* rep = s->replicator()) {
                rep->report_failure(owner->url);
              }
              throw;
            }
          }
          pki::DistinguishedName dn = caller_dn(context);
          if (method == "file.md5") return rpc::Value(files->md5(path, dn));
          if (method == "file.size") return rpc::Value(files->size(path, dn));
          if (method == "file.checksum") {
            FileService::FileChecksum sum = files->checksum(path, dn);
            rpc::Value v = rpc::Value::struct_();
            v.set("md5", sum.md5);
            v.set("size", sum.size);
            return v;
          }
          FileStat st = files->stat(path, dn);
          rpc::Value v = rpc::Value::struct_();
          v.set("name", st.name);
          v.set("is_directory", st.is_directory);
          v.set("size", st.size);
          v.set("mtime", rpc::DateTime{st.mtime});
          return v;
        },
        {.help = std::string(name) + " proxied to the owning storage node",
         .params = {"path"},
         .acl_path = method});
  }

  registry.bind(
      "file.ls",
      [s, r, files](const rpc::CallContext& context,
                    const std::string& path) -> rpc::Value {
        std::vector<federation::NodeInfo> nodes = r->storage_nodes();
        if (nodes.empty()) {
          rpc::Value out = rpc::Value::array();
          for (const auto& st : files->ls(path, caller_dn(context))) {
            rpc::Value v = rpc::Value::struct_();
            v.set("name", st.name);
            v.set("is_directory", st.is_directory);
            v.set("size", st.size);
            v.set("mtime", rpc::DateTime{st.mtime});
            out.push(v);
          }
          return out;
        }
        check_file_access(*s, context, path, /*write=*/false);
        // One namespace, many nodes: merge the per-node listings and
        // dedupe by entry name (directories materialize on several
        // nodes; their listings differ, their names collide).
        std::vector<rpc::Value> listings = fan_out_collect(
            *r, context, "file.ls", path, {rpc::Value(path)});
        rpc::Value out = rpc::Value::array();
        std::set<std::string> seen;
        for (auto& listing : listings) {
          for (const auto& entry : listing.as_array()) {
            if (seen.insert(entry.at("name").as_string()).second) {
              out.push(entry);
            }
          }
        }
        return out;
      },
      {.help = "Directory listing merged across storage nodes",
       .params = {"path"},
       .acl_path = "file.ls"});

  registry.bind(
      "file.find",
      [s, r, files](const rpc::CallContext& context, const std::string& path,
                    const std::string& pattern) -> rpc::Value {
        std::vector<federation::NodeInfo> nodes = r->storage_nodes();
        if (nodes.empty()) {
          rpc::Value out = rpc::Value::array();
          for (const auto& hit :
               files->find(path, pattern, caller_dn(context))) {
            out.push(hit);
          }
          return out;
        }
        check_file_access(*s, context, path, /*write=*/false);
        std::vector<rpc::Value> per_node =
            fan_out_collect(*r, context, "file.find", path,
                            {rpc::Value(path), rpc::Value(pattern)});
        std::set<std::string> merged;
        for (auto& hits : per_node) {
          for (const auto& hit : hits.as_array()) {
            merged.insert(hit.as_string());
          }
        }
        rpc::Value out = rpc::Value::array();
        for (const auto& hit : merged) out.push(hit);
        return out;
      },
      {.help = "Recursive filename search fanned out across storage nodes",
       .params = {"path", "pattern"},
       .acl_path = "file.find"});

  registry.bind(
      "file.locate",
      [r](const rpc::CallContext&, const std::string& path) {
        rpc::Value v = rpc::Value::struct_();
        v.set("prefix", r->prefix_of(path));
        rpc::Value owners = rpc::Value::array();
        for (const auto& node : r->route_replicas(path)) {
          rpc::Value o = rpc::Value::struct_();
          o.set("id", node.id);
          o.set("url", node.url);
          owners.push(o);
        }
        v.set("owners", owners);
        return rpc::StructResult{std::move(v)};
      },
      {.help = "Placement decision: which storage nodes own a path",
       .params = {"path"}});
}

}  // namespace clarens::core::bindings
