// Per-service method-binding units.
//
// Each register_* function attaches one service module's methods to the
// registry through the typed binding layer (rpc/binding.hpp): handlers
// declare C++ parameter types, signatures are derived from them, and
// per-method metadata (help, public flag, ACL path) lives next to the
// handler instead of in server-side name lists. ClarensServer calls
// these from its constructor / attach_* hooks and keeps only wiring,
// auth and HTTP handling for itself.
#pragma once

#include <functional>
#include <string>

#include "pki/dn.hpp"
#include "rpc/registry.hpp"

namespace clarens::discovery {
class DiscoveryServer;
}
namespace clarens::federation {
class LayoutTable;
class Replicator;
class Router;
}
namespace clarens::storage {
class SrmService;
}

namespace clarens::core {

class AclManager;
class ClarensServer;
class FileService;
class JobService;
class MessageService;
class ProxyService;
class ShellService;
class TransferService;
class VoManager;

namespace bindings {

/// The authenticated caller as a parsed DN (handlers receive the DN
/// string in the call context; services want the parsed form).
inline pki::DistinguishedName caller_dn(const rpc::CallContext& context) {
  return pki::DistinguishedName::parse(context.identity);
}

/// Ticket-authorized calls (storage nodes) are capabilities for one
/// namespace prefix: every file handler runs the touched path through
/// this before acting. No-op for session-authenticated callers (the ACL
/// chain already decided). Throws AccessError when the ticket's scope
/// does not cover `path`, or when `write` is requested on a read-only
/// ticket.
void check_ticket(const rpc::CallContext& context, const std::string& path,
                  bool write);

// system.* (+ echo.echo) touch server-wide state — sessions, the
// challenge table, config, the registry itself — so they take the server.
void register_system_methods(ClarensServer& server);

void register_vo_methods(VoManager& vo, rpc::Registry& registry);
void register_acl_methods(AclManager& acl, VoManager& vo,
                          rpc::Registry& registry);
/// Called after a ticket-authorized mutation lands bytes on disk; a
/// storage node uses it to send the head its landed-write notice
/// (replica.committed) so the layout table learns which node holds the
/// newest bytes without them ever crossing the head.
using CommitHook =
    std::function<void(const rpc::CallContext&, const std::string& path)>;

void register_file_methods(FileService& files, rpc::Registry& registry,
                           CommitHook on_commit = {});
void register_shell_methods(ShellService& shell, rpc::Registry& registry);
void register_job_methods(JobService& jobs, rpc::Registry& registry);
void register_proxy_methods(ProxyService& proxy, rpc::Registry& registry);
void register_message_methods(MessageService& messages,
                              rpc::Registry& registry);
void register_transfer_methods(TransferService& transfers,
                               rpc::Registry& registry);
void register_discovery_methods(discovery::DiscoveryServer& discovery,
                                rpc::Registry& registry);
void register_srm_methods(storage::SrmService& srm, rpc::Registry& registry);
/// Head role only: re-binds file.* with redirect/proxy/fan-out variants
/// and adds file.locate. Call after register_file_methods (bind replaces
/// same-name registrations).
void register_federation_methods(ClarensServer& server,
                                 federation::Router& router,
                                 rpc::Registry& registry);

/// Head role only: the replication control plane — file.layout and the
/// replica.* family (list/repair/drain/fsck/status/report/committed)
/// over the layout table and the background repair engine.
void register_replica_methods(ClarensServer& server,
                              federation::Router& router,
                              federation::LayoutTable& layouts,
                              federation::Replicator& replicator,
                              rpc::Registry& registry);

}  // namespace bindings
}  // namespace clarens::core
