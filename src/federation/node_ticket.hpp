// Head-minted node tickets (ISSUE 8 tentpole, credential forwarding).
//
// In a federated deployment only the head node runs the full
// authentication stack (sessions, VO membership, ACLs). When it redirects
// a client to a storage node it mints a short-lived capability token —
// "this DN may touch this namespace prefix until <expiry>" — signed with
// the shared cluster secret. The storage node verifies the HMAC and
// trusts the embedded identity instead of re-running authentication;
// proxy_service delegated credentials ride the hop via `via_proxy` and
// `proxy_serial`.
//
// Wire format (header- and URL-safe by construction — both halves are
// lowercase hex):
//
//   cnt1.<hex(json payload)>.<hex(HMAC-SHA256(secret, "cnt1.<hex>"))>
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace clarens::federation {

struct NodeTicket {
  std::string dn;            // authenticated caller identity
  bool via_proxy = false;    // identity came from a stored proxy logon
  std::string proxy_serial;  // serial of the delegated proxy ("" = none)
  std::string scope;         // namespace prefix the ticket covers
  bool write = false;        // authorizes mutations (write/mkdir/rm)
  /// Minted by the head's repair engine for its own copies: the storage
  /// node skips the landed-write notice, which would otherwise reopen the
  /// layout the copy is completing. Signed like every other field, so a
  /// client cannot set it on its own write.
  bool replication = false;
  std::int64_t expires = 0;  // unix seconds; invalid after this instant

  /// Serialize + sign with the shared cluster secret.
  std::string mint(std::string_view secret) const;

  /// Verify signature and expiry (`now` in unix seconds). Returns the
  /// decoded ticket, or nullopt on any mismatch — malformed token, wrong
  /// secret, tampered payload, or expiry in the past. Never throws.
  static std::optional<NodeTicket> verify(std::string_view secret,
                                          std::string_view token,
                                          std::int64_t now);

  /// Does the ticket's scope cover `path`? Scope "/data/run1" covers
  /// "/data/run1" and anything below it; scope "" or "/" covers all.
  bool covers(const std::string& path) const {
    return scope_covers(scope, path);
  }

  /// The component-boundary subtree check behind covers(), usable on a
  /// bare scope string (the dispatcher hands handlers the scope, not the
  /// ticket).
  static bool scope_covers(const std::string& scope, const std::string& path);
};

}  // namespace clarens::federation
