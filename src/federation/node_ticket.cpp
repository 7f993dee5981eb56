#include "federation/node_ticket.hpp"

#include <span>
#include <vector>

#include "crypto/hmac.hpp"
#include "rpc/jsonrpc.hpp"
#include "rpc/value.hpp"
#include "util/hex.hpp"

namespace clarens::federation {

namespace {

constexpr const char* kVersion = "cnt1";

std::string mac_hex(std::string_view secret, std::string_view signed_part) {
  crypto::Sha256::Digest digest = crypto::hmac_sha256(secret, signed_part);
  return util::hex_encode(std::span<const std::uint8_t>(digest));
}

}  // namespace

std::string NodeTicket::mint(std::string_view secret) const {
  rpc::Value payload = rpc::Value::struct_();
  payload.set("dn", dn);
  payload.set("via_proxy", via_proxy);
  payload.set("proxy_serial", proxy_serial);
  payload.set("scope", scope);
  payload.set("write", write);
  if (replication) payload.set("replication", true);
  payload.set("exp", expires);
  std::string json = rpc::jsonrpc::serialize_value(payload);
  std::string signed_part =
      std::string(kVersion) + "." +
      util::hex_encode(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
  return signed_part + "." + mac_hex(secret, signed_part);
}

std::optional<NodeTicket> NodeTicket::verify(std::string_view secret,
                                             std::string_view token,
                                             std::int64_t now) {
  std::size_t first = token.find('.');
  if (first == std::string_view::npos) return std::nullopt;
  std::size_t second = token.find('.', first + 1);
  if (second == std::string_view::npos) return std::nullopt;
  if (token.substr(0, first) != kVersion) return std::nullopt;
  std::string_view signed_part = token.substr(0, second);
  std::string_view mac = token.substr(second + 1);
  std::string expect = mac_hex(secret, signed_part);
  // Both sides are our own hex; constant-time compare the MACs anyway
  // (the token comes off the wire).
  if (expect.size() != mac.size() ||
      !crypto::constant_time_equal(
          std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(expect.data()),
              expect.size()),
          std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(mac.data()), mac.size()))) {
    return std::nullopt;
  }
  try {
    std::vector<std::uint8_t> raw =
        util::hex_decode(token.substr(first + 1, second - first - 1));
    rpc::Value payload = rpc::jsonrpc::parse_value(std::string_view(
        reinterpret_cast<const char*>(raw.data()), raw.size()));
    NodeTicket ticket;
    ticket.dn = payload.at("dn").as_string();
    ticket.via_proxy = payload.at("via_proxy").as_bool();
    ticket.proxy_serial = payload.at("proxy_serial").as_string();
    ticket.scope = payload.at("scope").as_string();
    ticket.write = payload.at("write").as_bool();
    const rpc::Value* replication = payload.find("replication");
    ticket.replication = replication != nullptr && replication->as_bool();
    ticket.expires = payload.at("exp").as_int();
    if (ticket.expires < now) return std::nullopt;
    return ticket;
  } catch (const std::exception&) {
    // Undecodable payload under a valid MAC (rpc::Fault from at() is a
    // plain runtime_error, hence the wide catch).
    return std::nullopt;
  }
}

bool NodeTicket::scope_covers(const std::string& scope,
                              const std::string& path) {
  if (scope.empty() || scope == "/") return true;
  if (path.compare(0, scope.size(), scope) != 0) return false;
  return path.size() == scope.size() || path[scope.size()] == '/';
}

}  // namespace clarens::federation
