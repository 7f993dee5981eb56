#include "workloads.hpp"

namespace perfbench {

clarens::core::ClarensConfig paper_config(const Pki& pki) {
  clarens::core::AclSpec anyone;
  anyone.allow_dns = {clarens::core::AclSpec::kAnyone};
  clarens::core::ClarensConfig config;
  config.trust = pki.trust;
  config.credential = pki.server;
  config.admins = {"/O=benchgrid.org/OU=People/CN=Bench Admin"};
  config.initial_method_acls = {{"system", anyone}, {"echo", anyone},
                                {"file", anyone},   {"vo", anyone},
                                {"acl", anyone}};
  return config;
}

clarens::client::ClientOptions client_options(const Pki& pki,
                                              std::uint16_t port,
                                              clarens::rpc::Protocol protocol,
                                              bool use_tls) {
  clarens::client::ClientOptions options;
  options.port = port;
  options.protocol = protocol;
  options.credential = pki.user;
  options.trust = &pki.trust;
  options.use_tls = use_tls;
  return options;
}

}  // namespace perfbench
