// Shared wiring for tests that run a federation head and storage nodes
// in-process: the node configuration and a polling wait.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "core/server.hpp"
#include "test_fixtures.hpp"

namespace clarens::testing {

constexpr const char* kClusterSecret = "federation-cluster-secret";

/// Poll until `predicate` holds or `seconds` elapse (sanitizer headroom).
template <typename F>
bool eventually(F predicate, int seconds = 5) {
  for (int i = 0; i < seconds * 50; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return predicate();
}

/// Node `node` of farm "fedfarm", publishing to the station on
/// `station_port`. Anyone may call the system, echo, file and replica
/// methods and read and write /data, which a storage node exports from
/// `data_dir`.
inline core::ClarensConfig node_config(const TestPki& pki,
                                       const std::string& node,
                                       core::NodeRole role,
                                       const std::string& data_dir,
                                       const std::string& head_url,
                                       std::uint16_t station_port) {
  core::ClarensConfig config;
  config.trust = pki.trust;
  config.admins = {"/O=testgrid.org/OU=People/CN=Alice Able"};
  core::AclSpec anyone;
  anyone.allow_dns = {core::AclSpec::kAnyone};
  config.initial_method_acls = {{"system", anyone},
                                {"echo", anyone},
                                {"file", anyone},
                                {"replica", anyone}};
  core::FileAcl facl;
  facl.read = anyone;
  facl.write = anyone;
  config.initial_file_acls = {{"/data", facl}};
  config.farm = "fedfarm";
  config.node = node;
  config.node_role = role;
  config.node_ticket_secret = kClusterSecret;
  config.head_url = head_url;
  config.station = {{"127.0.0.1", station_port}};
  config.publish_interval_ms = 100;
  config.federation_refresh_ms = 100;
  if (!data_dir.empty()) config.file_roots = {{"/data", data_dir}};
  return config;
}

}  // namespace clarens::testing
