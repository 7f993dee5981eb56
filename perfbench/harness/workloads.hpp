// The three workloads. Each fills `report` with every end-to-end metric
// and, with --trace 1, every per-layer metric (0 for idle layers).
#pragma once

#include <string>

#include "client/client.hpp"
#include "common.hpp"
#include "core/server.hpp"
#include "layers.hpp"
#include "trace.hpp"

namespace perfbench {

/// The paper's §4 server set-up: method ACLs granting the system, echo,
/// file, vo and acl modules to every authenticated identity.
clarens::core::ClarensConfig paper_config(const Pki& pki);

/// Client options for the benchmark user against 127.0.0.1:`port`.
clarens::client::ClientOptions client_options(const Pki& pki,
                                              std::uint16_t port,
                                              clarens::rpc::Protocol protocol,
                                              bool use_tls = false);

void run_fig4(const Args& args, Report& report);
void run_mix(const Args& args, Report& report);
void run_fed(const Args& args, Report& report);

/// Append the workload's generated inputs (everything the servers will
/// receive apart from server-issued tokens) to `stream`, in request wire
/// form. Same seed, same bytes.
void fig4_inputs(std::uint64_t seed, std::string& stream);
void mix_inputs(std::uint64_t seed, std::string& stream);
void fed_inputs(std::uint64_t seed, std::string& stream);

}  // namespace perfbench
