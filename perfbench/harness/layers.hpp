// The metric catalogue and the layer replays of the traced run.
//
// A replay feeds one operation's captured inputs through a layer's public
// functions, each call inside its own span, so the traced run can say how
// much of an operation's latency each layer accounts for.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "core/acl.hpp"
#include "core/file_service.hpp"
#include "core/session.hpp"
#include "core/vo.hpp"
#include "db/store.hpp"
#include "http/message.hpp"
#include "rpc/protocol.hpp"
#include "tls/channel.hpp"
#include "tls/engine.hpp"
#include "trace.hpp"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (BENCHMARK.json "end_to_end").
extern const std::vector<MetricDef> kEndToEnd;
/// Printed by every traced run (BENCHMARK.json "per_layer"); a layer the
/// workload leaves idle reads 0.
extern const std::vector<MetricDef> kPerLayer;

/// Pre-fill every per-layer metric with 0 in its unit.
void zero_layer_metrics(Report& report);

/// The wire bytes of one RPC POST, as the synchronous client builds it.
std::string request_wire(clarens::rpc::Protocol protocol,
                         const clarens::rpc::Request& request,
                         const std::string& session,
                         const std::string& extra_header_name = "",
                         const std::string& extra_header_value = "");

/// Span names of a codec's parse / serialize replay.
std::string_view parse_span(clarens::rpc::Protocol protocol);
std::string_view serialize_span(clarens::rpc::Protocol protocol);

/// http::RequestParser over the captured request bytes, then the codec's
/// parse_request on the body and serialize_response on `response`.
void replay_request_path(SpanLog& log, std::uint64_t op, int root,
                         clarens::rpc::Protocol protocol,
                         const std::string& wire,
                         const clarens::rpc::Response& response);

/// A client/server engine pair handshaken in memory: the record layer and
/// handshake of tls:: without sockets.
class TlsPair {
 public:
  explicit TlsPair(const Pki& pki);

  /// Run a fresh handshake between two new engines.
  void handshake();
  /// Seal `bytes` on the client side and open them on the server side,
  /// each in its own span.
  void seal_and_open(SpanLog& log, std::uint64_t op, int root,
                     std::string_view bytes);

 private:
  clarens::tls::TlsConfig client_config_;
  clarens::tls::TlsConfig server_config_;
  std::unique_ptr<clarens::tls::Engine> client_;
  std::unique_ptr<clarens::tls::Engine> server_;
};

/// Private instances of the core layers for replaying operations that
/// mutate state (session creation, file writes, store puts), so a replay
/// never changes what the measured server holds. The store is journaled
/// in `dir`, like a server with data_dir set; files live under `dir`/data
/// as the virtual root "/data".
struct ScratchCore {
  explicit ScratchCore(const std::string& dir);

  clarens::db::Store store;
  clarens::core::VoManager vo;
  clarens::core::AclManager acl;
  clarens::core::FileService files;
  clarens::core::SessionManager sessions;
};

/// Median span duration in microseconds (0 when the span never ran).
double median_us(const SpanLog& log, std::string_view name);
/// Microseconds per KiB over every span called `name`.
double us_per_kib(const SpanLog& log, std::string_view name);
/// MB/s over every span called `name`.
double mb_per_s(const SpanLog& log, std::string_view name);

}  // namespace perfbench
