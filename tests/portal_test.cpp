// Tests for the browser-portal serving path (§3): built-in page, static
// pages from portal_dir with content types, containment, escaped
// directory listings, surviving a client that resets mid-download, and
// the JSON-RPC contract the portal JavaScript relies on.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "client/client.hpp"
#include "core/server.hpp"
#include "http/parser.hpp"
#include "net/socket.hpp"
#include "test_fixtures.hpp"

namespace clarens::core {
namespace {

using clarens::testing::TempDir;
using clarens::testing::TestPki;

ClarensConfig base_config(const TestPki& pki) {
  ClarensConfig config;
  config.trust = pki.trust;
  AclSpec anyone;
  anyone.allow_dns = {AclSpec::kAnyone};
  config.initial_method_acls = {{"system", anyone}};
  return config;
}

client::ClarensClient make_client(const TestPki& pki, std::uint16_t port) {
  client::ClientOptions options;
  options.port = port;
  options.trust = &pki.trust;
  return client::ClarensClient(options);
}

TEST(Portal, BuiltInPageWhenUnconfigured) {
  const TestPki& pki = TestPki::instance();
  ClarensServer server(base_config(pki));
  server.start();
  auto client = make_client(pki, server.port());
  client.connect();
  http::Response root = client.get("/");
  EXPECT_EQ(root.status, 200);
  EXPECT_NE(root.body.find("Clarens Web Service Framework"), std::string::npos);
  EXPECT_EQ(root.headers.get_or("Content-Type", ""), "text/html");
  // Without portal_dir, arbitrary portal paths are 404.
  EXPECT_EQ(client.get("/portal/app.js").status, 404);
  server.stop();
}

TEST(Portal, ServesStaticDirectoryWithContentTypes) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  std::string dir = tmp.sub("portal");
  std::ofstream(dir + "/index.html") << "<html>grid portal</html>";
  std::ofstream(dir + "/portal.js") << "const portal = {};";
  std::ofstream(dir + "/portal.css") << "body {}";

  ClarensConfig config = base_config(pki);
  config.portal_dir = dir;
  ClarensServer server(std::move(config));
  server.start();
  auto client = make_client(pki, server.port());
  client.connect();

  http::Response index = client.get("/");
  EXPECT_EQ(index.status, 200);
  EXPECT_EQ(index.body, "<html>grid portal</html>");
  EXPECT_EQ(index.headers.get_or("Content-Type", ""), "text/html");

  http::Response js = client.get("/portal/portal.js");
  EXPECT_EQ(js.status, 200);
  EXPECT_EQ(js.headers.get_or("Content-Type", ""), "application/javascript");
  http::Response css = client.get("/portal/portal.css");
  EXPECT_EQ(css.headers.get_or("Content-Type", ""), "text/css");

  EXPECT_EQ(client.get("/portal/missing.html").status, 404);
  EXPECT_EQ(client.get("/portal/../secret").status, 403);
  server.stop();
}

TEST(Portal, ShippedPortalAssetsServe) {
  // The repository's share/portal pages serve as-is. Resolve the
  // directory relative to the repo root or the build directory.
  std::string portal_dir;
  for (const char* candidate : {"share/portal", "../share/portal"}) {
    if (std::filesystem::exists(std::string(candidate) + "/index.html")) {
      portal_dir = candidate;
      break;
    }
  }
  if (portal_dir.empty()) {
    GTEST_SKIP() << "share/portal not found relative to the working directory";
  }
  const TestPki& pki = TestPki::instance();
  ClarensConfig config = base_config(pki);
  config.portal_dir = portal_dir;
  ClarensServer server(std::move(config));
  server.start();
  auto client = make_client(pki, server.port());
  client.connect();
  http::Response index = client.get("/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("Clarens Grid Portal"), std::string::npos);
  http::Response js = client.get("/portal/portal.js");
  EXPECT_EQ(js.status, 200);
  EXPECT_NE(js.body.find("X-Clarens-Session"), std::string::npos);
  server.stop();
}

// File and directory names are user-writable: a listing that pasted
// them into HTML would be stored script on the portal's origin.
TEST(Portal, DirectoryListingEscapesPathAndNames) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  std::string dir = tmp.sub("data");
  // The file "<script>x</script>": a directory "<script>x<" holding an
  // entry "script>".
  std::filesystem::create_directories(dir + "/<script>x<");
  std::ofstream(dir + "/<script>x</script>") << "x";

  ClarensConfig config = base_config(pki);
  FileAcl facl;
  facl.read.allow_dns = {AclSpec::kAnyone};
  config.initial_file_acls = {{"/data", facl}};
  config.file_roots = {{"/data", dir}};
  ClarensServer server(std::move(config));
  server.start();
  client::ClientOptions options;
  options.port = server.port();
  options.credential = pki.alice;
  options.trust = &pki.trust;
  client::ClarensClient client(options);
  client.authenticate();

  http::Response top = client.get("/data");
  ASSERT_EQ(top.status, 200);
  EXPECT_NE(top.body.find("<li>&lt;script&gt;x&lt;/</li>"), std::string::npos)
      << top.body;
  http::Response inner = client.get("/data/%3Cscript%3Ex%3C");
  ASSERT_EQ(inner.status, 200);
  EXPECT_NE(inner.body.find("<h2>/data/&lt;script&gt;x&lt;</h2>"),
            std::string::npos)
      << inner.body;
  EXPECT_NE(inner.body.find("<li>script&gt;</li>"), std::string::npos);
  for (const std::string& body : {top.body, inner.body}) {
    EXPECT_EQ(body.find("<script"), std::string::npos) << body;
  }
  server.stop();
}

// A client that resets the connection while a large file streams to it
// must cost that one connection, not the process (SIGPIPE's default
// action would end it).
TEST(Portal, ClientResetMidDownloadLeavesTheServerUp) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  std::string dir = tmp.sub("portal");
  // Sparse: large on the wire, nothing on disk.
  { std::ofstream create(dir + "/big.bin"); }
  std::filesystem::resize_file(dir + "/big.bin", 64 << 20);
  ClarensConfig config = base_config(pki);
  config.portal_dir = dir;
  ClarensServer server(std::move(config));
  server.start();

  for (int i = 0; i < 3; ++i) {
    net::TcpConnection conn =
        net::TcpConnection::connect("127.0.0.1", server.port());
    conn.write_all(std::string_view(
        "GET /portal/big.bin HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"));
    std::array<std::uint8_t, 64 * 1024> buf;
    ASSERT_GT(conn.read(buf), 0u);  // the transfer is under way
    linger reset{1, 0};             // close with RST, not FIN
    ASSERT_EQ(::setsockopt(conn.fd(), SOL_SOCKET, SO_LINGER, &reset,
                           sizeof(reset)),
              0);
    conn.close();
  }
  // Give the workers time to run into the resets before probing.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  auto client = make_client(pki, server.port());
  client.connect();
  http::Response pong = client.get("/ping");
  EXPECT_EQ(pong.status, 200);
  EXPECT_EQ(pong.body, "pong\n");
  server.stop();
}

// The portal's wire contract: JSON-RPC POST with the session header.
TEST(Portal, JsonRpcContractWorksUnauthenticatedForPublicMethods) {
  const TestPki& pki = TestPki::instance();
  ClarensServer server(base_config(pki));
  server.start();
  auto client = make_client(pki, server.port());
  client.connect();

  http::Request request;
  request.method = "POST";
  request.target = "/clarens";
  request.headers.set("Content-Type", "application/json");
  request.body = R"({"method":"system.ping","params":[],"id":1})";
  // Reuse the client's GET transport for a raw POST round-trip.
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  conn.write_all(request.serialize());
  http::ResponseParser parser;
  std::array<std::uint8_t, 8192> buf;
  std::optional<http::Response> response;
  while (!response) {
    std::size_t n = conn.read(buf);
    ASSERT_GT(n, 0u);
    parser.feed(std::span<const std::uint8_t>(buf.data(), n));
    response = parser.next();
  }
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"result\":\"pong\""), std::string::npos);
  EXPECT_NE(response->body.find("\"id\":1"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace clarens::core
