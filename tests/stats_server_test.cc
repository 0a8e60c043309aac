// StatsServer robustness tests (obs/stats_server.h): raw-socket abuse
// beyond the happy-path scrape that trace_test covers — malformed
// request lines, oversized headers, unknown routes, non-GET methods,
// the configurable bind address, a slow client racing Stop(), and the
// `max` query parameter of the trace endpoints.

#include "obs/stats_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"

namespace simdtree {
namespace {

// Opens a loopback connection to `port`; returns the fd or -1.
int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends `request` verbatim and returns everything the server replies.
std::string RawExchange(uint16_t port, const std::string& request) {
  const int fd = ConnectTo(port);
  if (fd < 0) return "";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// Number of traces in the "recent" array of a /tracez or /requestz body.
int RecentCount(const std::string& response) {
  const size_t at = response.find("\"recent\":[");
  if (at == std::string::npos) return -1;
  int depth = 0;
  int count = 0;
  for (size_t i = at + 10; i < response.size(); ++i) {
    const char c = response[i];
    if (c == '{' && depth++ == 0) ++count;
    if (c == '}') --depth;
    if (c == ']' && depth == 0) return count;
  }
  return -1;
}

// /tracez?max=N and /requestz?max=N render the newest N recent traces;
// without `max`, or with a value that is not a number, they render all.
TEST(StatsServerTest, TraceEndpointsHonorMax) {
  constexpr int kTraces = 12;
  obs::Tracer::Global().Reset();
  for (int i = 0; i < kTraces; ++i) {
    obs::TraceScope scope;
    scope.Finish();
  }
  obs::RequestTracer& requests = obs::RequestTracer::Global();
  requests.Reset();
  requests.Configure(1, 0);
  for (int i = 0; i < kTraces; ++i) {
    obs::RequestTrace t;
    t.trace_id = requests.NextTraceId();
    ASSERT_TRUE(requests.Finish(&t));
  }
  requests.Configure(0, 0);
  for (const char* route : {"/tracez", "/requestz"}) {
    const std::string base(route);
    EXPECT_EQ(RecentCount(obs::StatsServer::HandleRequest(base + "?max=2")),
              2)
        << route;
    EXPECT_EQ(RecentCount(obs::StatsServer::HandleRequest(base)), kTraces)
        << route;
    EXPECT_EQ(RecentCount(obs::StatsServer::HandleRequest(base + "?max=2x")),
              kTraces)
        << route;
  }
  obs::Tracer::Global().Reset();
  requests.Reset();
}

TEST(StatsServerTest, MalformedRequestLineGets400) {
  obs::StatsServer server;
  ASSERT_TRUE(server.Start(0)) << server.error();

  // No spaces at all: not even a method token.
  EXPECT_NE(RawExchange(server.port(), "garbage\r\n\r\n").find("400"),
            std::string::npos);
  // A method that is not GET.
  EXPECT_NE(RawExchange(server.port(),
                        "POST /metrics HTTP/1.1\r\n\r\n")
                .find("400"),
            std::string::npos);
  // Empty request (peer writes nothing and shuts down).
  EXPECT_NE(RawExchange(server.port(), "").find("400"), std::string::npos);

  // The server survives all of it and still serves.
  const std::string ok =
      RawExchange(server.port(), "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(ok.find("200"), std::string::npos);
  server.Stop();
}

TEST(StatsServerTest, OversizedHeadersAreBounded) {
  obs::StatsServer server;
  ASSERT_TRUE(server.Start(0)) << server.error();

  // Headers way past the 16 KiB read cap: the server must stop reading
  // and answer (the request line itself is valid), not buffer forever.
  std::string req = "GET /healthz HTTP/1.1\r\n";
  req.append(64 * 1024, 'x');  // one endless pseudo-header, no terminator
  const std::string resp = RawExchange(server.port(), req);
  EXPECT_NE(resp.find("HTTP/1.1"), std::string::npos);

  // And the next scrape still works.
  EXPECT_NE(RawExchange(server.port(), "GET /metrics HTTP/1.1\r\n\r\n")
                .find("200"),
            std::string::npos);
  server.Stop();
}

TEST(StatsServerTest, UnknownRouteGets404) {
  obs::StatsServer server;
  ASSERT_TRUE(server.Start(0)) << server.error();
  const std::string resp =
      RawExchange(server.port(), "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(resp.find("404"), std::string::npos);
  EXPECT_NE(resp.find("not found"), std::string::npos);
  server.Stop();
}

TEST(StatsServerTest, ExplicitBindAddressWorks) {
  obs::StatsServer server;
  ASSERT_TRUE(server.Start(0, "0.0.0.0")) << server.error();
  // Wildcard bind is reachable over loopback.
  EXPECT_NE(RawExchange(server.port(), "GET /healthz HTTP/1.1\r\n\r\n")
                .find("200"),
            std::string::npos);
  server.Stop();

  // A non-address must fail fast with a clear error, not bind garbage.
  obs::StatsServer bad;
  EXPECT_FALSE(bad.Start(0, "not-an-address"));
  EXPECT_NE(bad.error().find("invalid bind address"), std::string::npos);
}

TEST(StatsServerTest, SlowClientDoesNotWedgeStop) {
  obs::StatsServer server;
  ASSERT_TRUE(server.Start(0)) << server.error();

  // A client that connects, dribbles half a request, and stalls. The
  // acceptor's receive timeout must bound it so Stop() completes.
  const int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  const char half[] = "GET /met";
  ASSERT_GT(::send(fd, half, sizeof(half) - 1, 0), 0);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // The acceptor's per-connection SO_RCVTIMEO is 2 s; Stop() must not
  // take more than one stalled request beyond that.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed)
                .count(),
            5);
  EXPECT_FALSE(server.running());
  ::close(fd);
}

TEST(StatsServerTest, StopIsIdempotentAndRestartable) {
  obs::StatsServer server;
  ASSERT_TRUE(server.Start(0)) << server.error();
  const uint16_t first_port = server.port();
  ASSERT_GT(first_port, 0);
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_EQ(server.port(), 0);

  ASSERT_TRUE(server.Start(0)) << server.error();
  EXPECT_NE(RawExchange(server.port(), "GET /healthz HTTP/1.1\r\n\r\n")
                .find("200"),
            std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace simdtree
