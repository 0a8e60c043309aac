#include "obs/stats_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <string_view>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/request_trace.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "simd/dispatch.h"

namespace simdtree::obs {

namespace {

std::atomic<bool> g_health_draining{false};

}  // namespace

void SetHealthDraining(bool draining) {
  g_health_draining.store(draining, std::memory_order_release);
}

bool HealthDraining() {
  return g_health_draining.load(std::memory_order_acquire);
}

namespace {

// The `max` query parameter of a /tracez or /requestz path: how many
// recent traces to render. Absent, empty or not a decimal number: 0,
// which renders every retained trace.
size_t MaxRecentParam(const std::string& path) {
  const size_t query = path.find('?');
  if (query == std::string::npos) return 0;
  std::string_view rest(path);
  rest.remove_prefix(query + 1);
  while (!rest.empty()) {
    const std::string_view param = rest.substr(0, rest.find('&'));
    rest.remove_prefix(std::min(rest.size(), param.size() + 1));
    if (param.substr(0, 4) != "max=") continue;
    const std::string_view digits = param.substr(4);
    size_t max = 0;
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), max);
    const bool number =
        ec == std::errc() && end == digits.data() + digits.size();
    return number ? max : 0;
  }
  return 0;
}

// Publishes the runtime SIMD dispatch decision (simd/dispatch.h) as
// gauges, so /metrics scrapes carry the same provenance as the bench
// JSON headers: which backend serves searches in this process, its
// register width, whether SIMDTREE_FORCE_BACKEND pinned it, and which
// widths have native kernels compiled in. The values are fixed for the
// process lifetime; publishing is idempotent.
void PublishDispatchMetrics() {
  auto& reg = MetricsRegistry::Global();
  const simd::DispatchDecision& d = simd::ActiveDispatch();
  reg.GetGauge("simdtree_dispatch_level")
      ->Set(static_cast<double>(static_cast<int>(d.level)));
  reg.GetGauge("simdtree_dispatch_register_bits")
      ->Set(static_cast<double>(d.register_bits));
  reg.GetGauge("simdtree_dispatch_forced")->Set(d.forced ? 1.0 : 0.0);
  reg.GetGauge("simdtree_dispatch_native_128")
      ->Set(simd::NativeKernelsCompiled(128) ? 1.0 : 0.0);
  reg.GetGauge("simdtree_dispatch_native_256")
      ->Set(simd::NativeKernelsCompiled(256) ? 1.0 : 0.0);
  reg.GetGauge("simdtree_dispatch_native_512")
      ->Set(simd::NativeKernelsCompiled(512) ? 1.0 : 0.0);
}

std::string HttpResponse(int status, const char* reason,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                    "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

// Reads until the end of the request headers (blank line) or the
// buffer cap; returns the first request-line path, or "" on a
// malformed request. The server ignores request bodies — every route
// is a GET.
std::string ReadRequestPath(int fd) {
  std::string req;
  char buf[1024];
  while (req.size() < 16 * 1024 &&
         req.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    req.append(buf, static_cast<size_t>(n));
  }
  // "GET /path HTTP/1.1" — take the second token.
  const size_t sp1 = req.find(' ');
  if (sp1 == std::string::npos) return "";
  const size_t sp2 = req.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return "";
  if (req.compare(0, sp1, "GET") != 0) return "";
  return req.substr(sp1 + 1, sp2 - sp1 - 1);
}

void SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

}  // namespace

std::string StatsServer::HandleRequest(const std::string& path) {
  // Strip a query string: Prometheus may append one.
  const std::string route = path.substr(0, path.find('?'));
  PublishDispatchMetrics();
  PublishEpochStats();
  PublishBuildInfo();
  if (route == "/metrics") {
    return HttpResponse(
        200, "OK",
        "application/openmetrics-text; version=1.0.0; charset=utf-8",
        RenderOpenMetrics(MetricsRegistry::Global().Snap()));
  }
  if (route == "/metrics.json") {
    return HttpResponse(200, "OK", "application/json",
                        RenderMetricsJson(MetricsRegistry::Global(),
                                          Tracer::Global()));
  }
  if (route == "/tracez") {
    return HttpResponse(200, "OK", "application/json",
                        RenderTracezJson(Tracer::Global(),
                                         MaxRecentParam(path)));
  }
  if (route == "/requestz") {
    return HttpResponse(200, "OK", "application/json",
                        RenderRequestzJson(RequestTracer::Global(),
                                           MaxRecentParam(path)));
  }
  if (route == "/profilez") {
    // Always 200: on denied-PMU hosts the body is a comment line
    // explaining why, and scrape pipelines stay green.
    return HttpResponse(200, "OK", "text/plain",
                        ContinuousProfiler::Global().Collect());
  }
  if (route == "/slo") {
    // Scrape-driven ticking: every /slo poll extends the window, so
    // the monitor works without its background thread.
    SloMonitor::Global().Tick();
    return HttpResponse(200, "OK", "application/json",
                        SloMonitor::Global().ToJson());
  }
  if (route == "/healthz") {
    if (HealthDraining()) {
      return HttpResponse(503, "Service Unavailable", "text/plain",
                          "draining\n");
    }
    return HttpResponse(200, "OK", "text/plain", "ok\n");
  }
  return HttpResponse(404, "Not Found", "text/plain", "not found\n");
}

bool StatsServer::Start(uint16_t port, const std::string& bind_addr) {
  if (running_.load(std::memory_order_acquire)) return true;
  error_.clear();
  PublishDispatchMetrics();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    error_ = "invalid bind address: " + bind_addr;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    error_ = std::string("bind/listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ntohs(addr.sin_port);  // resolves an ephemeral bind
  } else {
    port_ = port;
  }

  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&StatsServer::AcceptLoop, this);
  return true;
}

void StatsServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // The acceptor polls with a timeout and rechecks running_, so it
  // notices the flag within one poll interval.
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  port_ = 0;
}

void StatsServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (rc <= 0) continue;  // timeout or EINTR: recheck running_
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // A stalled client must not wedge the single acceptor (or Stop()).
    timeval rcv_timeout{/*tv_sec=*/2, /*tv_usec=*/0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv_timeout,
                 sizeof(rcv_timeout));
    const std::string path = ReadRequestPath(fd);
    if (!path.empty()) {
      SendAll(fd, HandleRequest(path));
    } else {
      SendAll(fd, HttpResponse(400, "Bad Request", "text/plain",
                               "bad request\n"));
    }
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace simdtree::obs
