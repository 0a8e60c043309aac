// Minimal background-thread HTTP server for metric and trace scraping.
//
// Serves the observability GET routes:
//   /metrics       OpenMetrics text exposition (Prometheus-scrapable,
//                  with exemplars on the serving-latency buckets)
//   /metrics.json  the same registry as one JSON document
//   /tracez        recent + slow descent traces as JSON (?max=N keeps
//                  the newest N recent traces)
//   /requestz      recent + slow end-to-end request spans as JSON
//                  (?max=N likewise)
//   /profilez      continuous on-CPU profile, folded-stack text
//   /slo           SLO config + windowed burn-rate report as JSON
//                  (each scrape also ticks the monitor's window)
//   /healthz       readiness probe: "ok", or 503 "draining" once a
//                  graceful drain has begun (SetHealthDraining)
//
// Deliberately not a web framework: one acceptor thread, serial
// request handling, HTTP/1.1 with Connection: close, bound to
// 127.0.0.1 by default (pass an explicit bind address — e.g. "0.0.0.0"
// for a containerized Prometheus scraping over a bridge network — to
// widen it). A scrape every few seconds from one Prometheus instance is
// the design load; anything beyond that belongs behind a real ingress.
// Port 0 binds an ephemeral port (tests), readable via port() after
// Start().

#ifndef SIMDTREE_OBS_STATS_SERVER_H_
#define SIMDTREE_OBS_STATS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace simdtree::obs {

// Process-wide drain flag feeding /healthz: once a serving component
// begins graceful drain (KvServer::Stop), load balancers must see 503
// "draining" and stop routing new traffic BEFORE the listener closes.
// Set by net/server.cc; cleared on the next Start so in-process
// restarts (tests, rolling config reloads) recover.
void SetHealthDraining(bool draining);
bool HealthDraining();

class StatsServer {
 public:
  StatsServer() = default;
  ~StatsServer() { Stop(); }

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  // Binds `addr`:`port` (port 0 = ephemeral; addr defaults to loopback)
  // and starts the acceptor thread. Returns false with the OS error in
  // error() if the bind fails; calling Start on a running server is a
  // no-op returning true.
  bool Start(uint16_t port, const std::string& addr = "127.0.0.1");

  // Stops the acceptor and joins the thread. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // The bound port (resolves ephemeral binds); 0 before Start.
  uint16_t port() const { return port_; }

  const std::string& error() const { return error_; }

  // Route dispatch, exposed for tests: returns the full HTTP response
  // (status line + headers + body) for a request path.
  static std::string HandleRequest(const std::string& path);

 private:
  void AcceptLoop();

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::string error_;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace simdtree::obs

#endif  // SIMDTREE_OBS_STATS_SERVER_H_
