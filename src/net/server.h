// Pipelined binary-protocol KV server over a KvBackend.
//
// Architecture: N worker threads, each owning a private epoll instance
// and a private SO_REUSEPORT listening socket on the same address, so
// the kernel load-balances accepted connections across workers and no
// connection ever migrates between threads — per-connection state needs
// no locking. All sockets are non-blocking; the event loop is
// level-triggered.
//
// Serving model (the reason this server exists — see DESIGN.md
// "Serving path"): a connection's readable bytes are drained in one
// gulp, every complete frame is decoded, and maximal runs of
// consecutive read requests (GET / MGET) are coalesced into ONE
// KvBackend::FindBatch call — which ShardedIndex partitions by shard,
// locks once per shard, and descends with the grouped level-wise batch
// traversal once the run clears the UseGroupedDescent heuristic. Write
// ops (PUT / DEL) act as barriers: they execute at their pipeline
// position, so a client that pipelines PUT(k) followed by GET(k)
// observes its own write. Replies are encoded in request order, exactly
// one response frame per request frame.
//
// Robustness:
//   * malformed frames get a typed error reply (kStatusMalformed /
//     kStatusUnknownOp); framing-level violations (length prefix over
//     kMaxFrameBytes) get kStatusTooLarge and the connection is closed
//     (the stream cannot be resynced);
//   * a PUT the backend has no room for (std::bad_alloc) gets
//     kStatusNoSpace; the connection and the worker keep serving;
//   * per-connection read and write buffers are capped — a connection
//     whose write buffer exceeds write_buffer_limit stops being read
//     (backpressure) until the peer drains it;
//   * idle connections (no bytes for idle_timeout_ms) and stalled
//     partial frames (incomplete for request_timeout_ms) are closed;
//   * Stop() drains gracefully: accepting stops, already-received
//     pipelines are executed and their replies flushed (bounded by
//     drain_timeout_ms), then connections close.
//
// Observability: counters/gauges/histograms under "net.*" in the global
// MetricsRegistry (connections, in-flight requests, coalesced batch
// sizes, per-op service-time histograms, malformed/timeout counts), all
// exported by the existing /metrics surface. Sampled descents triggered
// by a connection's requests carry the connection and wire request id
// (obs::SetTraceRequestContext) into /tracez. When the request tracer
// (obs/request_trace.h) is armed, every wire request additionally
// accumulates end-to-end spans — socket_read, coalesce_wait,
// shard_fanout, descent, write_flush — with tail-based retention into
// /requestz, and retained trace ids surface as OpenMetrics exemplars on
// the per-op latency histograms. Stop() flips the process-wide drain
// flag (obs::SetHealthDraining) before closing listeners, so /healthz
// turns 503 "draining" while in-flight pipelines finish.

#ifndef SIMDTREE_NET_SERVER_H_
#define SIMDTREE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/backend.h"
#include "obs/metrics.h"

namespace simdtree::net {

struct KvServerOptions {
  uint16_t port = 0;                  // 0 = ephemeral (read back via port())
  std::string bind_addr = "127.0.0.1";
  int num_workers = 2;                // epoll worker threads
  size_t write_buffer_limit = 4u << 20;   // backpressure threshold (bytes)
  size_t read_buffer_limit = 4u << 20;    // pipeline bytes read per conn
  int idle_timeout_ms = 60000;        // close after this much silence
  int request_timeout_ms = 5000;      // max age of an incomplete frame
  int drain_timeout_ms = 2000;        // graceful-stop flush bound

  // Request-span tail sampling (obs/request_trace.h): a nonzero value
  // in either field (re)configures the global RequestTracer on Start —
  // head-sample 1 in request_sample completed requests, always retain
  // requests slower than request_slow_ns end-to-end. Both zero leaves
  // the tracer's existing (env-derived) configuration untouched.
  uint32_t request_sample = 0;
  uint64_t request_slow_ns = 0;

  // Test hook: when test_slow_ns is nonzero, any request touching
  // test_slow_key stalls that long inside its timed execute region.
  // Differential tests use it to manufacture one deterministic
  // slow-threshold breach; production configs leave it zero.
  uint64_t test_slow_key = 0;
  uint64_t test_slow_ns = 0;
};

// Pre-resolved "net.*" metric pointers (one relaxed atomic op each on
// the hot path). Shared by all workers of one server.
struct NetMetrics {
  obs::Counter* accepted = nullptr;
  obs::Counter* closed = nullptr;
  obs::Counter* requests = nullptr;
  obs::Counter* malformed = nullptr;
  obs::Counter* timeouts = nullptr;
  obs::Counter* backpressure_pauses = nullptr;
  obs::Gauge* connections = nullptr;
  obs::Gauge* in_flight = nullptr;
  obs::LogHistogram* coalesced_batch = nullptr;  // keys per FindBatch call
  obs::LogHistogram* op_get_ns = nullptr;
  obs::LogHistogram* op_mget_ns = nullptr;
  obs::LogHistogram* op_lower_bound_ns = nullptr;
  obs::LogHistogram* op_put_ns = nullptr;
  obs::LogHistogram* op_del_ns = nullptr;
  obs::LogHistogram* op_stats_ns = nullptr;

  // Exemplar stores paired with the per-op histograms: trace ids of
  // tail-retained requests are offered here and surface on /metrics
  // bucket lines, linking a scrape's p999 bucket to /requestz.
  obs::ExemplarStore* ex_get = nullptr;
  obs::ExemplarStore* ex_mget = nullptr;
  obs::ExemplarStore* ex_lower_bound = nullptr;
  obs::ExemplarStore* ex_put = nullptr;
  obs::ExemplarStore* ex_del = nullptr;

  static NetMetrics Register();
};

class KvServer {
 public:
  // The backend is borrowed; it must outlive the server.
  // Out-of-line because Worker is incomplete here (unique_ptr member).
  explicit KvServer(KvBackend* backend);
  ~KvServer();  // Stops the server if running

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  // Binds the listening sockets and starts the worker threads. Returns
  // false with the OS error in error(). Start on a running server is a
  // no-op returning true.
  bool Start(const KvServerOptions& options);

  // Graceful drain: stops accepting, executes already-received
  // pipelines, flushes replies (bounded by drain_timeout_ms), closes
  // every connection, joins the workers. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // The bound port (resolves an ephemeral bind); 0 before Start.
  uint16_t port() const { return port_; }

  const std::string& error() const { return error_; }

 private:
  struct Worker;  // defined in server.cc (epoll state, connection table)

  KvBackend* backend_;
  KvServerOptions options_;
  NetMetrics metrics_;
  uint16_t port_ = 0;
  std::string error_;
  std::atomic<bool> running_{false};
  std::atomic<uint32_t> next_conn_id_{1};
  std::atomic<int64_t> in_flight_{0};  // requests parsed, reply not sent
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  friend struct Worker;
};

}  // namespace simdtree::net

#endif  // SIMDTREE_NET_SERVER_H_
