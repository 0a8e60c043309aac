#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <new>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "obs/profiler.h"
#include "obs/request_trace.h"
#include "obs/stats_server.h"
#include "util/cycle_timer.h"

namespace simdtree::net {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The worker loop's tick: its epoll_wait timeout, and how long a listener
// paused on descriptor exhaustion stays out of the epoll set.
constexpr int kTickMs = 100;

uint64_t ElapsedNs(uint64_t start_cycles) {
  return static_cast<uint64_t>(
      CycleTimer::ToNanoseconds(CycleTimer::Now() - start_cycles));
}

uint64_t CyclesToNs(uint64_t cycles) {
  return static_cast<uint64_t>(CycleTimer::ToNanoseconds(cycles));
}

// One decoded frame of a connection's pipeline, ready to execute.
struct PendingRequest {
  Request req;
  DecodeResult rc = DecodeResult::kOk;
};

obs::ExemplarStore* ExemplarForOp(const NetMetrics& m, uint8_t opcode) {
  switch (opcode) {
    case kOpGet: return m.ex_get;
    case kOpMget: return m.ex_mget;
    case kOpLowerBound: return m.ex_lower_bound;
    case kOpPut: return m.ex_put;
    case kOpDel: return m.ex_del;
    default: return nullptr;  // stats/error replies carry no exemplar
  }
}

// Copies the index-internal sub-phases (shard_fanout, descent) the
// concurrency wrappers marked into the collector onto one request's
// trace.
void AppendCollectedSpans(obs::RequestTrace* t,
                          const obs::SpanCollector& collector) {
  for (int s = 0; s < collector.count; ++s) {
    const obs::RequestSpan& cs = collector.spans[s];
    obs::AppendRequestSpan(t, static_cast<obs::RequestSpanKind>(cs.kind),
                           cs.start_ns, cs.duration_ns);
  }
}

}  // namespace

NetMetrics NetMetrics::Register() {
  auto& reg = obs::MetricsRegistry::Global();
  NetMetrics m;
  m.accepted = reg.GetCounter("net.accepted");
  m.closed = reg.GetCounter("net.closed");
  m.requests = reg.GetCounter("net.requests");
  m.malformed = reg.GetCounter("net.malformed");
  m.timeouts = reg.GetCounter("net.timeouts");
  m.backpressure_pauses = reg.GetCounter("net.backpressure_pauses");
  m.connections = reg.GetGauge("net.connections");
  m.in_flight = reg.GetGauge("net.in_flight");
  m.coalesced_batch = reg.GetHistogram("net.coalesced_batch");
  m.op_get_ns = reg.GetHistogram("net.op_get_ns");
  m.op_mget_ns = reg.GetHistogram("net.op_mget_ns");
  m.op_lower_bound_ns = reg.GetHistogram("net.op_lower_bound_ns");
  m.op_put_ns = reg.GetHistogram("net.op_put_ns");
  m.op_del_ns = reg.GetHistogram("net.op_del_ns");
  m.op_stats_ns = reg.GetHistogram("net.op_stats_ns");
  m.ex_get = reg.GetExemplars("net.op_get_ns");
  m.ex_mget = reg.GetExemplars("net.op_mget_ns");
  m.ex_lower_bound = reg.GetExemplars("net.op_lower_bound_ns");
  m.ex_put = reg.GetExemplars("net.op_put_ns");
  m.ex_del = reg.GetExemplars("net.op_del_ns");
  return m;
}

// Per-worker state. Each worker owns its connections exclusively: a fd
// accepted on this worker's SO_REUSEPORT listener is registered in this
// worker's epoll and never leaves, so none of this needs a lock.
struct KvServer::Worker {
  struct Conn {
    int fd = -1;
    uint32_t id = 0;
    std::vector<uint8_t> rbuf;
    std::vector<uint8_t> wbuf;
    size_t woff = 0;                 // flushed prefix of wbuf
    int64_t last_rx_ms = 0;          // last byte received
    int64_t partial_since_ms = -1;   // incomplete frame pending since
    bool paused = false;             // EPOLLIN off (write backpressure)
    bool close_after_flush = false;

    size_t pending_write() const { return wbuf.size() - woff; }
  };

  KvServer* server = nullptr;
  int epoll_fd = -1;
  int listen_fd = -1;
  int wake_fd = -1;
  int64_t accept_paused_ms = -1;  // when Accept paused the listener
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  std::atomic<size_t> open_conns{0};  // read by other threads via gauge

  // Shared scratch for read-run coalescing (reused across pipelines).
  std::vector<uint64_t> batch_keys;
  std::vector<std::optional<uint64_t>> batch_out;

  // Request-span scratch, one slot per pipeline entry; only populated
  // while the request tracer is armed (empty otherwise).
  std::vector<obs::RequestTrace> trace_scratch;

  ~Worker() {
    for (auto& [fd, conn] : conns) ::close(fd);
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  // Binds an SO_REUSEPORT listener on addr:port and sets up the epoll
  // set. Returns false with *err filled on failure.
  bool Init(const std::string& addr, uint16_t port, std::string* err) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd < 0) {
      *err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) != 0) {
      *err = std::string("SO_REUSEPORT: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    if (::inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1) {
      *err = "invalid bind address: " + addr;
      return false;
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::listen(listen_fd, 128) != 0) {
      *err = std::string("bind/listen: ") + std::strerror(errno);
      return false;
    }
    wake_fd = ::eventfd(0, EFD_NONBLOCK);
    epoll_fd = ::epoll_create1(0);
    if (wake_fd < 0 || epoll_fd < 0) {
      *err = std::string("eventfd/epoll_create1: ") + std::strerror(errno);
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev);
    ev.data.fd = wake_fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev);
    return true;
  }

  uint16_t BoundPort() const {
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(
                                     const_cast<sockaddr_in*>(&sa)),
                      &len) != 0) {
      return 0;
    }
    return ntohs(sa.sin_port);
  }

  void Wake() const {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  void UpdateEvents(Conn* c, bool draining) {
    epoll_event ev{};
    ev.data.fd = c->fd;
    if (!c->paused && !c->close_after_flush && !draining) {
      ev.events |= EPOLLIN;
    }
    if (c->pending_write() > 0) ev.events |= EPOLLOUT;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  }

  void CloseConn(Conn* c) {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    server->metrics_.closed->Add();
    conns.erase(c->fd);  // destroys *c
    open_conns.fetch_sub(1, std::memory_order_relaxed);
    PublishConnGauge();
  }

  void PublishConnGauge() {
    size_t total = 0;
    for (const auto& w : server->workers_) {
      total += w->open_conns.load(std::memory_order_relaxed);
    }
    server->metrics_.connections->Set(static_cast<double>(total));
  }

  // Sets the listener's epoll events: EPOLLIN, or none while accepting
  // is paused.
  void WatchListener(uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = listen_fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, listen_fd, &ev);
  }

  void Accept() {
    while (true) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        // Out of descriptors or kernel memory: the connection stays in
        // the backlog, and the level-triggered listener would wake the
        // loop again at once. Stop watching it until the next tick.
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          WatchListener(0);
          accept_paused_ms = NowMs();
        }
        return;  // EAGAIN or transient error: back to epoll
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->id = server->next_conn_id_.fetch_add(
          1, std::memory_order_relaxed);
      conn->last_rx_ms = NowMs();
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
      conns.emplace(fd, std::move(conn));
      open_conns.fetch_add(1, std::memory_order_relaxed);
      server->metrics_.accepted->Add();
      PublishConnGauge();
    }
  }

  // Drains readable bytes (one gulp, until EAGAIN or the read cap),
  // then executes every complete frame. Returns false when the
  // connection was closed.
  bool HandleReadable(Conn* c, bool draining) {
    // Disarmed, span recording costs this one relaxed load per drain.
    const bool tracing = obs::RequestTracer::Global().enabled();
    const uint64_t gulp_start = tracing ? CycleTimer::Now() : 0;
    char buf[16 * 1024];
    bool peer_closed = false;
    while (c->rbuf.size() < server->options_.read_buffer_limit) {
      const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c->rbuf.insert(c->rbuf.end(), buf, buf + n);
        c->last_rx_ms = NowMs();
        continue;
      }
      if (n == 0) {
        peer_closed = true;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // drained
      } else if (errno == EINTR) {
        continue;
      } else {
        peer_closed = true;  // hard socket error
      }
      break;
    }
    const uint64_t read_ns = tracing ? ElapsedNs(gulp_start) : 0;
    if (!ProcessPipeline(c, draining, tracing, gulp_start, read_ns)) {
      return false;  // conn closed
    }
    if (peer_closed) {
      CloseConn(c);
      return false;
    }
    return true;
  }

  // Extracts and executes every complete frame in c->rbuf, appends the
  // replies to c->wbuf in request order, flushes. Returns false when
  // the connection was closed (framing violation or flush failure).
  bool ProcessPipeline(Conn* c, bool draining, bool tracing,
                      uint64_t gulp_start_cycles, uint64_t read_ns) {
    std::vector<PendingRequest> pipeline;
    size_t off = 0;
    bool framing_violation = false;
    while (true) {
      const uint8_t* payload;
      size_t payload_len, consumed;
      const int rc = ExtractFrame(c->rbuf.data(), c->rbuf.size(), off,
                                  &payload, &payload_len, &consumed);
      if (rc == 0) break;
      if (rc < 0) {
        framing_violation = true;
        break;
      }
      PendingRequest p;
      p.rc = DecodeRequest(payload, payload_len, &p.req);
      pipeline.push_back(std::move(p));
      off += consumed;
    }
    c->rbuf.erase(c->rbuf.begin(),
                  c->rbuf.begin() + static_cast<ptrdiff_t>(off));
    c->partial_since_ms = c->rbuf.empty() ? -1 : NowMs();

    // Each decoded frame gets its trace id HERE — before execution —
    // so a request that stalls mid-pipeline is already identifiable.
    trace_scratch.clear();
    if (tracing && !pipeline.empty()) {
      auto& tracer = obs::RequestTracer::Global();
      const uint64_t gulp_start_ns = CyclesToNs(gulp_start_cycles);
      trace_scratch.reserve(pipeline.size());
      for (const PendingRequest& p : pipeline) {
        obs::RequestTrace t;
        t.trace_id = tracer.NextTraceId();
        t.start_ns = gulp_start_ns;
        t.conn_id = c->id;
        t.request_id = p.req.request_id;
        t.opcode = p.req.opcode;
        // The gulp that delivered this frame also delivered its pipeline
        // siblings; they honestly share one socket_read span.
        obs::AppendRequestSpan(&t, obs::RequestSpanKind::kSocketRead,
                               gulp_start_ns, read_ns);
        trace_scratch.push_back(t);
      }
    }

    if (!pipeline.empty()) {
      Execute(c, pipeline,
              trace_scratch.empty() ? nullptr : trace_scratch.data());
    }

    if (framing_violation) {
      server->metrics_.malformed->Add();
      AppendErrorResponse(&c->wbuf, kOpNone, kStatusTooLarge, 0);
      c->close_after_flush = true;
      c->rbuf.clear();
      c->partial_since_ms = -1;
    }

    if (trace_scratch.empty()) return FlushAndManage(c, draining);

    // Tail decision happens after the flush, when end-to-end latency is
    // known. FlushAndManage may close the connection; the traces are
    // values, so finishing them stays safe either way.
    const uint64_t flush_start = CycleTimer::Now();
    const bool alive = FlushAndManage(c, draining);
    const uint64_t flush_ns = ElapsedNs(flush_start);
    const uint64_t flush_start_ns = CyclesToNs(flush_start);
    const uint64_t latency_ns = ElapsedNs(gulp_start_cycles);
    auto& tracer = obs::RequestTracer::Global();
    for (obs::RequestTrace& t : trace_scratch) {
      obs::AppendRequestSpan(&t, obs::RequestSpanKind::kWriteFlush,
                             flush_start_ns, flush_ns);
      t.latency_ns = latency_ns;
      if (tracer.Finish(&t) && t.status == kStatusOk) {
        // Retained traces are inspectable in /requestz, so their ids
        // may honestly serve as exemplars on the per-op histogram the
        // same service_ns was recorded into.
        obs::ExemplarStore* store = ExemplarForOp(server->metrics_, t.opcode);
        if (store != nullptr) store->Offer(t.service_ns, t.trace_id);
      }
    }
    trace_scratch.clear();
    return alive;
  }

  // Executes one pipeline: maximal runs of consecutive well-formed
  // GET/MGET requests coalesce into one backend FindBatch; everything
  // else (writes, lower bounds, stats, errors) executes at its pipeline
  // position, preserving the wire's sequential semantics.
  // Test hook: stalls the calling worker when the key set touches
  // options_.test_slow_key, manufacturing one deterministic
  // slow-threshold breach inside the timed execute region.
  void MaybeTestStall(const uint64_t* keys, size_t n) {
    const uint64_t stall_ns = server->options_.test_slow_ns;
    if (stall_ns == 0) return;
    for (size_t i = 0; i < n; ++i) {
      if (keys[i] == server->options_.test_slow_key) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
        return;
      }
    }
  }

  void Execute(Conn* c, std::vector<PendingRequest>& pipeline,
               obs::RequestTrace* traces) {
    NetMetrics& m = server->metrics_;
    m.requests->Add(pipeline.size());
    server->in_flight_.fetch_add(static_cast<int64_t>(pipeline.size()),
                                 std::memory_order_relaxed);
    m.in_flight->Set(static_cast<double>(
        server->in_flight_.load(std::memory_order_relaxed)));

    // Execute-entry timestamp anchors every request's coalesce_wait
    // span: how long its run sat behind earlier pipeline ops (writes
    // are barriers, so a read can queue behind a PUT).
    const uint64_t exec_start = traces != nullptr ? CycleTimer::Now() : 0;
    const uint64_t exec_start_ns =
        traces != nullptr ? CyclesToNs(exec_start) : 0;

    size_t i = 0;
    while (i < pipeline.size()) {
      const PendingRequest& p = pipeline[i];
      const bool is_read =
          p.rc == DecodeResult::kOk &&
          (p.req.opcode == kOpGet || p.req.opcode == kOpMget);
      if (is_read) {
        // Grow the run through every consecutive read request.
        size_t end = i;
        batch_keys.clear();
        while (end < pipeline.size()) {
          const PendingRequest& q = pipeline[end];
          if (q.rc != DecodeResult::kOk ||
              (q.req.opcode != kOpGet && q.req.opcode != kOpMget)) {
            break;
          }
          if (q.req.opcode == kOpGet) {
            batch_keys.push_back(q.req.key);
          } else {
            batch_keys.insert(batch_keys.end(), q.req.keys.begin(),
                              q.req.keys.end());
          }
          ++end;
        }
        batch_out.assign(batch_keys.size(), std::nullopt);
        // When tracing, the index wrappers mark their fan-out/descent
        // sub-phases into the collector.
        obs::SpanCollector collector;
        const uint64_t wait_ns =
            traces != nullptr ? ElapsedNs(exec_start) : 0;
        const obs::ServingScope serving(
            {c->id, pipeline[i].req.request_id,
             traces != nullptr ? &collector : nullptr});
        const uint64_t start = CycleTimer::Now();
        MaybeTestStall(batch_keys.data(), batch_keys.size());
        if (!batch_keys.empty()) {
          server->backend_->FindBatch(batch_keys.data(), batch_keys.size(),
                                      batch_out.data());
        }
        const uint64_t ns = ElapsedNs(start);
        m.coalesced_batch->Record(batch_keys.size());
        // Scatter results back into one reply per request, in order.
        size_t k = 0;
        for (size_t j = i; j < end; ++j) {
          const Request& r = pipeline[j].req;
          if (r.opcode == kOpGet) {
            const auto& v = batch_out[k++];
            AppendResponseFrame(
                &c->wbuf, kOpGet, kStatusOk, r.request_id,
                v.has_value() ? 9 : 1, [&v](std::vector<uint8_t>* o) {
                  PutU8(o, v.has_value() ? 1 : 0);
                  if (v.has_value()) PutU64(o, *v);
                });
            m.op_get_ns->Record(ns);
          } else {
            const uint32_t n = static_cast<uint32_t>(r.keys.size());
            AppendResponseFrame(
                &c->wbuf, kOpMget, kStatusOk, r.request_id,
                4 + static_cast<size_t>(n) * 9,
                [&](std::vector<uint8_t>* o) {
                  PutU32(o, n);
                  for (uint32_t e = 0; e < n; ++e) {
                    const auto& v = batch_out[k + e];
                    PutU8(o, v.has_value() ? 1 : 0);
                    PutU64(o, v.has_value() ? *v : 0);
                  }
                });
            k += n;
            m.op_mget_ns->Record(ns);
          }
          if (traces != nullptr) {
            // One coalesced FindBatch served every request of the run;
            // each carries a copy of the shared fan-out/descent spans
            // plus the batch size — those cycles were genuinely shared.
            obs::RequestTrace& t = traces[j];
            obs::AppendRequestSpan(&t, obs::RequestSpanKind::kCoalesceWait,
                                   exec_start_ns, wait_ns);
            AppendCollectedSpans(&t, collector);
            t.batch_keys = static_cast<uint32_t>(batch_keys.size());
            t.service_ns = ns;
            t.status = kStatusOk;
          }
        }
        i = end;
        continue;
      }
      ExecuteSingle(c, p, traces != nullptr ? &traces[i] : nullptr,
                    exec_start, exec_start_ns);
      ++i;
    }

    server->in_flight_.fetch_sub(static_cast<int64_t>(pipeline.size()),
                                 std::memory_order_relaxed);
    m.in_flight->Set(static_cast<double>(
        server->in_flight_.load(std::memory_order_relaxed)));
  }

  void ExecuteSingle(Conn* c, const PendingRequest& p,
                     obs::RequestTrace* trace, uint64_t exec_start,
                     uint64_t exec_start_ns) {
    NetMetrics& m = server->metrics_;
    const Request& r = p.req;
    if (p.rc != DecodeResult::kOk) {
      const uint8_t status = p.rc == DecodeResult::kUnknownOp
                                 ? kStatusUnknownOp
                                 : kStatusMalformed;
      m.malformed->Add();
      AppendErrorResponse(&c->wbuf, r.opcode, status, r.request_id);
      if (trace != nullptr) trace->status = status;
      return;
    }
    obs::SpanCollector collector;
    const uint64_t wait_ns = trace != nullptr ? ElapsedNs(exec_start) : 0;
    const obs::ServingScope serving(
        {c->id, r.request_id, trace != nullptr ? &collector : nullptr});
    const uint64_t start = CycleTimer::Now();
    MaybeTestStall(&r.key, 1);
    obs::LogHistogram* hist = nullptr;
    switch (r.opcode) {
      case kOpLowerBound: {
        uint64_t out_key = 0, out_value = 0;
        const bool found =
            server->backend_->LowerBound(r.key, &out_key, &out_value);
        AppendResponseFrame(
            &c->wbuf, kOpLowerBound, kStatusOk, r.request_id,
            found ? 17 : 1, [&](std::vector<uint8_t>* o) {
              PutU8(o, found ? 1 : 0);
              if (found) {
                PutU64(o, out_key);
                PutU64(o, out_value);
              }
            });
        hist = m.op_lower_bound_ns;
        break;
      }
      case kOpPut:
        try {
          server->backend_->Put(r.key, r.value);
        } catch (const std::bad_alloc&) {
          // The tree ran out of node space (e.g. arena refs exhausted).
          // Only this PUT fails: it gets a typed reply, is counted with
          // the other error replies in net.malformed (which the
          // availability SLO burns), and the worker keeps serving.
          m.malformed->Add();
          AppendErrorResponse(&c->wbuf, kOpPut, kStatusNoSpace,
                              r.request_id);
          if (trace != nullptr) trace->status = kStatusNoSpace;
          return;
        }
        AppendResponseFrame(&c->wbuf, kOpPut, kStatusOk, r.request_id, 0,
                            [](std::vector<uint8_t>*) {});
        hist = m.op_put_ns;
        break;
      case kOpDel: {
        const bool erased = server->backend_->Del(r.key);
        AppendResponseFrame(&c->wbuf, kOpDel, kStatusOk, r.request_id, 1,
                            [erased](std::vector<uint8_t>* o) {
                              PutU8(o, erased ? 1 : 0);
                            });
        hist = m.op_del_ns;
        break;
      }
      case kOpStats: {
        std::string json = server->backend_->StatsJson();
        if (json.size() > kMaxFrameBytes - 6) {
          json.resize(kMaxFrameBytes - 6);  // cap, never break framing
        }
        AppendResponseFrame(&c->wbuf, kOpStats, kStatusOk, r.request_id,
                            json.size(), [&json](std::vector<uint8_t>* o) {
                              o->insert(o->end(), json.begin(), json.end());
                            });
        hist = m.op_stats_ns;
        break;
      }
      default:
        // DecodeRequest only returns kOk for opcodes it knows; GET/MGET
        // never reach here (coalesced path).
        m.malformed->Add();
        AppendErrorResponse(&c->wbuf, r.opcode, kStatusUnknownOp,
                            r.request_id);
        if (trace != nullptr) trace->status = kStatusUnknownOp;
        return;
    }
    const uint64_t ns = ElapsedNs(start);
    hist->Record(ns);
    if (trace != nullptr) {
      obs::AppendRequestSpan(trace, obs::RequestSpanKind::kCoalesceWait,
                             exec_start_ns, wait_ns);
      if (collector.count > 0) {
        AppendCollectedSpans(trace, collector);
      } else {
        // Ops without wrapper hooks (single-key writes, stats): the
        // whole backend call is honestly one descent span.
        obs::AppendRequestSpan(trace, obs::RequestSpanKind::kDescent,
                               CyclesToNs(start), ns);
      }
      trace->service_ns = ns;
      trace->status = kStatusOk;
    }
  }

  // Flushes as much of wbuf as the socket accepts, applies the
  // backpressure policy, and closes when requested and fully flushed.
  // Returns false when the connection was closed.
  bool FlushAndManage(Conn* c, bool draining) {
    while (c->pending_write() > 0) {
      const ssize_t n = ::send(c->fd, c->wbuf.data() + c->woff,
                               c->pending_write(), MSG_NOSIGNAL);
      if (n > 0) {
        c->woff += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      CloseConn(c);  // peer gone
      return false;
    }
    if (c->woff == c->wbuf.size()) {
      c->wbuf.clear();
      c->woff = 0;
      if (c->close_after_flush) {
        CloseConn(c);
        return false;
      }
    } else if (c->woff > (1u << 16)) {
      c->wbuf.erase(c->wbuf.begin(),
                    c->wbuf.begin() + static_cast<ptrdiff_t>(c->woff));
      c->woff = 0;
    }
    // Backpressure: a peer that pipelines requests but does not drain
    // replies stops being read until its write buffer shrinks.
    const size_t pending = c->pending_write();
    if (!c->paused && pending > server->options_.write_buffer_limit) {
      c->paused = true;
      server->metrics_.backpressure_pauses->Add();
    } else if (c->paused &&
               pending < server->options_.write_buffer_limit / 2) {
      c->paused = false;
    }
    UpdateEvents(c, draining);
    return true;
  }

  // Closes idle connections and connections whose partial frame has
  // been incomplete for too long.
  void ScanTimeouts(int64_t now_ms) {
    std::vector<Conn*> doomed;
    for (auto& [fd, conn] : conns) {
      Conn* c = conn.get();
      if (c->partial_since_ms >= 0 &&
          now_ms - c->partial_since_ms >
              server->options_.request_timeout_ms) {
        doomed.push_back(c);
        continue;
      }
      if (c->pending_write() == 0 && c->partial_since_ms < 0 &&
          now_ms - c->last_rx_ms > server->options_.idle_timeout_ms) {
        doomed.push_back(c);
      }
    }
    for (Conn* c : doomed) {
      server->metrics_.timeouts->Add();
      CloseConn(c);
    }
  }

  void Run() {
    bool draining = false;
    int64_t drain_deadline = 0;
    epoll_event events[64];
    while (true) {
      // Continuous-profiler hookup: no-op (one acquire load) unless the
      // profiler is running; retried per wake so a profiler started
      // after the server still catches the worker threads.
      obs::ContinuousProfiler::Global().RegisterCurrentThread();
      if (!draining &&
          !server->running_.load(std::memory_order_acquire)) {
        draining = true;
        drain_deadline = NowMs() + server->options_.drain_timeout_ms;
        // Connections the kernel already established sit in the accept
        // queue until we accept4() them; closing the listener would RST
        // them mid-handshake. Adopt them first, then stop listening.
        Accept();
        ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
        ::close(listen_fd);
        listen_fd = -1;
        // One final gulp per connection: execute pipelines the kernel
        // already holds, then stop reading and flush.
        std::vector<int> fds;
        fds.reserve(conns.size());
        for (auto& [fd, conn] : conns) fds.push_back(fd);
        for (int fd : fds) {
          auto it = conns.find(fd);
          if (it == conns.end()) continue;
          Conn* c = it->second.get();
          if (!HandleReadable(c, /*draining=*/true)) continue;
          it = conns.find(fd);
          if (it == conns.end()) continue;
          c = it->second.get();
          c->close_after_flush = true;
          if (!FlushAndManage(c, /*draining=*/true)) continue;
        }
      }
      if (draining && (conns.empty() || NowMs() >= drain_deadline)) break;

      const int n = ::epoll_wait(epoll_fd, events, 64, kTickMs);
      for (int e = 0; e < n; ++e) {
        const int fd = events[e].data.fd;
        if (fd == wake_fd) {
          uint64_t tmp;
          [[maybe_unused]] ssize_t r = ::read(wake_fd, &tmp, sizeof(tmp));
          continue;
        }
        if (fd == listen_fd) {
          if (!draining) Accept();
          continue;
        }
        auto it = conns.find(fd);
        if (it == conns.end()) continue;
        Conn* c = it->second.get();
        if (events[e].events & (EPOLLERR | EPOLLHUP)) {
          CloseConn(c);
          continue;
        }
        if ((events[e].events & EPOLLIN) && !draining) {
          if (!HandleReadable(c, draining)) continue;
        }
        if (events[e].events & EPOLLOUT) {
          if (!FlushAndManage(c, draining)) continue;
        }
      }
      if (!draining) {
        const int64_t now_ms = NowMs();
        ScanTimeouts(now_ms);
        if (accept_paused_ms >= 0 &&
            now_ms - accept_paused_ms >= kTickMs) {
          WatchListener(EPOLLIN);
          accept_paused_ms = -1;
        }
      }
    }
    // Drain deadline passed (or everything flushed): force-close.
    std::vector<int> leftover;
    for (auto& [fd, conn] : conns) leftover.push_back(fd);
    for (int fd : leftover) {
      auto it = conns.find(fd);
      if (it != conns.end()) CloseConn(it->second.get());
    }
  }
};

bool KvServer::Start(const KvServerOptions& options) {
  if (running_.load(std::memory_order_acquire)) return true;
  error_.clear();
  options_ = options;
  if (options_.num_workers < 1) options_.num_workers = 1;
  metrics_ = NetMetrics::Register();
  if (options_.request_sample != 0 || options_.request_slow_ns != 0) {
    obs::RequestTracer::Global().Configure(options_.request_sample,
                                           options_.request_slow_ns);
  }

  workers_.clear();
  uint16_t bound_port = options_.port;
  for (int w = 0; w < options_.num_workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->server = this;
    // Worker 0 resolves an ephemeral port; the rest join it via
    // SO_REUSEPORT so the kernel spreads accepts across all workers.
    if (!worker->Init(options_.bind_addr, bound_port, &error_)) {
      workers_.clear();
      return false;
    }
    if (w == 0) bound_port = worker->BoundPort();
    workers_.push_back(std::move(worker));
  }
  port_ = bound_port;
  in_flight_.store(0, std::memory_order_relaxed);
  // A successful (re)start is serving again: /healthz recovers from any
  // earlier drain.
  obs::SetHealthDraining(false);
  running_.store(true, std::memory_order_release);
  threads_.clear();
  threads_.reserve(workers_.size());
  for (auto& worker : workers_) {
    threads_.emplace_back([w = worker.get()] { w->Run(); });
  }
  return true;
}

KvServer::KvServer(KvBackend* backend) : backend_(backend) {}

KvServer::~KvServer() { Stop(); }

void KvServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    workers_.clear();
    return;
  }
  // Flip /healthz to 503 "draining" BEFORE waking the workers: load
  // balancers must stop routing new traffic while in-flight pipelines
  // are still being flushed.
  obs::SetHealthDraining(true);
  for (auto& worker : workers_) worker->Wake();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  workers_.clear();
  port_ = 0;
}

}  // namespace simdtree::net
