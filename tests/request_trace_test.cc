// Request-span recorder tests (obs/request_trace.h) plus the
// end-to-end differential acceptance test for the observability path:
// a deliberately stalled request (KvServerOptions test hook) must be
// tail-retained with all five span kinds, appear in the /requestz
// payload, and surface its trace id as an OpenMetrics exemplar in the
// per-op latency bucket that contains its service time. Also covers
// the drain-aware /healthz surface.

#include "obs/request_trace.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/backend.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "segtree/segtree.h"

namespace simdtree::obs {
namespace {

using Tree = segtree::SegTree<uint64_t, uint64_t>;

RequestTrace MakeTrace(RequestTracer& tracer, uint64_t latency_ns) {
  RequestTrace t;
  t.trace_id = tracer.NextTraceId();
  t.latency_ns = latency_ns;
  t.service_ns = latency_ns / 2;
  AppendRequestSpan(&t, RequestSpanKind::kSocketRead, 0, 100);
  return t;
}

TEST(RequestTracerTest, DisarmedByDefaultAndAfterZeroConfigure) {
  auto& tracer = RequestTracer::Global();
  tracer.Reset();
  tracer.Configure(0, 0);
  EXPECT_FALSE(tracer.enabled());

  // Finish on a disarmed tracer retains nothing.
  RequestTrace t = MakeTrace(tracer, 1000);
  EXPECT_FALSE(tracer.Finish(&t));
  EXPECT_EQ(tracer.retained(), 0u);
}

TEST(RequestTracerTest, HeadSamplingIsDeterministic1InN) {
  auto& tracer = RequestTracer::Global();
  tracer.Reset();
  tracer.Configure(4, 0);
  ASSERT_TRUE(tracer.enabled());

  int kept = 0;
  for (int i = 0; i < 100; ++i) {
    RequestTrace t = MakeTrace(tracer, 1000);
    if (tracer.Finish(&t)) ++kept;
  }
  // Deterministic modulo on the completed counter: exactly 1 in 4.
  EXPECT_EQ(kept, 25);
  EXPECT_EQ(tracer.completed(), 100u);
  EXPECT_EQ(tracer.retained(), 25u);
  EXPECT_EQ(tracer.slow_retained(), 0u);
  EXPECT_EQ(tracer.Snapshot().size(), 25u);
  tracer.Configure(0, 0);
}

TEST(RequestTracerTest, SlowThresholdAlwaysRetains) {
  auto& tracer = RequestTracer::Global();
  tracer.Reset();
  // Head sampling off: only the slow threshold retains.
  tracer.Configure(0, 5000);
  ASSERT_TRUE(tracer.enabled());

  for (int i = 0; i < 20; ++i) {
    RequestTrace fast = MakeTrace(tracer, 1000);
    EXPECT_FALSE(tracer.Finish(&fast));
  }
  RequestTrace slow = MakeTrace(tracer, 9000);
  const uint64_t slow_id = slow.trace_id;
  EXPECT_TRUE(tracer.Finish(&slow));
  EXPECT_EQ(slow.slow, 1u);

  EXPECT_EQ(tracer.slow_retained(), 1u);
  const auto log = tracer.SlowSnapshot();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].trace_id, slow_id);
  EXPECT_EQ(log[0].latency_ns, 9000u);
  tracer.Configure(0, 0);
}

TEST(RequestTracerTest, TraceIdsAreUniqueAndNonzero) {
  auto& tracer = RequestTracer::Global();
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = tracer.NextTraceId();
    EXPECT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(CollectedSpanScopeTest, DisarmedRecordsNothing) {
  ASSERT_EQ(CurrentServingContext().collector, nullptr);
  { CollectedSpanScope scope(RequestSpanKind::kDescent); }
  // Nothing to observe — the contract is simply "no crash, no
  // collector writes"; an armed collector below proves the positive.
  SUCCEED();
}

TEST(CollectedSpanScopeTest, ArmedCollectsKindsInOrder) {
  SpanCollector collector;
  {
    const ServingScope serving({1, 2, &collector});
    { CollectedSpanScope fanout(RequestSpanKind::kShardFanout); }
    { CollectedSpanScope descent(RequestSpanKind::kDescent); }
  }
  EXPECT_EQ(CurrentServingContext().collector, nullptr);

  ASSERT_EQ(collector.count, 2);
  EXPECT_EQ(collector.spans[0].kind,
            static_cast<uint8_t>(RequestSpanKind::kShardFanout));
  EXPECT_EQ(collector.spans[1].kind,
            static_cast<uint8_t>(RequestSpanKind::kDescent));
  // Spans carry monotone timestamps.
  EXPECT_GE(collector.spans[1].start_ns, collector.spans[0].start_ns);
}

TEST(CollectedSpanScopeTest, CollectorCapsAtFixedSize) {
  SpanCollector collector;
  {
    const ServingScope serving({1, 2, &collector});
    for (int i = 0; i < 10; ++i) {
      CollectedSpanScope scope(RequestSpanKind::kDescent);
    }
  }
  EXPECT_EQ(collector.count, 4);
}

// --- end-to-end: the stalled-request differential test -----------------

class RequestSpanEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RequestTracer::Global().Reset();
    keys_.resize(512);
    for (size_t i = 0; i < keys_.size(); ++i) keys_[i] = 2 * (i + 1);
    index_ = std::make_unique<ShardedIndex<Tree>>(
        4, ShardedIndex<Tree>::SplittersFromSample(keys_.data(),
                                                   keys_.size(), 4));
    for (uint64_t k : keys_) index_->Insert(k, k * 10);
    backend_ = std::make_unique<net::ShardedKvBackend<Tree>>(index_.get());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    RequestTracer::Global().Configure(0, 0);
    SetHealthDraining(false);
  }

  void StartServer(net::KvServerOptions opts) {
    server_ = std::make_unique<net::KvServer>(backend_.get());
    ASSERT_TRUE(server_->Start(opts)) << server_->error();
  }

  std::vector<uint64_t> keys_;
  std::unique_ptr<ShardedIndex<Tree>> index_;
  std::unique_ptr<net::ShardedKvBackend<Tree>> backend_;
  std::unique_ptr<net::KvServer> server_;
};

std::string TraceIdHex(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

TEST_F(RequestSpanEndToEndTest, StalledRequestRetainedWithAllSpanKinds) {
  const uint64_t slow_key = keys_[37];
  net::KvServerOptions opts;
  // Head sampling OFF: every retained trace below is tail-retained.
  // The threshold is far above any loopback GET (even one that eats a
  // scheduler preemption), and the stall is far above the threshold.
  opts.request_sample = 0;
  opts.request_slow_ns = 25'000'000;       // 25 ms threshold
  opts.test_slow_key = slow_key;           // the deliberate stall hook
  opts.test_slow_ns = 100'000'000;         // 100 ms, far past the bar
  StartServer(opts);
  ASSERT_TRUE(RequestTracer::Global().enabled());

  net::KvClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()))
      << client.error();

  // Fast traffic first: none of it may be retained.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.Get(keys_[static_cast<size_t>(i)]).has_value());
  }

  // The stalled request.
  const std::optional<uint64_t> v = client.Get(slow_key);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, slow_key * 10);

  // Finish runs after the reply flush; give the worker a beat.
  auto& tracer = RequestTracer::Global();
  for (int i = 0; i < 200 && tracer.slow_retained() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(tracer.slow_retained(), 1u);

  // Our request is identifiable by the stall: no loopback GET takes
  // 100 ms on its own (a preempted one might still breach the 25 ms
  // bar, which is fine — it is genuinely slow and belongs in the log).
  const auto slow_log = tracer.SlowSnapshot();
  const RequestTrace* found = nullptr;
  for (const RequestTrace& entry : slow_log) {
    if (entry.latency_ns >= opts.test_slow_ns) found = &entry;
  }
  ASSERT_NE(found, nullptr) << slow_log.size() << " slow traces";
  const RequestTrace& t = *found;
  EXPECT_EQ(t.opcode, net::kOpGet);
  EXPECT_EQ(t.status, net::kStatusOk);
  EXPECT_EQ(t.slow, 1u);
  EXPECT_GE(t.latency_ns, opts.test_slow_ns);
  EXPECT_GE(t.service_ns, opts.test_slow_ns);

  // All five span kinds must be present on the one stalled request.
  std::set<uint8_t> kinds;
  for (int i = 0; i < t.num_spans; ++i) kinds.insert(t.spans[i].kind);
  for (int k = 0; k < kNumRequestSpanKinds; ++k) {
    EXPECT_TRUE(kinds.count(static_cast<uint8_t>(k)))
        << "missing span kind " << RequestSpanKindName(
               static_cast<uint8_t>(k));
  }

  // The /requestz payload carries the trace with named span kinds.
  const std::string requestz = RenderRequestzJson(tracer);
  EXPECT_NE(requestz.find(TraceIdHex(t.trace_id)), std::string::npos);
  for (int k = 0; k < kNumRequestSpanKinds; ++k) {
    EXPECT_NE(requestz.find(RequestSpanKindName(static_cast<uint8_t>(k))),
              std::string::npos)
        << RequestSpanKindName(static_cast<uint8_t>(k));
  }

  // The trace id surfaces as an exemplar on the GET latency histogram,
  // in the bucket whose range contains the recorded service time.
  const std::string om =
      RenderOpenMetrics(MetricsRegistry::Global().Snap());
  const std::string needle =
      "trace_id=\"" + TraceIdHex(t.trace_id) + "\"";
  const size_t pos = om.find(needle);
  ASSERT_NE(pos, std::string::npos) << om.substr(0, 2000);
  const size_t line_start = om.rfind('\n', pos) + 1;
  const size_t line_end = om.find('\n', pos);
  const std::string line = om.substr(line_start, line_end - line_start);
  EXPECT_EQ(line.rfind("net_op_get_ns_bucket{le=\"", 0), 0u) << line;
  const double le = std::strtod(line.c_str() + 25, nullptr);
  const double ex_value =
      std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  EXPECT_EQ(ex_value, static_cast<double>(t.service_ns)) << line;
  EXPECT_LE(ex_value, le) << line;  // the OpenMetrics in-range rule
}

TEST_F(RequestSpanEndToEndTest, FastTrafficHeadSamplesWithoutSlowLog) {
  net::KvServerOptions opts;
  opts.request_sample = 8;
  opts.request_slow_ns = 10ULL * 1000 * 1000 * 1000;  // never breached
  StartServer(opts);

  net::KvClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()))
      << client.error();
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(client.Get(keys_[static_cast<size_t>(i) % keys_.size()])
                    .has_value());
  }

  auto& tracer = RequestTracer::Global();
  for (int i = 0; i < 200 && tracer.completed() < 400; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(tracer.completed(), 400u);
  EXPECT_GT(tracer.retained(), 0u);
  // 1-in-8 of everything this process completed (other tests reset).
  EXPECT_LE(tracer.retained(), tracer.completed() / 8 + 1);
  EXPECT_EQ(tracer.slow_retained(), 0u);

  // Retained traces are real requests with spans attached.
  const auto snap = tracer.Snapshot();
  ASSERT_FALSE(snap.empty());
  for (const RequestTrace& t : snap) {
    EXPECT_NE(t.trace_id, 0u);
    EXPECT_GT(t.num_spans, 0);
  }
}

// Each backend call runs in the serving context of the request it
// serves: a sampled descent on a worker carries that connection and wire
// request id, and one outside any request carries none.
TEST_F(RequestSpanEndToEndTest, SampledDescentsCarryTheServingRequest) {
  StartServer(net::KvServerOptions{});
  net::KvClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()))
      << client.error();
  ASSERT_TRUE(client.Get(keys_[0]).has_value());  // an earlier request id

  Tracer::Global().Reset();
  EnableTracing(1);
  const uint32_t id = client.EnqueueGet(keys_[3]);
  ASSERT_TRUE(client.Flush());
  net::Response r;
  ASSERT_TRUE(client.ReadReply(&r)) << client.error();
  EXPECT_TRUE(index_->Find(keys_[5]).has_value());  // no request
  EnableTracing(0);

  const auto traces = Tracer::Global().Snapshot();
  ASSERT_EQ(traces.size(), 2u);
  const DescentTrace& served =
      traces[0].conn_id != kTraceNoConn ? traces[0] : traces[1];
  const DescentTrace& local = &served == &traces[0] ? traces[1] : traces[0];
  EXPECT_EQ(served.key, keys_[3]);
  EXPECT_EQ(served.batched, 1);
  EXPECT_NE(served.conn_id, kTraceNoConn);
  EXPECT_EQ(served.request_id, id);
  EXPECT_EQ(local.key, keys_[5]);
  EXPECT_EQ(local.conn_id, kTraceNoConn);
  EXPECT_EQ(local.request_id, 0u);
}

// --- /healthz drain awareness ------------------------------------------

std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), 0);
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

TEST_F(RequestSpanEndToEndTest, HealthzFlipsTo503WhileDraining) {
  StartServer(net::KvServerOptions{});
  StatsServer stats;
  ASSERT_TRUE(stats.Start(0)) << stats.error();

  // Serving: healthy.
  std::string resp = HttpGet(stats.port(), "/healthz");
  EXPECT_NE(resp.find("200"), std::string::npos);
  EXPECT_NE(resp.find("ok"), std::string::npos);

  // Drain begins the moment Stop() lands.
  server_->Stop();
  EXPECT_TRUE(HealthDraining());
  resp = HttpGet(stats.port(), "/healthz");
  EXPECT_NE(resp.find("503"), std::string::npos);
  EXPECT_NE(resp.find("draining"), std::string::npos);

  // /requestz stays scrapeable during and after the drain.
  EXPECT_NE(HttpGet(stats.port(), "/requestz").find("200"),
            std::string::npos);
  stats.Stop();
}

}  // namespace
}  // namespace simdtree::obs
