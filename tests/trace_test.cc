// Flight-recorder tests (obs/trace.h): ring wraparound, deterministic
// 1-in-N sampling, slow-query promotion and bounded retention,
// multi-thread ring merge, the OpenMetrics/JSON exposition round trip
// (obs/export.h), the stats server's endpoints over a real socket
// (obs/stats_server.h), and sampled reads through ShardedIndex: a sampled
// read runs the same lock-free path and engine as an unsampled one. The
// concurrent record/merge soak and the sampled reads racing a writer are
// the TSan targets.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/olc.h"
#include "core/sharded.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "segtree/segtree.h"
#include "segtrie/segtrie.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using obs::DescentTrace;
using obs::Tracer;
using obs::TraceRing;

DescentTrace MakeTrace(uint64_t key, uint64_t start_ns,
                       uint64_t latency_ns) {
  DescentTrace t;
  t.key = key;
  t.start_ns = start_ns;
  t.latency_ns = latency_ns;
  return t;
}

// --- TraceRing ------------------------------------------------------------

TEST(TraceRingTest, FreshSlotsAreUnreadable) {
  TraceRing ring;
  DescentTrace out;
  EXPECT_EQ(ring.head(), 0u);
  EXPECT_FALSE(ring.TryRead(0, &out));
  EXPECT_FALSE(ring.TryRead(TraceRing::kCapacity - 1, &out));
}

TEST(TraceRingTest, WrapAroundRetainsNewest) {
  TraceRing ring;
  const uint64_t total = TraceRing::kCapacity + 37;
  for (uint64_t i = 0; i < total; ++i) {
    ring.Write(MakeTrace(/*key=*/i, /*start_ns=*/i * 10, /*latency_ns=*/i));
  }
  EXPECT_EQ(ring.head(), total);
  // The newest kCapacity writes are all readable with intact payloads;
  // older ones were overwritten in place.
  DescentTrace out;
  for (uint64_t i = total - TraceRing::kCapacity; i < total; ++i) {
    ASSERT_TRUE(ring.TryRead(i % TraceRing::kCapacity, &out)) << i;
    EXPECT_EQ(out.key, i);
    EXPECT_EQ(out.start_ns, i * 10);
  }
}

// --- sampling -------------------------------------------------------------

TEST(TraceSamplingTest, DeterministicOneInN) {
  Tracer::Global().Reset();  // also resets this thread's countdown
  obs::EnableTracing(4);
  EXPECT_EQ(obs::TraceSampleRate(), 4u);
  std::vector<int> sampled;
  for (int i = 1; i <= 100; ++i) {
    if (obs::TraceShouldSample()) sampled.push_back(i);
  }
  obs::EnableTracing(0);
  ASSERT_EQ(sampled.size(), 25u);
  for (size_t j = 0; j < sampled.size(); ++j) {
    EXPECT_EQ(sampled[j], static_cast<int>(4 * (j + 1)));
  }
}

TEST(TraceSamplingTest, RateZeroNeverSamples) {
  obs::EnableTracing(0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(obs::TraceShouldSample());
  }
}

TEST(TraceSamplingTest, RateOneSamplesEverything) {
  Tracer::Global().Reset();
  obs::EnableTracing(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(obs::TraceShouldSample());
  }
  obs::EnableTracing(0);
}

// --- slow-query log -------------------------------------------------------

TEST(TracerTest, SlowPromotionHonorsThreshold) {
  Tracer tracer;
  tracer.SetSlowThresholdNs(1000);
  tracer.Record(MakeTrace(1, 10, /*latency_ns=*/999));
  EXPECT_EQ(tracer.recorded(), 1u);
  EXPECT_EQ(tracer.slow_recorded(), 0u);

  tracer.Record(MakeTrace(2, 20, /*latency_ns=*/1000));  // at threshold
  tracer.Record(MakeTrace(3, 30, /*latency_ns=*/5000));
  EXPECT_EQ(tracer.slow_recorded(), 2u);
  const auto slow = tracer.SlowSnapshot();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].key, 2u);
  EXPECT_EQ(slow[1].key, 3u);
  EXPECT_EQ(slow[0].slow, 1);  // the promoted flag is set on the copy
  // The ring copy agrees with the slow copy on the flag.
  const auto recent = tracer.Snapshot();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].slow, 0);
  EXPECT_EQ(recent[1].slow, 1);
  EXPECT_EQ(recent[2].slow, 1);

  // Threshold 0 disables promotion entirely.
  tracer.SetSlowThresholdNs(0);
  tracer.Record(MakeTrace(4, 40, /*latency_ns=*/~uint64_t{0}));
  EXPECT_EQ(tracer.slow_recorded(), 2u);
}

TEST(TracerTest, SlowRetentionDropsOldest) {
  Tracer tracer;
  tracer.SetSlowThresholdNs(1);
  const uint64_t total = Tracer::kSlowCapacity + 10;
  for (uint64_t i = 0; i < total; ++i) {
    tracer.Record(MakeTrace(/*key=*/i, /*start_ns=*/i, /*latency_ns=*/100));
  }
  EXPECT_EQ(tracer.slow_recorded(), total);
  const auto slow = tracer.SlowSnapshot();
  ASSERT_EQ(slow.size(), Tracer::kSlowCapacity);
  // Oldest first, and the 10 oldest entries were dropped.
  for (size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].key, 10 + i);
  }
}

// --- per-thread rings + merge ---------------------------------------------

TEST(TracerTest, SnapshotMergesThreadRingsInStartOrder) {
  Tracer tracer;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * 1000 + i;
        // start_ns == key makes the global sort order checkable.
        tracer.Record(MakeTrace(key, /*start_ns=*/key, /*latency_ns=*/1));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(tracer.recorded(), kThreads * kPerThread);
  const auto all = tracer.Snapshot();
  ASSERT_EQ(all.size(), kThreads * kPerThread);
  std::set<uint64_t> keys;
  std::set<uint32_t> thread_ids;
  for (size_t i = 0; i < all.size(); ++i) {
    keys.insert(all[i].key);
    thread_ids.insert(all[i].thread_id);
    if (i > 0) {
      EXPECT_GE(all[i].start_ns, all[i - 1].start_ns);
    }
  }
  EXPECT_EQ(keys.size(), kThreads * kPerThread);  // nothing lost or torn
  EXPECT_EQ(thread_ids.size(), static_cast<size_t>(kThreads));

  // A capped snapshot keeps the newest by start time.
  const auto newest = tracer.Snapshot(/*max_traces=*/50);
  ASSERT_EQ(newest.size(), 50u);
  EXPECT_EQ(newest.back().start_ns, all.back().start_ns);
  EXPECT_GE(newest.front().start_ns, all[all.size() - 50].start_ns);
}

// TSan soak: writers hammer their rings (with slow promotions mixed in)
// while readers continuously take merged snapshots. Every trace a
// reader observes must be internally consistent — a torn seqlock read
// would break the key/start_ns/latency_ns relation.
TEST(TracerTest, ConcurrentRecordAndMergeSoak) {
  Tracer tracer;
  tracer.SetSlowThresholdNs(7 * 1900);  // promotes ~5% of writes
  constexpr int kWriters = 4;
  const uint64_t per_writer = 20000;
  std::atomic<int> writers_done{0};
  std::atomic<uint64_t> torn{0};

  auto check = [&torn](const DescentTrace& t) {
    if (t.start_ns != t.key * 3 || t.latency_ns != 7 * (t.key % 2000)) {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&tracer, &writers_done, w, per_writer] {
      for (uint64_t i = 0; i < per_writer; ++i) {
        const uint64_t key = static_cast<uint64_t>(w) * per_writer + i;
        tracer.Record(
            MakeTrace(key, /*start_ns=*/key * 3,
                      /*latency_ns=*/7 * (key % 2000)));
      }
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&tracer, &writers_done, &check] {
      while (writers_done.load() < kWriters) {
        for (const DescentTrace& t : tracer.Snapshot()) check(t);
        for (const DescentTrace& t : tracer.SlowSnapshot()) check(t);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(tracer.recorded(), kWriters * per_writer);
  // Final quiescent snapshot: full rings, all consistent.
  const auto all = tracer.Snapshot();
  EXPECT_EQ(all.size(), kWriters * TraceRing::kCapacity);
  for (const DescentTrace& t : all) check(t);
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(tracer.SlowSnapshot().size(), Tracer::kSlowCapacity);
}

// --- exposition -----------------------------------------------------------

TEST(ExportTest, SanitizeAndValidateNames) {
  EXPECT_EQ(obs::SanitizeMetricName("cli.profile.read_lock_ns"),
            "cli_profile_read_lock_ns");
  EXPECT_EQ(obs::SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(obs::SanitizeMetricName("a-b c"), "a_b_c");
  EXPECT_EQ(obs::SanitizeMetricName(""), "_");
  EXPECT_EQ(obs::SanitizeMetricName("ok:name_1"), "ok:name_1");

  EXPECT_TRUE(obs::IsValidMetricName("ok:name_1"));
  EXPECT_TRUE(obs::IsValidMetricName("_private"));
  EXPECT_FALSE(obs::IsValidMetricName(""));
  EXPECT_FALSE(obs::IsValidMetricName("9lives"));
  EXPECT_FALSE(obs::IsValidMetricName("has.dot"));
  // Sanitize always produces a valid name.
  for (const char* raw : {"a.b", "-", "..", "x y z", "0"}) {
    EXPECT_TRUE(obs::IsValidMetricName(obs::SanitizeMetricName(raw))) << raw;
  }
}

TEST(ExportTest, EscapeLabelValue) {
  EXPECT_EQ(obs::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::EscapeLabelValue("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(ExportTest, OpenMetricsGoldenRoundTrip) {
  obs::MetricsRegistry reg;
  reg.GetCounter("req.count")->Add(42);
  reg.GetGauge("load-avg")->Set(1.5);
  obs::LogHistogram* h = reg.GetHistogram("lat.ns");
  h->Record(5);
  h->Record(5);
  h->Record(5);
  h->Record(10);

  // Exact-region values: bucket 5 has edge 6, bucket 10 has edge 11.
  const std::string expected =
      "# TYPE req_count counter\n"
      "req_count_total 42\n"
      "# TYPE load_avg gauge\n"
      "load_avg 1.5\n"
      "# TYPE lat_ns histogram\n"
      "lat_ns_bucket{le=\"6\"} 3\n"
      "lat_ns_bucket{le=\"11\"} 4\n"
      "lat_ns_bucket{le=\"+Inf\"} 4\n"
      "lat_ns_count 4\n"
      "lat_ns_sum 25\n"
      "# EOF\n";
  EXPECT_EQ(obs::RenderOpenMetrics(reg.Snap()), expected);
}

TEST(ExportTest, CollidingNamesAreDeduplicated) {
  obs::MetricsRegistry reg;
  reg.GetCounter("a.b")->Add(1);
  reg.GetCounter("a_b")->Add(2);
  const std::string text = obs::RenderOpenMetrics(reg.Snap());
  // Registry order is lexicographic: "a.b" sanitizes first and keeps
  // the clean name; "a_b" collides and gets the numbered suffix.
  EXPECT_NE(text.find("# TYPE a_b counter\na_b_total 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE a_b_2 counter\na_b_2_total 2\n"),
            std::string::npos)
      << text;
}

TEST(ExportTest, TracezJsonCarriesFullPath) {
  Tracer tracer;
  tracer.SetSlowThresholdNs(100);
  DescentTrace t = MakeTrace(/*key=*/7, /*start_ns=*/123,
                             /*latency_ns=*/200);
  t.backend = static_cast<uint8_t>(obs::TraceBackend::kSegTree);
  t.found = 1;
  SearchCounters cmps;
  cmps.simd_comparisons = 4;
  cmps.scalar_comparisons = 1;
  obs::AppendTraceLevel(&t, /*node_ref=*/99, obs::kTraceLayoutBreadthFirst,
                        /*arena_slab=*/2, cmps, /*cycles=*/150);
  tracer.Record(t);

  const std::string json = obs::RenderTracezJson(tracer);
  for (const char* needle :
       {"\"key\":7", "\"latency_ns\":200", "\"backend\":\"segtree\"",
        "\"found\":true", "\"slow\":true", "\"node_ref\":99",
        "\"layout\":\"breadth_first\"", "\"arena_slab\":2",
        "\"simd_cmps\":4", "\"scalar_cmps\":1", "\"cycles\":150"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n"
                                                    << json;
  }
  // The slow trace appears in both arrays.
  EXPECT_NE(json.find("\"recent\":[{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"slow\":[{"), std::string::npos) << json;
}

// --- end-to-end: traced descent through the wrapper -----------------------

TEST(TraceHookTest, SampledFindRecordsFullDescent) {
  using Tree = segtree::SegTree<uint64_t, uint64_t>;
  ShardedIndex<Tree> index(1);
  for (uint64_t k = 0; k < 50000; ++k) index.Insert(k * 2, k);

  Tracer::Global().Reset();
  obs::EnableTracing(1);
  EXPECT_EQ(index.Find(2468), std::optional<uint64_t>(1234));
  EXPECT_FALSE(index.Find(1).has_value());
  obs::EnableTracing(0);

  const auto traces = Tracer::Global().Snapshot();
  ASSERT_EQ(traces.size(), 2u);
  const DescentTrace& hit = traces[0];
  EXPECT_EQ(hit.key, 2468u);
  EXPECT_EQ(hit.found, 1);
  EXPECT_EQ(hit.backend, static_cast<uint8_t>(obs::TraceBackend::kSegTree));
  ASSERT_GT(hit.levels, 1);  // 50k keys: at least root + leaf
  for (int l = 0; l < hit.levels; ++l) {
    EXPECT_GT(hit.level[l].simd_cmps + hit.level[l].scalar_cmps, 0) << l;
    EXPECT_NE(hit.level[l].node_ref, obs::kTraceNoNodeRef) << l;
  }
  EXPECT_EQ(traces[1].found, 0);
  EXPECT_EQ(traces[1].key, 1u);
}

// A sampled FindBatch traces the sub-batch it ran — the one holding
// keys[0] — not a re-descent of keys[0]: one span per level of that
// shard, each stamped with the sub-batch size. Keys spread over the whole
// domain so every shard of the uniform splitters holds some; every probe
// is stored, so no trie query stops above leaf level.
template <typename Index>
void CheckSampledBatchTrace(size_t shards, size_t batch) {
  ShardedIndex<Index> index(shards);
  Rng rng(shards * 7919 + batch);
  std::vector<uint64_t> keys(60000);
  for (uint64_t& k : keys) {
    k = rng.Next();
    index.Insert(k, k / 2);
  }
  std::vector<uint64_t> probes(batch);
  for (uint64_t& p : probes) p = keys[rng.NextBounded(keys.size())];
  const size_t s = index.ShardOf(probes[0]);
  const size_t m = static_cast<size_t>(
      std::count_if(probes.begin(), probes.end(),
                    [&](uint64_t p) { return index.ShardOf(p) == s; }));
  const int levels = index.WithShardRead(
      s, [](const Index& shard) { return BatchLevels(shard); });
  const bool grouped = UseGroupedDescent(m, levels);
  ASSERT_EQ(grouped, batch >= 4096) << "m=" << m << " levels=" << levels;

  Tracer::Global().Reset();
  obs::EnableTracing(1);
  std::vector<std::optional<uint64_t>> out(batch);
  index.FindBatch(probes.data(), batch, out.data());
  obs::EnableTracing(0);
  for (size_t i = 0; i < batch; ++i) {
    ASSERT_EQ(out[i], std::optional<uint64_t>(probes[i] / 2)) << i;
  }

  const auto traces = Tracer::Global().Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const DescentTrace& t = traces[0];
  EXPECT_EQ(t.batched, 1);
  EXPECT_EQ(t.key, probes[0]);
  EXPECT_EQ(t.found, 1);
  EXPECT_EQ(t.shard, s);
  ASSERT_EQ(t.levels, levels);
  for (int l = 0; l < t.levels; ++l) {
    EXPECT_EQ(t.level[l].group_size, m) << "level " << l;
    // Pipelined: every query loads its own node on every level.
    if (!grouped) {
      EXPECT_EQ(t.level[l].node_ref, m) << "level " << l;
    }
  }
  // Grouped: the whole sub-batch shares the root.
  if (grouped) {
    EXPECT_EQ(t.level[0].node_ref, 1u);
  }
}

TEST(TraceHookTest, SampledBatchTracesTheBatchItRan) {
  using Tree = segtree::SegTree<uint64_t, uint64_t>;
  using Trie = segtrie::SegTrie<uint64_t, uint64_t>;
  for (const size_t batch : {size_t{64}, size_t{4096}}) {
    SCOPED_TRACE(batch);
    CheckSampledBatchTrace<Tree>(1, batch);
    CheckSampledBatchTrace<Tree>(8, batch);
    CheckSampledBatchTrace<Trie>(1, batch);
  }
}

// A sampled read is the production read plus timestamps: with lock-free
// reads armed it never takes the shard lock (read_lock_ns counts locked
// reads), and its trace records no lock wait. With them off (forced shard
// locks, heap mode) every read, sampled or not, is one locked read.
TEST(TraceHookTest, SampledReadsTakeTheLockFreePath) {
  using Tree = segtree::SegTree<uint64_t, uint64_t>;
  ShardedIndex<Tree> index(1);
  index.EnableMetrics("trace_test.sampled");
  const obs::IndexMetrics m = obs::IndexMetrics::Register("trace_test.sampled");
  constexpr uint64_t kN = 20000;
  for (uint64_t k = 0; k < kN; ++k) index.Insert(2 * k, 20 * k);
  const bool lock_free = index.WithShardRead(
      0, [](const Tree& t) { return t.concurrent_reads_enabled(); });
  if (olc::ForceShardLocks()) {
    EXPECT_FALSE(lock_free);
  }
  const uint64_t locked_per_read = lock_free ? 0 : 1;

  Tracer::Global().Reset();
  obs::EnableTracing(1);
  uint64_t before = m.read_lock_ns->Count();
  EXPECT_EQ(index.Find(2468), std::optional<uint64_t>(24680));
  EXPECT_EQ(m.read_lock_ns->Count() - before, locked_per_read);
  Rng rng(11);
  for (const size_t batch : {size_t{64}, size_t{4096}}) {  // both routes
    std::vector<uint64_t> keys(batch);
    for (uint64_t& k : keys) k = 2 * rng.NextBounded(kN);
    std::vector<std::optional<uint64_t>> out(batch);
    before = m.read_lock_ns->Count();
    index.FindBatch(keys.data(), batch, out.data());
    EXPECT_EQ(m.read_lock_ns->Count() - before, locked_per_read) << batch;
    for (size_t i = 0; i < batch; ++i) {
      ASSERT_EQ(out[i], std::optional<uint64_t>(keys[i] * 10)) << i;
    }
  }
  obs::EnableTracing(0);
  const auto traces = Tracer::Global().Snapshot();
  ASSERT_EQ(traces.size(), 3u);
  for (const DescentTrace& t : traces) {
    EXPECT_GT(t.levels, 1);
    if (lock_free) {
      EXPECT_EQ(t.lock_wait_ns, 0u);
    }
  }

  // Sampled reads racing a writer of the odd keys still answer every
  // even key: conflicts retry, and a trace keeps the attempt that
  // answered.
  obs::EnableTracing(1);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng wrng(5);
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t k = 2 * wrng.NextBounded(kN) + 1;
      index.Insert(k, k * 10);
      index.Erase(k);
    }
  });
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rrng(100 + static_cast<uint64_t>(r));
      std::vector<uint64_t> keys(1024);
      std::vector<std::optional<uint64_t>> out(keys.size());
      for (int iter = 0; iter < 300; ++iter) {
        const uint64_t k = 2 * rrng.NextBounded(kN);
        if (index.Find(k) != std::optional<uint64_t>(k * 10)) ++wrong;
        // Alternate the pipelined and grouped routes.
        const size_t n = iter % 2 == 0 ? 64 : keys.size();
        for (size_t i = 0; i < n; ++i) keys[i] = 2 * rrng.NextBounded(kN);
        index.FindBatch(keys.data(), n, out.data());
        for (size_t i = 0; i < n; ++i) {
          if (out[i] != std::optional<uint64_t>(keys[i] * 10)) ++wrong;
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  obs::EnableTracing(0);
  EXPECT_EQ(wrong.load(), 0u);
}

// --- stats server over a real socket --------------------------------------

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
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(StatsServerTest, ServesAllEndpointsOverSocket) {
  obs::MetricsRegistry::Global().GetCounter("trace_test.pings")->Add(3);
  obs::StatsServer server;
  ASSERT_TRUE(server.Start(/*port=*/0)) << server.error();
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos) << health;

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("application/openmetrics-text"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("trace_test_pings_total 3"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("# EOF\n"), std::string::npos);

  const std::string json = HttpGet(server.port(), "/metrics.json");
  EXPECT_NE(json.find("\"registry\":"), std::string::npos) << json;
  const std::string tracez = HttpGet(server.port(), "/tracez?max=5");
  EXPECT_NE(tracez.find("\"recent\":["), std::string::npos) << tracez;

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(StatsServerTest, HandleRequestRoutesWithoutSocket) {
  EXPECT_NE(obs::StatsServer::HandleRequest("/healthz").find("ok\n"),
            std::string::npos);
  EXPECT_NE(obs::StatsServer::HandleRequest("/metrics").find("# EOF"),
            std::string::npos);
  EXPECT_NE(obs::StatsServer::HandleRequest("/tracez").find("\"slow\":["),
            std::string::npos);
  EXPECT_NE(obs::StatsServer::HandleRequest("/absent").find("404"),
            std::string::npos);
}

}  // namespace
}  // namespace simdtree
