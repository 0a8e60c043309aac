// Observability subsystem tests: LogHistogram bucket geometry and the
// quantization error bound (including the acceptance check that
// percentiles from concurrent recording agree with raw-sample
// percentiles within one log bucket), MetricsRegistry get-or-create and
// JSON export, PerfCounterGroup graceful degradation under
// SIMDTREE_DISABLE_PERF, and the per-operation metrics hooks of the
// concurrent index wrappers.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "segtree/segtree.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using obs::LogHistogram;

// --- LogHistogram geometry ------------------------------------------------

TEST(HistogramTest, ExactRegionIsExact) {
  // Values below 2 * kSubBuckets get one bucket each; the representative
  // is the value itself.
  for (uint64_t v = 0; v < 2 * LogHistogram::kSubBuckets; ++v) {
    const size_t b = LogHistogram::BucketIndex(v);
    EXPECT_EQ(b, static_cast<size_t>(v));
    EXPECT_EQ(LogHistogram::BucketLow(b), v);
    EXPECT_EQ(LogHistogram::BucketMid(b), v);
  }
}

TEST(HistogramTest, BucketIndexIsMonotoneAndCoversDomain) {
  // Bucket lower edges must round-trip and bucket indices must be
  // monotone in the value, across the full 64-bit range.
  size_t prev = 0;
  for (uint64_t v = 1; v != 0; v = v < (uint64_t{1} << 62) ? v * 3 + 1 : 0) {
    const size_t b = LogHistogram::BucketIndex(v);
    ASSERT_LT(b, LogHistogram::kBuckets);
    ASSERT_GE(b, prev);
    prev = b;
    // v lies inside its bucket: low <= v and (if not the last bucket)
    // v < next bucket's low.
    EXPECT_LE(LogHistogram::BucketLow(b), v);
    if (b + 1 < LogHistogram::kBuckets) {
      EXPECT_LT(v, LogHistogram::BucketLow(b + 1));
    }
  }
  EXPECT_LT(LogHistogram::BucketIndex(~uint64_t{0}), LogHistogram::kBuckets);
}

TEST(HistogramTest, RelativeErrorBound) {
  // The representative midpoint is within 2^-kPrecisionBits of the true
  // value everywhere (and within half that in the geometric region).
  Rng rng(7);
  constexpr double kBound = 1.0 / (1 << LogHistogram::kPrecisionBits);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = rng.Next() >> (rng.Next() % 40);
    const uint64_t mid = LogHistogram::BucketMid(LogHistogram::BucketIndex(v));
    if (v == 0) {
      EXPECT_EQ(mid, 0u);
      continue;
    }
    const double rel =
        std::abs(static_cast<double>(mid) - static_cast<double>(v)) /
        static_cast<double>(v);
    EXPECT_LE(rel, kBound) << "v=" << v << " mid=" << mid;
  }
}

TEST(HistogramTest, EmptyIsAllZero) {
  LogHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(0.999), 0u);
}

TEST(HistogramTest, BasicRecording) {
  LogHistogram h;
  h.Record(1);
  h.Record(2);
  h.Record(3);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.0);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 3u);
  EXPECT_EQ(h.Percentile(0.0), 1u);  // exact region: values exact
  EXPECT_EQ(h.Percentile(0.5), 2u);
  EXPECT_EQ(h.Percentile(1.0), 3u);

  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
}

TEST(HistogramTest, MergeAddsCounts) {
  LogHistogram a, b, all;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.Next() % 1000000;
    (i % 2 == 0 ? a : b).Record(v);
    all.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), all.Count());
  EXPECT_DOUBLE_EQ(a.Mean(), all.Mean());
  for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(a.Percentile(q), all.Percentile(q)) << "q=" << q;
  }
}

// Acceptance check: percentiles computed from a histogram recorded
// *concurrently* agree with percentiles of the raw sample set within
// one log bucket of relative error (<= 2^-kPrecisionBits).
TEST(HistogramTest, ConcurrentRecordingMatchesRawPercentiles) {
  constexpr int kThreads = 4;
  constexpr size_t kPerThread = 50000;
  LogHistogram h;

  // Deterministic per-thread streams; the union is the reference sample.
  std::vector<std::vector<uint64_t>> streams(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(1000 + static_cast<uint64_t>(t));
    streams[t].reserve(kPerThread);
    for (size_t i = 0; i < kPerThread; ++i) {
      // Heavy-tailed: mostly small latencies, occasional large spikes —
      // the shape the histogram exists for.
      const uint64_t v = (rng.Next() % 5000) + 1;
      streams[t].push_back(rng.Next() % 100 == 0 ? v * 1000 : v);
    }
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &streams, t] {
      for (uint64_t v : streams[t]) h.Record(v);
    });
  }
  for (auto& th : threads) th.join();

  std::vector<uint64_t> raw;
  raw.reserve(kThreads * kPerThread);
  for (const auto& s : streams) raw.insert(raw.end(), s.begin(), s.end());
  std::sort(raw.begin(), raw.end());

  ASSERT_EQ(h.Count(), raw.size());
  constexpr double kBound = 1.0 / (1 << LogHistogram::kPrecisionBits);
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    // Same rank rule as LogHistogram::Percentile.
    const uint64_t exact =
        raw[static_cast<size_t>(q * static_cast<double>(raw.size() - 1))];
    const uint64_t approx = h.Percentile(q);
    const double rel =
        std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
        static_cast<double>(exact);
    EXPECT_LE(rel, kBound) << "q=" << q << " exact=" << exact
                           << " approx=" << approx;
  }
  // Mean is exact (a plain sum), not quantized.
  double sum = 0.0;
  for (uint64_t v : raw) sum += static_cast<double>(v);
  EXPECT_DOUBLE_EQ(h.Mean(), sum / static_cast<double>(raw.size()));
}

// --- histogram -> cumulative OpenMetrics buckets (obs/export.h) -----------

TEST(HistogramBucketsTest, EmptyHistogramYieldsJustInf) {
  LogHistogram h;
  const auto buckets = obs::CumulativeBuckets(h);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_TRUE(std::isinf(buckets[0].le));
  EXPECT_EQ(buckets[0].count, 0u);
}

TEST(HistogramBucketsTest, SingleBucketPlusInf) {
  LogHistogram h;
  h.Record(7);
  h.Record(7);
  const auto buckets = obs::CumulativeBuckets(h);
  ASSERT_EQ(buckets.size(), 2u);
  // Exact region: bucket 7's exclusive upper edge is 8.
  EXPECT_DOUBLE_EQ(buckets[0].le, 8.0);
  EXPECT_EQ(buckets[0].count, 2u);
  EXPECT_TRUE(std::isinf(buckets[1].le));
  EXPECT_EQ(buckets[1].count, 2u);
}

TEST(HistogramBucketsTest, OverflowBucketFoldsIntoInf) {
  // The maximal value lands in the last raw bucket, whose upper edge
  // would overflow BucketLow's shift; it must fold into +Inf instead of
  // emitting a bogus finite edge.
  ASSERT_EQ(LogHistogram::BucketIndex(~uint64_t{0}),
            LogHistogram::kBuckets - 1);
  LogHistogram h;
  h.Record(~uint64_t{0});
  h.Record(1);
  const auto buckets = obs::CumulativeBuckets(h);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0].le, 2.0);
  EXPECT_EQ(buckets[0].count, 1u);
  EXPECT_TRUE(std::isinf(buckets[1].le));
  EXPECT_EQ(buckets[1].count, 2u);  // the folded sample is still counted

  // Cumulative counts are monotone non-decreasing in le order.
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GE(buckets[i].count, buckets[i - 1].count);
  }
}

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsTest, GetOrCreateReturnsStablePointers) {
  obs::MetricsRegistry reg;
  obs::Counter* c1 = reg.GetCounter("a.reads");
  obs::Counter* c2 = reg.GetCounter("a.reads");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(reg.GetCounter("a.writes"), c1);
  obs::Gauge* g = reg.GetGauge("a.ratio");
  EXPECT_EQ(reg.GetGauge("a.ratio"), g);
  obs::LogHistogram* h = reg.GetHistogram("a.lat");
  EXPECT_EQ(reg.GetHistogram("a.lat"), h);

  c1->Add(41);
  c1->Add();
  EXPECT_EQ(c2->Get(), 42u);
  g->Set(1.5);
  EXPECT_DOUBLE_EQ(reg.GetGauge("a.ratio")->Get(), 1.5);
}

TEST(MetricsTest, ToJsonExportsEverything) {
  obs::MetricsRegistry reg;
  reg.GetCounter("z.count")->Add(7);
  reg.GetGauge("z.gauge")->Set(0.5);
  obs::LogHistogram* h = reg.GetHistogram("z.hist");
  h->Record(10);
  h->Record(20);

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"z.count\":7}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"z.gauge\":0.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"z.hist\":{\"count\":2,\"mean\":15"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p50\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\":20"), std::string::npos) << json;

  reg.Clear();
  EXPECT_EQ(reg.ToJson(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(MetricsTest, GlobalIsSingletonAndRegisterWiresAllMetrics) {
  EXPECT_EQ(&obs::MetricsRegistry::Global(), &obs::MetricsRegistry::Global());
  const obs::IndexMetrics m = obs::IndexMetrics::Register("obs_test.reg");
  ASSERT_NE(m.reads, nullptr);
  ASSERT_NE(m.writes, nullptr);
  ASSERT_NE(m.batches, nullptr);
  ASSERT_NE(m.batch_keys, nullptr);
  ASSERT_NE(m.batch_size, nullptr);
  ASSERT_NE(m.read_lock_ns, nullptr);
  ASSERT_NE(m.write_lock_ns, nullptr);
  ASSERT_NE(m.shard_imbalance, nullptr);
  // Same prefix resolves to the same objects.
  const obs::IndexMetrics m2 = obs::IndexMetrics::Register("obs_test.reg");
  EXPECT_EQ(m.reads, m2.reads);
  EXPECT_EQ(m.batch_size, m2.batch_size);
}

// --- PerfCounterGroup fallback --------------------------------------------

TEST(PerfCountersTest, DisableEnvForcesFallback) {
  setenv("SIMDTREE_DISABLE_PERF", "1", 1);
  EXPECT_FALSE(obs::PerfCounterGroup::Available());
  obs::PerfCounterGroup group;
  EXPECT_FALSE(group.ok());
  group.Start();  // must be a harmless no-op
  const obs::HwCounts hw = group.Stop();
  EXPECT_FALSE(hw.valid);
  EXPECT_DOUBLE_EQ(hw.cycles, 0.0);
  EXPECT_DOUBLE_EQ(hw.instructions, 0.0);
  EXPECT_DOUBLE_EQ(hw.ipc(), 0.0);
  unsetenv("SIMDTREE_DISABLE_PERF");
}

TEST(PerfCountersTest, MeasureWhenAvailable) {
  unsetenv("SIMDTREE_DISABLE_PERF");
  if (!obs::PerfCounterGroup::Available()) {
    GTEST_SKIP() << "perf_event_open denied on this host";
  }
  obs::PerfCounterGroup group;
  ASSERT_TRUE(group.ok());
  volatile uint64_t sink = 0;
  const obs::HwCounts hw = group.Measure([&] {
    for (uint64_t i = 0; i < 1000000; ++i) sink = sink + i;
  });
  EXPECT_TRUE(hw.valid);
  EXPECT_GT(hw.instructions, 1e6);  // at least one instruction per add
  EXPECT_GT(hw.cycles, 0.0);
  EXPECT_GE(hw.scale, 1.0);
  EXPECT_GT(hw.ipc(), 0.0);
}

// --- index wrapper hooks --------------------------------------------------

using SegTree64 = segtree::SegTree<uint64_t, uint64_t>;

TEST(IndexMetricsHookTest, OneShardIndexCountsOps) {
  ShardedIndex<SegTree64> index(1);
  index.EnableMetrics("obs_test.sync");
  const obs::IndexMetrics m = obs::IndexMetrics::Register("obs_test.sync");
  const uint64_t reads0 = m.reads->Get();
  const uint64_t writes0 = m.writes->Get();

  for (uint64_t k = 0; k < 100; ++k) index.Insert(k, k * 10);
  EXPECT_EQ(m.writes->Get() - writes0, 100u);

  for (uint64_t k = 0; k < 50; ++k) EXPECT_TRUE(index.Contains(k));
  EXPECT_EQ(index.Find(7), std::optional<uint64_t>(70));
  EXPECT_EQ(m.reads->Get() - reads0, 51u);
  // Reads on OLC-capable indexes are lock-free by default, so the
  // read-lock histogram records only fallback acquisitions — it may
  // legitimately stay empty here (core/olc.h).
  EXPECT_GT(m.write_lock_ns->Count(), 0u);

  const uint64_t batches0 = m.batches->Get();
  std::vector<uint64_t> keys = {1, 2, 3, 999};
  std::vector<std::optional<uint64_t>> out(keys.size());
  index.FindBatch(keys.data(), keys.size(), out.data());
  EXPECT_EQ(out[0], std::optional<uint64_t>(10));
  EXPECT_FALSE(out[3].has_value());
  EXPECT_EQ(m.batches->Get() - batches0, 1u);
  EXPECT_GE(m.batch_keys->Get(), keys.size());
  EXPECT_GT(m.batch_size->Count(), 0u);
}

TEST(IndexMetricsHookTest, ShardedIndexRecordsImbalance) {
  ShardedIndex<SegTree64> index(4);
  index.EnableMetrics("obs_test.shard");
  const obs::IndexMetrics m = obs::IndexMetrics::Register("obs_test.shard");

  for (uint64_t k = 0; k < 256; ++k) {
    index.Insert(k << 56, k);  // spread across the uniform splitters
  }
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 256; ++k) keys.push_back(k << 56);
  std::vector<std::optional<uint64_t>> out(keys.size());
  const uint64_t batches0 = m.batches->Get();
  index.FindBatch(keys.data(), keys.size(), out.data());
  for (uint64_t k = 0; k < 256; ++k) {
    ASSERT_TRUE(out[k].has_value());
    EXPECT_EQ(*out[k], k);
  }
  EXPECT_EQ(m.batches->Get() - batches0, 1u);
  // Keys spread evenly over 4 shards: imbalance gauge near 1.0, and
  // never below it by construction (max share >= even share).
  EXPECT_GE(m.shard_imbalance->Get(), 1.0);
  EXPECT_LT(m.shard_imbalance->Get(), 1.5);

  // A batch aimed at one shard maxes the gauge at num_shards.
  std::vector<uint64_t> skew(64, uint64_t{3});
  std::vector<std::optional<uint64_t>> out2(skew.size());
  index.FindBatch(skew.data(), skew.size(), out2.data());
  EXPECT_DOUBLE_EQ(m.shard_imbalance->Get(), 4.0);
}

// --- exemplars ------------------------------------------------------------

TEST(ExemplarStoreTest, OfferLandsInTheValueBucket) {
  obs::ExemplarStore store;
  store.Offer(12345, 0xabcdef);
  obs::ExemplarStore::Exemplar ex;
  ASSERT_TRUE(store.Read(LogHistogram::BucketIndex(12345), &ex));
  EXPECT_EQ(ex.value, 12345u);
  EXPECT_EQ(ex.trace_id, 0xabcdefu);
  // Other buckets stay empty.
  EXPECT_FALSE(store.Read(LogHistogram::BucketIndex(12345) + 1, &ex));
}

TEST(ExemplarStoreTest, LastWriterWinsPerBucket) {
  obs::ExemplarStore store;
  // Two values in the same raw bucket (deep geometric region).
  const uint64_t a = 1 << 20;
  const size_t bucket = LogHistogram::BucketIndex(a);
  uint64_t b = a + 1;
  while (LogHistogram::BucketIndex(b) != bucket) ++b;
  store.Offer(a, 1);
  store.Offer(b, 2);
  obs::ExemplarStore::Exemplar ex;
  ASSERT_TRUE(store.Read(bucket, &ex));
  EXPECT_EQ(ex.value, b);
  EXPECT_EQ(ex.trace_id, 2u);
}

TEST(ExemplarStoreTest, ConcurrentOffersNeverTearValueIdPairs) {
  obs::ExemplarStore store;
  // Writers hammer one bucket with matched (value, id) pairs; any torn
  // read would pair one writer's value with another's id. Reads that
  // race an in-flight write may legitimately fail (the seqlock rejects
  // them) — the invariant is that a SUCCESSFUL read is never torn.
  const uint64_t base = 1 << 20;
  const size_t bucket = LogHistogram::BucketIndex(base);
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&store, base, t] {
      for (int i = 0; i < 100000; ++i) {
        // id encodes the value, so a reader can verify the pairing.
        store.Offer(base + static_cast<uint64_t>(t),
                    base + static_cast<uint64_t>(t));
      }
    });
  }
  obs::ExemplarStore::Exemplar ex;
  for (int i = 0; i < 200000; ++i) {
    if (store.Read(bucket, &ex)) {
      ASSERT_EQ(ex.value, ex.trace_id) << "torn exemplar";
    }
  }
  for (auto& th : writers) th.join();
  // Quiescent store: the read must now succeed, untorn.
  ASSERT_TRUE(store.Read(bucket, &ex));
  EXPECT_EQ(ex.value, ex.trace_id);
  EXPECT_GE(ex.value, base);
  EXPECT_LT(ex.value, base + 3);
}

// --- OpenMetrics exposition under concurrency -----------------------------

TEST(OpenMetricsExportTest, BuildInfoAndUptimeArePublished) {
  obs::PublishBuildInfo();
  const std::string om =
      obs::RenderOpenMetrics(obs::MetricsRegistry::Global().Snap());
  EXPECT_NE(om.find("simdtree_build_info{"), std::string::npos) << om;
  EXPECT_NE(om.find("git_sha=\""), std::string::npos);
  EXPECT_NE(om.find("backend=\""), std::string::npos);
  EXPECT_NE(om.find("simd_register_bits=\""), std::string::npos);
  EXPECT_NE(om.find("hugepages=\""), std::string::npos);
  EXPECT_NE(om.find("process_uptime_seconds"), std::string::npos);
  EXPECT_NE(om.find("mem_anon_hugepages_bytes"), std::string::npos) << om;
  // The label names what madvised slabs can get, not a 0/1 switch.
  const size_t label = om.find("hugepages=\"");
  ASSERT_NE(label, std::string::npos);
  const size_t begin = label + 11;
  const std::string mode = om.substr(begin, om.find('"', begin) - begin);
  EXPECT_TRUE(mode == "always" || mode == "madvise" || mode == "never")
      << mode;
}

TEST(OpenMetricsExportTest, ExemplarRendersOnTheMatchingBucketLine) {
  auto& reg = obs::MetricsRegistry::Global();
  LogHistogram* h = reg.GetHistogram("obs_test.ex_ns");
  obs::ExemplarStore* ex = reg.GetExemplars("obs_test.ex_ns");
  h->Record(500);
  h->Record(70000);
  ex->Offer(70000, 0x1122334455667788ULL);

  const std::string om = obs::RenderOpenMetrics(reg.Snap());
  const size_t pos = om.find("trace_id=\"1122334455667788\"");
  ASSERT_NE(pos, std::string::npos) << om;
  const size_t line_start = om.rfind('\n', pos) + 1;
  const std::string line =
      om.substr(line_start, om.find('\n', pos) - line_start);
  // On a bucket line of the right family, value appended after the pair.
  EXPECT_EQ(line.rfind("obs_test_ex_ns_bucket{le=\"", 0), 0u) << line;
  EXPECT_NE(line.find("} 70000"), std::string::npos) << line;
  // The 500 sample's bucket has no exemplar: exactly one rendered.
  EXPECT_EQ(om.find("trace_id=\"", pos + 1), std::string::npos);
}

TEST(OpenMetricsExportTest, ScrapeWhileRecordingStaysWellFormed) {
  auto& reg = obs::MetricsRegistry::Global();
  LogHistogram* h = reg.GetHistogram("obs_test.scrape_ns");
  obs::ExemplarStore* ex = reg.GetExemplars("obs_test.scrape_ns");
  obs::Counter* c = reg.GetCounter("obs_test.scrape_total");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(42 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t v = (rng.Next() % 100000) + 1;
        h->Record(v);
        ex->Offer(v, rng.Next() | 1);
        c->Add();
      }
    });
  }

  // Concurrent scrapes: every rendered exposition must be structurally
  // sound — buckets cumulative per family, terminated by # EOF, and
  // every exemplar value within its bucket's le (the lint contract
  // scripts/lint_openmetrics.py enforces in CI).
  for (int scrape = 0; scrape < 20; ++scrape) {
    const std::string om = obs::RenderOpenMetrics(reg.Snap());
    ASSERT_GE(om.size(), 6u);
    EXPECT_EQ(om.substr(om.size() - 6), "# EOF\n");

    double prev_le = -1.0;
    uint64_t prev_count = 0;
    std::string prev_family;
    size_t start = 0;
    while (start < om.size()) {
      const size_t end = om.find('\n', start);
      const std::string line = om.substr(start, end - start);
      start = end + 1;
      const size_t bpos = line.find("_bucket{le=\"");
      if (bpos == std::string::npos) continue;
      const std::string family = line.substr(0, bpos);
      if (family != prev_family) {
        prev_family = family;
        prev_le = -1.0;
        prev_count = 0;
      }
      const char* le_str = line.c_str() + bpos + 12;
      const double le = line.compare(bpos + 12, 4, "+Inf") == 0
                            ? std::numeric_limits<double>::infinity()
                            : std::strtod(le_str, nullptr);
      const size_t vpos = line.find("\"} ");
      ASSERT_NE(vpos, std::string::npos) << line;
      const uint64_t count = std::strtoull(line.c_str() + vpos + 3,
                                           nullptr, 10);
      ASSERT_GT(le, prev_le) << line;
      ASSERT_GE(count, prev_count) << line;
      prev_le = le;
      prev_count = count;
      const size_t epos = line.find("# {trace_id=");
      if (epos != std::string::npos) {
        const double ex_value =
            std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
        ASSERT_LE(ex_value, le) << line;
      }
    }
  }
  stop.store(true);
  for (auto& th : writers) th.join();
}

}  // namespace
}  // namespace simdtree
