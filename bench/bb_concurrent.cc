// Concurrent mixed read/write throughput: ShardedIndex with N range-
// partitioned shards (per-shard reader/writer locks) versus one shard
// (one global reader/writer lock, the "sync" rows) across BPlusTree /
// SegTree / SegTrie backends — the scaling curve the sharding layer
// exists for, measured rather than asserted.
//
// Sweep: threads x shard count x read fraction, over a ~1M-key index.
// Each measurement point runs for a fixed wall-clock window with the
// read fraction expressed as thread roles: at T threads and read
// fraction r, round(T*(1-r)) threads (at least one) are dedicated
// writers alternating Insert/Erase over the preloaded population, and
// the rest are dedicated readers (Find with a periodic shard-aware
// FindBatch). T==1 degenerates to a single thread mixing both per-op.
// Reads and writes are counted separately and reported as class
// throughputs alongside the aggregate.
//
// What to expect: with one global lock every writer serializes behind
// every reader. On many-core hosts the aggregate curve shows it
// directly: per-shard locks cut the conflict probability to ~1/shards,
// so the sharded curve holds its throughput as threads rise while the
// single-lock curve flattens. On few-core hosts the aggregate hides the
// damage — one core runs one thread at a time either way — but the
// write-class throughput exposes it: glibc's reader-preferring rwlock
// hands the global lock back to the reader crowd at every release, so
// single-lock writers starve (write rates collapse by orders of
// magnitude) while sharded writers only ever contend with the readers
// of their own shard. That is exactly the pathology range partitioning
// removes, so `writes/s` and its `write_speedup_vs_sync` ratio are the
// honest headline on small machines.
//
// Read-mostly sweep: the lock-free read path (optimistic lock coupling,
// see core/olc.h and DESIGN.md "Concurrency") is aimed at read-dominated
// mixes, so a second sweep runs the B+-tree at 90/99/100% reads across a
// thread ladder and reports reads/s plus per-thread scaling efficiency
// r(T) / (T * r(1)). Under the rwlock every reader bounces the lock's
// cache line, so efficiency decays as threads rise even with zero
// writers; with OLC readers share the tree read-only and the efficiency
// holds. Run with SIMDTREE_FORCE_SHARD_LOCKS=1 for the rwlock baseline
// A/B (each point also emits olc_enabled so collected sweeps
// self-identify).
//
// Usage: bb_concurrent [--json] [--quick] [--keys=N]
//   --quick trims the sweep (SegTree only, 8 shards, 1/8 threads) for a
//   fast sanity run; --json emits one line per point as in every other
//   bench binary; --keys=N sets the preload population (default 1M).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/hw_section.h"
#include "btree/btree.h"
#include "core/olc.h"
#include "core/sharded.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "segtree/segtree.h"
#include "segtrie/segtrie.h"
#include "util/cycle_timer.h"
#include "util/rng.h"
#include "util/table_printer.h"

namespace simdtree {

// Preload population, overridable with --keys=N (the EXPERIMENTS.md A/B
// runs the read-mostly sweep at 16M keys so the tree outgrows L3).
// Outside the anonymous namespace so main's flag parsing can set it.
size_t& PreloadCount() {
  static size_t count = 1'000'000;
  return count;
}

namespace {

using Key = uint64_t;
using Value = uint64_t;

// Keys live in a 2^30 domain: dense enough that the Seg-Trie shares
// prefixes (realistic memory), sparse enough that uniform sampling
// rarely collides. Splitters always come from the preload sample, as a
// bulk-load distribution would supply them.
constexpr uint64_t kDomain = 1ULL << 30;
constexpr double kWindowSecs = 0.5;  // per measurement point
constexpr size_t kBatch = 32;        // periodic FindBatch width

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr size_t kShardCounts[] = {2, 4, 8};
constexpr int kReadPercents[] = {50, 95};
constexpr int kReadMostlyPercents[] = {90, 99, 100};

std::vector<Key> MakePreloadKeys() {
  Rng rng(2014);
  std::vector<Key> keys(PreloadCount());
  for (auto& k : keys) k = rng.NextBounded(kDomain);
  return keys;
}

struct PointCounts {
  uint64_t reads = 0;
  uint64_t writes = 0;
  double secs = 0.0;
};

// One measurement point: role-split worker threads run against `index`
// for a fixed window from a common start barrier. Readers are joined
// before writers so a writer parked on the (reader-preferring) lock can
// acquire it, finish its in-flight op, observe the stop flag, and exit;
// that admits at most one post-window op per writer, which only ever
// flatters the single-lock configuration.
template <typename IndexLike>
PointCounts RunPoint(IndexLike& index, const std::vector<Key>& population,
                     int threads, int read_pct, uint64_t point_seed) {
  int writers = 0;
  if (threads >= 2 && read_pct < 100) {
    writers = static_cast<int>(
        (static_cast<long>(threads) * (100 - read_pct) + 50) / 100);
    if (writers < 1) writers = 1;
    if (writers >= threads) writers = threads - 1;
  }
  const int readers = threads - writers;

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_reads{0};
  std::atomic<uint64_t> total_writes{0};

  auto wait_for_go = [&] {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  };

  std::vector<std::thread> reader_pool;
  std::vector<std::thread> writer_pool;

  if (threads == 1) {
    // Single thread: per-op mix at the requested read fraction.
    writer_pool.emplace_back([&] {
      Rng rng(point_seed * 1000003 + 1);
      std::vector<Key> batch(kBatch);
      std::vector<std::optional<Value>> out(kBatch);
      uint64_t reads_done = 0, writes_done = 0, sink = 0;
      wait_for_go();
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        if (rng.NextBounded(100) < static_cast<uint64_t>(read_pct)) {
          if (i % 41 == 0) {
            for (auto& b : batch) {
              b = population[rng.NextBounded(population.size())];
            }
            index.FindBatch(batch.data(), batch.size(), out.data());
            for (const auto& o : out) sink += o.has_value();
            reads_done += batch.size();
          } else {
            const Key k = rng.NextBounded(10) < 7
                              ? population[rng.NextBounded(population.size())]
                              : rng.NextBounded(kDomain);
            const auto v = index.Find(k);
            sink += v.has_value() ? *v : 0;
            ++reads_done;
          }
        } else {
          const Key k = population[rng.NextBounded(population.size())];
          if (rng.NextBounded(2) == 0) {
            index.Insert(k, k ^ 0xBADC0DEULL);
          } else {
            index.Erase(k);
          }
          ++writes_done;
        }
      }
      total_reads.fetch_add(reads_done + (sink == ~0ULL ? 1 : 0));
      total_writes.fetch_add(writes_done);
    });
  } else {
    for (int t = 0; t < readers; ++t) {
      reader_pool.emplace_back([&, t] {
        Rng rng(point_seed * 1000003 + static_cast<uint64_t>(t) * 7919 + 1);
        std::vector<Key> batch(kBatch);
        std::vector<std::optional<Value>> out(kBatch);
        uint64_t reads_done = 0, sink = 0;
        wait_for_go();
        for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          if (i % 41 == 0) {
            // Shard-aware batched read: one lock acquisition per shard
            // touched instead of one per key.
            for (auto& b : batch) {
              b = population[rng.NextBounded(population.size())];
            }
            index.FindBatch(batch.data(), batch.size(), out.data());
            for (const auto& o : out) sink += o.has_value();
            reads_done += batch.size();
          } else {
            // 70% present keys, 30% random (mostly missing).
            const Key k = rng.NextBounded(10) < 7
                              ? population[rng.NextBounded(population.size())]
                              : rng.NextBounded(kDomain);
            const auto v = index.Find(k);
            sink += v.has_value() ? *v : 0;
            ++reads_done;
          }
        }
        total_reads.fetch_add(reads_done + (sink == ~0ULL ? 1 : 0));
      });
    }
    for (int t = 0; t < writers; ++t) {
      writer_pool.emplace_back([&, t] {
        Rng rng(point_seed * 2000003 + static_cast<uint64_t>(t) * 104729 + 1);
        uint64_t writes_done = 0;
        wait_for_go();
        while (!stop.load(std::memory_order_relaxed)) {
          const Key k = population[rng.NextBounded(population.size())];
          if (rng.NextBounded(2) == 0) {
            index.Insert(k, k ^ 0xBADC0DEULL);
          } else {
            index.Erase(k);
          }
          ++writes_done;
        }
        total_writes.fetch_add(writes_done);
      });
    }
  }

  while (ready.load() < threads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(kWindowSecs));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : reader_pool) th.join();
  for (auto& th : writer_pool) th.join();
  // Rates use the nominal window; see the join-order note above.
  PointCounts counts;
  counts.reads = total_reads.load();
  counts.writes = total_writes.load();
  counts.secs = kWindowSecs;
  return counts;
}

template <typename IndexLike>
void Preload(IndexLike& index, const std::vector<Key>& keys) {
  for (Key k : keys) index.Insert(k, k ^ 0xBADC0DEULL);
}

struct PointResult {
  std::string wrapper;  // "sync" or "shardN"
  double ops_per_sec = 0.0;
  double reads_per_sec = 0.0;
  double writes_per_sec = 0.0;
};

template <typename Index>
void RunBackend(const char* backend, const std::vector<Key>& keys,
                bool quick, TablePrinter* table) {
  std::vector<int> threads_sweep(std::begin(kThreadCounts),
                                 std::end(kThreadCounts));
  std::vector<size_t> shards_sweep(std::begin(kShardCounts),
                                   std::end(kShardCounts));
  if (quick) {
    threads_sweep = {1, 8};
    shards_sweep = {8};
  }

  // One index instance per configuration, reused across measurement
  // points: the write mix draws from the preloaded population, so the
  // size stays near the preload count as points run. The single-lock
  // baseline ("sync") is one shard.
  ShardedIndex<Index> sync_index(1);
  Preload(sync_index, keys);
  std::vector<std::unique_ptr<ShardedIndex<Index>>> sharded;
  for (size_t s : shards_sweep) {
    sharded.push_back(std::make_unique<ShardedIndex<Index>>(
        s, ShardedIndex<Index>::SplittersFromSample(keys.data(), keys.size(),
                                                    s)));
    Preload(*sharded.back(), keys);
  }

  uint64_t point_seed = 1;
  for (int read_pct : kReadPercents) {
    for (int threads : threads_sweep) {
      std::vector<PointResult> results;
      auto run_one = [&](const std::string& wrapper, auto& index) {
        const PointCounts c =
            RunPoint(index, keys, threads, read_pct, point_seed++);
        PointResult r;
        r.wrapper = wrapper;
        r.reads_per_sec = static_cast<double>(c.reads) / c.secs;
        r.writes_per_sec = static_cast<double>(c.writes) / c.secs;
        r.ops_per_sec = r.reads_per_sec + r.writes_per_sec;
        results.push_back(r);
      };
      run_one("sync", sync_index);
      for (size_t si = 0; si < shards_sweep.size(); ++si) {
        run_one("shard" + std::to_string(shards_sweep[si]), *sharded[si]);
      }
      const double sync_ops = results[0].ops_per_sec;
      const double sync_writes = results[0].writes_per_sec;
      for (const PointResult& r : results) {
        const double speedup = r.ops_per_sec / sync_ops;
        const double wspeedup =
            sync_writes > 0.0 ? r.writes_per_sec / sync_writes : 0.0;
        const std::string cfg = std::string(backend) + "/" + r.wrapper +
                                "/t" + std::to_string(threads) + "/rf" +
                                std::to_string(read_pct);
        bench::EmitJson("bb_concurrent", cfg, "ops_per_sec", r.ops_per_sec);
        bench::EmitJson("bb_concurrent", cfg, "reads_per_sec",
                        r.reads_per_sec);
        bench::EmitJson("bb_concurrent", cfg, "writes_per_sec",
                        r.writes_per_sec);
        if (r.wrapper != "sync") {
          bench::EmitJson("bb_concurrent", cfg, "speedup_vs_sync", speedup);
          bench::EmitJson("bb_concurrent", cfg, "write_speedup_vs_sync",
                          wspeedup);
        }
        table->AddRow({backend, r.wrapper, std::to_string(read_pct) + "%",
                       std::to_string(threads),
                       TablePrinter::Fmt(r.ops_per_sec / 1e6, 2),
                       TablePrinter::Fmt(r.writes_per_sec / 1e3, 1),
                       TablePrinter::Fmt(speedup, 2),
                       TablePrinter::Fmt(wspeedup, 1)});
      }
      std::fflush(stdout);
    }
  }
}

// Read-mostly sweep over the OLC-capable B+-tree: 90/99/100% reads
// across a thread ladder (powers of two through the hardware thread
// count, minimum 4 rungs so few-core hosts still produce a curve —
// oversubscribed rungs are reported as measured). Each point emits
// reads/s, writes/s, and for T>1 the per-thread scaling efficiency
// r(T) / (T * r(1)) against the same wrapper's single-thread rate.
// olc_enabled tags whether the lock-free path was armed, so an
// A/B against SIMDTREE_FORCE_SHARD_LOCKS=1 is two runs of the same
// binary.
void ReadMostlySweep(const std::vector<Key>& keys, bool quick) {
  using Index = btree::BPlusTree<Key, Value>;

  std::vector<int> ladder;
  {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw < 8) hw = 8;
    for (unsigned t = 1; t <= hw; t *= 2) {
      ladder.push_back(static_cast<int>(t));
    }
  }
  std::vector<int> percents(std::begin(kReadMostlyPercents),
                            std::end(kReadMostlyPercents));
  if (quick) {
    ladder = {1, 2};
    percents = {99};
  }

  ShardedIndex<Index> sync_index(1);
  Preload(sync_index, keys);
  constexpr size_t kShards = 8;
  ShardedIndex<Index> sharded(
      kShards,
      ShardedIndex<Index>::SplittersFromSample(keys.data(), keys.size(),
                                               kShards));
  Preload(sharded, keys);
  const double olc_enabled = olc::ForceShardLocks() ? 0.0 : 1.0;

  TablePrinter table({"wrapper", "reads", "threads", "Mreads/s",
                      "Kwrites/s", "scaling eff"});
  uint64_t point_seed = 0xA11CE;
  auto sweep_one = [&](const char* wrapper, auto& index) {
    for (int read_pct : percents) {
      double single_thread_reads = 0.0;
      for (int threads : ladder) {
        const PointCounts c =
            RunPoint(index, keys, threads, read_pct, point_seed++);
        const double rps = static_cast<double>(c.reads) / c.secs;
        const double wps = static_cast<double>(c.writes) / c.secs;
        if (threads == 1) single_thread_reads = rps;
        const double efficiency =
            (threads > 1 && single_thread_reads > 0.0)
                ? rps / (static_cast<double>(threads) * single_thread_reads)
                : 1.0;
        const std::string cfg = std::string("btree/") + wrapper + "/rm" +
                                std::to_string(read_pct) + "/t" +
                                std::to_string(threads);
        bench::EmitJson("bb_concurrent", cfg, "reads_per_sec", rps);
        bench::EmitJson("bb_concurrent", cfg, "writes_per_sec", wps);
        bench::EmitJson("bb_concurrent", cfg, "olc_enabled", olc_enabled);
        if (threads > 1) {
          bench::EmitJson("bb_concurrent", cfg, "scaling_efficiency",
                          efficiency);
        }
        table.AddRow({wrapper, std::to_string(read_pct) + "%",
                      std::to_string(threads),
                      TablePrinter::Fmt(rps / 1e6, 2),
                      TablePrinter::Fmt(wps / 1e3, 1),
                      TablePrinter::Fmt(efficiency, 2)});
        std::fflush(stdout);
      }
    }
  };
  sweep_one("sync", sync_index);
  sweep_one("shard8", sharded);

  std::printf("\nread-mostly sweep (btree, %zu keys, %s reads):\n",
              keys.size(),
              olc_enabled != 0.0 ? "lock-free OLC" : "rwlock (forced)");
  table.Print();
  std::printf("\n");
}

// Observability phase: per-read latency distribution under write
// contention, recorded concurrently into one lock-free LogHistogram
// (obs/histogram.h), plus a hardware-counter section for the uncontended
// read path and a dump of the wrapper's own metrics registry entries.
// The tail percentiles (p99/p99.9) are where the single-lock wrapper's
// reader/writer convoys live — means hide them entirely.
void LatencyPhase(const std::vector<Key>& keys, bool quick) {
  using Index = segtree::SegTree<Key, Value>;
  constexpr size_t kShards = 8;
  ShardedIndex<Index> index(
      kShards,
      ShardedIndex<Index>::SplittersFromSample(keys.data(), keys.size(),
                                               kShards));
  index.EnableMetrics("bb_concurrent.shard8");
  Preload(index, keys);

  // Hardware profile of the uncontended sharded read path (counters are
  // per calling thread, so this phase stays single-threaded).
  {
    Rng rng(7);
    std::vector<Key> probes(10000);
    for (auto& p : probes) p = keys[rng.NextBounded(keys.size())];
    uint64_t sink = 0;
    bench::HwSection("bb_concurrent", "hw/segtree_shard8/find",
                     static_cast<double>(probes.size()), [&] {
                       for (Key p : probes) {
                         const auto v = index.Find(p);
                         sink += v.has_value() ? *v : 0;
                       }
                     });
    if (sink == 0xDEADBEEFDEADBEEFULL) std::fprintf(stderr, "\n");
  }

  // Concurrent latency recording: readers time every Find with RDTSC and
  // record nanoseconds into the shared histogram while a writer churns.
  obs::LogHistogram hist;
  const double window = quick ? 0.15 : 0.5;
  std::atomic<bool> stop{false};
  const int reader_count = 3;
  std::vector<std::thread> pool;
  for (int t = 0; t < reader_count; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(4000 + static_cast<uint64_t>(t));
      uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = keys[rng.NextBounded(keys.size())];
        const uint64_t start = CycleTimer::Now();
        const auto v = index.Find(k);
        hist.Record(static_cast<uint64_t>(
            CycleTimer::ToNanoseconds(CycleTimer::Now() - start)));
        sink += v.has_value() ? *v : 0;
      }
      if (sink == ~0ULL) std::fprintf(stderr, "\n");
    });
  }
  pool.emplace_back([&] {
    Rng rng(5000);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key k = keys[rng.NextBounded(keys.size())];
      if (rng.NextBounded(2) == 0) {
        index.Insert(k, k ^ 0xBADC0DEULL);
      } else {
        index.Erase(k);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(window));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();

  std::printf(
      "read latency under contention (segtree, 8 shards, %d readers + 1 "
      "writer, %zu samples):\n"
      "  p50 %llu ns  p95 %llu ns  p99 %llu ns  p99.9 %llu ns  "
      "mean %.0f ns  max %llu ns\n\n",
      reader_count, static_cast<size_t>(hist.Count()),
      static_cast<unsigned long long>(hist.Percentile(0.50)),
      static_cast<unsigned long long>(hist.Percentile(0.95)),
      static_cast<unsigned long long>(hist.Percentile(0.99)),
      static_cast<unsigned long long>(hist.Percentile(0.999)), hist.Mean(),
      static_cast<unsigned long long>(hist.Max()));
  const std::string cfg = "segtree/shard8/latency";
  bench::EmitJson("bb_concurrent", cfg, "read_latency_ns_p50",
                  hist.Percentile(0.50));
  bench::EmitJson("bb_concurrent", cfg, "read_latency_ns_p95",
                  hist.Percentile(0.95));
  bench::EmitJson("bb_concurrent", cfg, "read_latency_ns_p99",
                  hist.Percentile(0.99));
  bench::EmitJson("bb_concurrent", cfg, "read_latency_ns_p999",
                  hist.Percentile(0.999));
  bench::EmitJson("bb_concurrent", cfg, "read_latency_samples",
                  static_cast<double>(hist.Count()));
  if (bench::JsonEnabled()) {
    std::printf("{\"bench\":\"bb_concurrent\",\"config\":\"registry\","
                "\"metrics\":%s}\n",
                obs::MetricsRegistry::Global().ToJson().c_str());
  }
}

void Run(bool quick) {
  bench::PrintBenchHeader(
      "Concurrent mixed read/write throughput: ShardedIndex, N shards vs "
      "one, ~1M uint64 keys");
  std::printf("hardware threads: %u | window per point: %.1fs | "
              "write mix: 50%% insert / 50%% erase over the preload set\n\n",
              std::thread::hardware_concurrency(), kWindowSecs);

  const std::vector<Key> keys = MakePreloadKeys();
  ReadMostlySweep(keys, quick);
  LatencyPhase(keys, quick);
  TablePrinter table({"structure", "wrapper", "reads", "threads", "Mops/s",
                      "Kwrites/s", "vs sync", "w vs sync"});
  RunBackend<segtree::SegTree<Key, Value>>("segtree", keys, quick, &table);
  if (!quick) {
    RunBackend<btree::BPlusTree<Key, Value>>("btree", keys, quick, &table);
    RunBackend<segtrie::SegTrie<Key, Value>>("segtrie", keys, quick, &table);
  }
  std::printf("\n");
  table.Print();
}

}  // namespace
}  // namespace simdtree

int main(int argc, char** argv) {
  simdtree::bench::ParseBenchArgs(argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--keys=", 7) == 0) {
      const unsigned long long n = std::strtoull(argv[i] + 7, nullptr, 10);
      if (n > 0) simdtree::PreloadCount() = static_cast<size_t>(n);
    }
  }
  simdtree::Run(quick);
  return 0;
}
