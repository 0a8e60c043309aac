// Process-wide metrics registry: named counters, gauges, and histograms
// with JSON export.
//
// The registry is the glue between the instrumented layers (the
// concurrent index wrappers, the CLI profile command, the benches) and
// whatever consumes the numbers: metrics are registered once by name,
// recorded with lock-free atomics on the hot path, and exported as one
// JSON document on demand.
//
// Registration (GetCounter/GetGauge/GetHistogram) takes a mutex and
// returns a stable pointer — objects live for the process lifetime, so
// callers cache the pointer once and record without any lock. The same
// name always maps to the same object (get-or-create), which lets
// independent components share a metric deliberately.
//
// Naming convention: dotted paths, "component.metric[.unit]" — e.g.
// "sharded.reads", "sync.write_lock_ns".

#ifndef SIMDTREE_OBS_METRICS_H_
#define SIMDTREE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mem/arena.h"
#include "obs/exemplar.h"
#include "obs/histogram.h"
#include "util/cycle_timer.h"

namespace simdtree::obs {

// Monotonic event count. Wait-free increments.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written point-in-time value (e.g. an imbalance ratio).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class MetricsRegistry {
 public:
  // The process-wide instance. Construction is thread-safe; the object
  // is never destroyed (no static-destruction-order hazards for metrics
  // recorded from detached threads at exit).
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create by name. Pointers stay valid for the registry's
  // lifetime; cache them outside hot loops.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LogHistogram* GetHistogram(const std::string& name);

  // Exemplar store attached to the histogram of the same name (the
  // exporter joins them when rendering buckets). Get-or-create like the
  // metrics; a store without a matching histogram is simply never
  // rendered.
  ExemplarStore* GetExemplars(const std::string& histogram_name);

  // Info metric: a constant gauge of value 1 whose payload is its label
  // set (e.g. simdtree_build_info{git_sha="...",backend="avx2"} 1).
  // Replaces any previous label set under the name.
  using LabelSet = std::vector<std::pair<std::string, std::string>>;
  void SetInfo(const std::string& name, LabelSet labels);

  // One JSON document over everything registered:
  //   {"counters":{...},"gauges":{...},
  //    "histograms":{"name":{"count":..,"mean":..,"p50":..,"p95":..,
  //                          "p99":..,"p999":..,"max":..}}}
  // Histogram percentiles carry the bucket quantization of
  // LogHistogram::Percentile. Keys are sorted (std::map), so the export
  // is deterministic for tests.
  std::string ToJson() const;

  // Point-in-time enumeration for exporters (obs/export.h): sorted by
  // name (map order), counter/gauge values copied, histograms as the
  // registry's stable pointers (valid until Clear()). Values may keep
  // moving while the snapshot is rendered — that is inherent to
  // scrape-style export and fine.
  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, const LogHistogram*>> histograms;
    std::vector<std::pair<std::string, const ExemplarStore*>> exemplars;
    std::vector<std::pair<std::string, LabelSet>> infos;
  };
  Snapshot Snap() const;

  // Drops every registered metric (invalidates previously returned
  // pointers) — test isolation only, never during recording.
  void Clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
  std::map<std::string, std::unique_ptr<ExemplarStore>> exemplars_;
  std::map<std::string, LabelSet> infos_;
};

// The metric set an instrumented index wrapper records into —
// pre-resolved pointers so the per-operation cost is a handful of
// relaxed atomic adds. Registered under "<prefix>.<metric>" in the
// global registry; two wrappers given the same prefix share the
// metrics (deliberately, same as any shared name).
struct IndexMetrics {
  Counter* reads = nullptr;        // single-key read ops (Find/Contains)
  Counter* writes = nullptr;       // write ops (Insert/Erase/Clear)
  Counter* batches = nullptr;      // FindBatch calls
  Counter* batch_keys = nullptr;   // keys resolved through FindBatch
  LogHistogram* batch_size = nullptr;     // FindBatch n per call
  LogHistogram* read_lock_ns = nullptr;   // shared-lock hold times
  LogHistogram* write_lock_ns = nullptr;  // exclusive-lock hold times
  Gauge* shard_imbalance = nullptr;  // sharded only: max/mean batch share
  Gauge* arena_bytes = nullptr;        // reserved arena slab bytes
  Gauge* arena_utilization = nullptr;  // live block bytes / reserved bytes
  Gauge* arena_slabs = nullptr;        // slab count across pools

  // Resolves the full set under `prefix` in the global registry.
  static IndexMetrics Register(const std::string& prefix);

  // Publishes an arena snapshot (mem/arena.h) into the gauges. The
  // wrappers call this from MemStats(), so the gauges track whenever the
  // caller polls occupancy.
  void PublishArena(const mem::ArenaStats& s) const {
    arena_bytes->Set(static_cast<double>(s.reserved_bytes));
    arena_utilization->Set(s.utilization());
    arena_slabs->Set(static_cast<double>(s.slab_count));
  }
};

// Records the enclosing scope's duration in nanoseconds into `hist` on
// destruction; a null histogram makes the whole object a no-op. Declare
// it *after* a lock guard so it destructs first and the lock release
// falls outside the measured hold.
class ScopedDurationNs {
 public:
  explicit ScopedDurationNs(LogHistogram* hist)
      : hist_(hist), start_(hist != nullptr ? CycleTimer::Now() : 0) {}
  ~ScopedDurationNs() {
    if (hist_ != nullptr) {
      hist_->Record(static_cast<uint64_t>(
          CycleTimer::ToNanoseconds(CycleTimer::Now() - start_)));
    }
  }

  ScopedDurationNs(const ScopedDurationNs&) = delete;
  ScopedDurationNs& operator=(const ScopedDurationNs&) = delete;

 private:
  LogHistogram* hist_;
  uint64_t start_;
};

// The optimistic-lock-coupling / epoch-reclamation metric set
// (core/olc.h). Unlike IndexMetrics these are process-global, not
// per-prefix: the epoch manager is a singleton and every wrapper's
// optimistic read path feeds the same counters.
//
//   olc.read_retries           optimistic attempts invalidated by a
//                              concurrent writer (each restart counts)
//   olc.fallback_acquisitions  reads that exhausted kMaxReadRetries and
//                              took the locked rung (a FindBatch counts
//                              once, however many shards it locks)
//   epoch.current              global epoch (gauge)
//   epoch.deferred_slabs       quarantined slabs awaiting reader advance
//   epoch.deferred_blocks      quarantined node blocks awaiting reuse
struct OlcMetrics {
  Counter* read_retries = nullptr;
  Counter* fallback_acquisitions = nullptr;
  Gauge* epoch_current = nullptr;
  Gauge* epoch_deferred_slabs = nullptr;
  Gauge* epoch_deferred_blocks = nullptr;

  // Resolves the set in the global registry. Cheap enough to call per
  // wrapper construction; the names always map to the same objects.
  static OlcMetrics Register();
};

// Refreshes the epoch.* gauges from the global olc::EpochManager. The
// stats server calls this before rendering /metrics so scrapes see
// current reclamation state without a hot-path publisher.
void PublishEpochStats();

// Publishes the self-describing process metrics into the global
// registry: the simdtree_build_info info metric (git sha, runtime
// dispatch backend, SIMD register width, and the hugepage mode madvised
// slabs get: the kernel's THP mode), the process_uptime_seconds gauge,
// and the mem.anon_hugepages_bytes gauge (AnonHugePages of the process:
// what the kernel actually granted). The stats server calls this per
// scrape (uptime and the grant move); benches may call it once before
// emitting JSON.
void PublishBuildInfo();

}  // namespace simdtree::obs

#endif  // SIMDTREE_OBS_METRICS_H_
