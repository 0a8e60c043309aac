// Range-partitioned, thread-safe wrapper for the simdtree trees and tries.
//
// The paper's evaluation is single-threaded and names concurrency as
// future work ("the impact of SIMD instructions on concurrently used
// index structures is an ongoing research task", Section 7).
// ShardedIndex makes the structures shareable: N range-partitioned
// shards, each an independent Index instance behind its own
// shared_mutex, so writers to different key ranges proceed in parallel
// and lock contention drops by ~1/N even when they don't. One shard is
// the plain single-lock wrapper: ShardedIndex(1) starts empty,
// ShardedIndex(Index) adopts an index already built (e.g. loaded from a
// blob).
//
// Partitioning is static and rebalance-free: N-1 sorted splitter keys
// divide the key domain; shard i owns [splitter[i-1], splitter[i]) (a
// key equal to a splitter belongs to the shard on its right). The shard
// count is rounded up to a power of two. Splitters come from either a
// uniform division of the integral key domain (default constructor) or
// sample quantiles (SplittersFromSample), matching a bulk-load
// distribution.
//
// Consistency model: each operation is atomic within one shard.
// Multi-shard operations (size, ScanRange, FindBatch, Clear) lock one
// shard at a time in ascending shard order, so they see a per-shard
// snapshot, not a global one — a concurrent writer may land between two
// shard visits. This is the usual contract of partitioned stores;
// callers needing a global quiescent view must stop writers first.
// Deadlock-free by construction: no operation ever holds two shard
// locks at once.
//
// ScanRange stitches results across shard boundaries: shards are
// visited in key order and each shard only stores keys of its own
// range, so the callback still observes keys in globally ascending
// order. FindBatch is shard-aware: the query batch is partitioned by
// shard, each shard's keys run through the underlying group-pipelined
// FindBatch (btree/batch_descent.h, kary/batch_search.h, the trie's
// FindBatch) under ONE lock acquisition per shard, and results scatter
// back to the caller's order.
//
// Lock-free reads (optimistic lock coupling): when the wrapped index
// exposes the optimistic read paths (the B+-trees with trivially
// copyable payloads in arena mode, see generic_btree.h), the
// constructor arms them and Find / Contains / FindBatch / ScanRange
// descend WITHOUT touching the shard lock. Every read of a shard climbs
// one ladder (ReadShard): pin a reclamation epoch (core/olc.h), try the
// version-validated read, restart on writer conflict at most
// olc::kMaxReadRetries times, then fall back to one shared-lock
// acquisition — the same rung a read takes directly when the epoch
// registry is exhausted. Writers still take the shard's exclusive lock
// (serializing writers per shard) but no longer stall readers, and
// readers no longer starve writers through glibc's reader-preferring
// rwlock. SIMDTREE_FORCE_SHARD_LOCKS=1 restores the pure locked
// behavior process-wide. Conflict/fallback volume is observable via the
// olc.* counters (obs/metrics.h).
//
// Tracing: a sampled read (obs/trace.h) climbs the same ladder and runs
// the same engines, observed by a TraceObserver (core/descent_observer.h)
// instead of the NullObserver: its DescentTrace carries the shard, the
// level spans of the attempt that answered (a batch: of the sub-batch
// holding keys[0], from lock-free round 0 or else the locked engine), and
// a lock wait only when the locked rung ran.

#ifndef SIMDTREE_CORE_SHARDED_H_
#define SIMDTREE_CORE_SHARDED_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/descent_observer.h"
#include "core/olc.h"
#include "mem/arena.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "util/cycle_timer.h"

namespace simdtree {

template <typename Index>
class ShardedIndex {
 public:
  using KeyType = typename Index::KeyType;
  using ValueType = typename Index::ValueType;

  // num_shards is rounded up to a power of two. Splitters divide the
  // full integral key domain uniformly — the right default for the
  // uniform-random and full-domain workloads of the paper's evaluation.
  explicit ShardedIndex(size_t num_shards = kDefaultShards)
      : ShardedIndex(RoundUpShards(num_shards),
                     UniformSplitters(RoundUpShards(num_shards))) {}

  // Explicit splitters: must be sorted, size == num_shards - 1. Equal
  // adjacent splitters are allowed and simply leave a shard empty.
  ShardedIndex(size_t num_shards, std::vector<KeyType> splitters)
      : splitters_(std::move(splitters)),
        olc_metrics_(obs::OlcMetrics::Register()) {
    num_shards = RoundUpShards(num_shards);
    assert(splitters_.size() == num_shards - 1);
    assert(std::is_sorted(splitters_.begin(), splitters_.end()));
    shards_.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      shards_.push_back(std::make_unique<Shard>());
    }
    ArmOptimisticReads();
  }

  // One shard adopting an already-built index (e.g. one loaded from a
  // blob). Lock-free reads are armed after the move, so the adopted
  // index's pools defer reclamation exactly like a fresh shard's.
  explicit ShardedIndex(Index index)
      : olc_metrics_(obs::OlcMetrics::Register()) {
    shards_.push_back(std::make_unique<Shard>(std::move(index)));
    ArmOptimisticReads();
  }

  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  // Splitter keys at the sample's quantiles, for key distributions that
  // a uniform domain division would skew (e.g. clustered bulk loads).
  // The sample is copied and sorted; n may be zero (falls back to the
  // uniform division).
  static std::vector<KeyType> SplittersFromSample(const KeyType* sample,
                                                  size_t n,
                                                  size_t num_shards) {
    num_shards = RoundUpShards(num_shards);
    if (n == 0) return UniformSplitters(num_shards);
    std::vector<KeyType> sorted(sample, sample + n);
    std::sort(sorted.begin(), sorted.end());
    std::vector<KeyType> splitters;
    splitters.reserve(num_shards - 1);
    for (size_t s = 1; s < num_shards; ++s) {
      splitters.push_back(sorted[s * n / num_shards]);
    }
    return splitters;
  }

  size_t num_shards() const { return shards_.size(); }
  const std::vector<KeyType>& splitters() const { return splitters_; }

  // Starts recording per-operation metrics under "<prefix>.*" in the
  // global registry (obs/metrics.h): read/write op counters, batch-size
  // histogram, lock-hold-time histograms, and a per-shard imbalance
  // gauge updated on every FindBatch (max shard share / perfectly even
  // share; 1.0 = balanced). Call before sharing across threads —
  // enabling is not synchronized against in-flight operations.
  void EnableMetrics(const std::string& prefix) {
    metrics_ = obs::IndexMetrics::Register(prefix);
  }

  // Shard owning `key` (upper bound over the splitters: a key equal to
  // a splitter goes right).
  size_t ShardOf(KeyType key) const {
    return static_cast<size_t>(
        std::upper_bound(splitters_.begin(), splitters_.end(), key) -
        splitters_.begin());
  }

  // --- writers ----------------------------------------------------------

  auto Insert(KeyType key, ValueType value) {
    if (metrics_) metrics_->writes->Add();
    Shard& shard = *shards_[ShardOf(key)];
    std::unique_lock lock(shard.mutex);
    obs::ScopedDurationNs hold(metrics_ ? metrics_->write_lock_ns : nullptr);
    return shard.index.Insert(key, std::move(value));
  }

  bool Erase(KeyType key) {
    if (metrics_) metrics_->writes->Add();
    Shard& shard = *shards_[ShardOf(key)];
    std::unique_lock lock(shard.mutex);
    obs::ScopedDurationNs hold(metrics_ ? metrics_->write_lock_ns : nullptr);
    return shard.index.Erase(key);
  }

  void Clear() {
    if (metrics_) metrics_->writes->Add();
    for (auto& shard : shards_) {
      std::unique_lock lock(shard->mutex);
      obs::ScopedDurationNs hold(metrics_ ? metrics_->write_lock_ns
                                          : nullptr);
      shard->index.Clear();
    }
  }

  // --- readers ----------------------------------------------------------

  std::optional<ValueType> Find(KeyType key) const {
    if (metrics_) metrics_->reads->Add();
    const size_t s = ShardOf(key);
    if (obs::TraceShouldSample()) [[unlikely]] {
      return SampledFind(s, key);
    }
    NullObserver none;
    return FindIn(*shards_[s], key, none);
  }

  bool Contains(KeyType key) const { return Find(key).has_value(); }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::shared_lock lock(shard->mutex);
      total += shard->index.size();
    }
    return total;
  }

  // Batched point lookup, shard-aware: out[i] = value of keys[i] or
  // nullopt. A multi-shard batch is partitioned by shard (counting sort
  // on shard id, preserving caller order within each shard); a one-shard
  // batch skips the partition. Either way each shard's sub-batch runs
  // through FindInShard: the optimistic or locked group-pipelined (or
  // grouped) FindBatch, with values copied out before the shard is
  // released — so the results stay valid after concurrent writers
  // proceed.
  void FindBatch(const KeyType* keys, size_t n,
                 std::optional<ValueType>* out) const {
    if (n == 0) return;
    const size_t num = shards_.size();
    std::vector<size_t> start;   // sub-batch s is [start[s], start[s+1])
    std::vector<KeyType> skeys;  // keys in shard order
    std::vector<size_t> spos;    // caller position of skeys[i]
    size_t first_shard = 0;      // shard of keys[0]
    double imbalance = 1.0;
    if (num > 1) {
      // Request-span hook (obs/request_trace.h): the partition and
      // scatter passes are the shard_fanout span, the per-shard descents
      // below the descent span.
      obs::CollectedSpanScope fanout_span(
          obs::RequestSpanKind::kShardFanout);
      // Pass 1: shard id per key + per-shard counts.
      std::vector<uint32_t> shard_of(n);
      start.assign(num + 1, 0);
      for (size_t i = 0; i < n; ++i) {
        const size_t s = ShardOf(keys[i]);
        shard_of[i] = static_cast<uint32_t>(s);
        ++start[s + 1];
      }
      // Imbalance of this batch across shards: the largest shard's key
      // count relative to a perfectly even split (1.0 = balanced,
      // num_shards = everything on one shard).
      size_t max_count = 0;
      for (size_t s = 0; s < num; ++s) {
        max_count = std::max(max_count, start[s + 1]);
        start[s + 1] += start[s];
      }
      imbalance = static_cast<double>(max_count * num) /
                  static_cast<double>(n);
      // Pass 2: scatter keys and original positions into shard order.
      skeys.resize(n);
      spos.resize(n);
      std::vector<size_t> fill(start.begin(), start.end() - 1);
      for (size_t i = 0; i < n; ++i) {
        const size_t at = fill[shard_of[i]]++;
        skeys[at] = keys[i];
        spos[at] = i;
      }
      first_shard = shard_of[0];
    }
    if (metrics_) {
      metrics_->batches->Add();
      metrics_->batch_keys->Add(n);
      metrics_->batch_size->Record(n);
      metrics_->shard_imbalance->Set(imbalance);
    }
    // One trace per sampled batch, attributed to the batch's first key.
    // The partition preserves caller order within a shard, so keys[0]
    // leads its shard's sub-batch; that sub-batch runs under a
    // TraceObserver and the trace carries its shard id and lock wait.
    std::optional<obs::TraceScope> scope;
    if (obs::TraceShouldSample()) [[unlikely]] {
      scope.emplace();
      scope->trace()->shard = static_cast<uint16_t>(first_shard);
      scope->trace()->batched = 1;
    }
    obs::CollectedSpanScope descent_span(obs::RequestSpanKind::kDescent);
    const auto find_in = [&](size_t s, const KeyType* sub, size_t m,
                             const size_t* pos) {
      if (scope && s == first_shard) [[unlikely]] {
        TraceObserver traced(scope->trace(), m);
        FindInShard(*shards_[s], sub, m, pos, out, traced);
        traced.Stamp(keys[0], out[0].has_value());
      } else {
        NullObserver none;
        FindInShard(*shards_[s], sub, m, pos, out, none);
      }
    };
    if (num == 1) {
      find_in(0, keys, n, nullptr);
    } else {
      for (size_t s = 0; s < num; ++s) {
        const size_t lo = start[s], hi = start[s + 1];
        if (lo == hi) continue;
        find_in(s, skeys.data() + lo, hi - lo, spos.data() + lo);
      }
    }
    if (scope) scope->Finish();
  }

  // Merged arena occupancy across all shards (all-zero when the index
  // type is not arena-backed), one shared lock at a time — the same
  // per-shard snapshot semantics as size().
  mem::ArenaStats MemStats() const {
    mem::ArenaStats total;
    ForEachShardRead([&total](size_t, const Index& index) {
      total.Merge(mem::IndexMemStats(index));
    });
    if (metrics_) metrics_->PublishArena(total);
    return total;
  }

  // Runs fn(key, value) over [lo, hi) (or [lo, hi] when hi_inclusive)
  // in globally ascending key order, stitching across shard boundaries:
  // shards intersecting the range are visited in key order. fn must not
  // call back into this index. A locked scan is atomic per shard, not
  // across shards (see the consistency note above); a lock-free one that
  // restarts resumes after the last pair it delivered, so it never
  // repeats or reorders a pair but may mix pre- and post-write state.
  template <typename Fn>
  void ScanRange(KeyType lo, KeyType hi, Fn fn,
                 bool hi_inclusive = false) const {
    if (!hi_inclusive && lo >= hi) return;
    const size_t last = ShardOf(hi);
    for (size_t s = ShardOf(lo); s <= last; ++s) {
      // Delivery floor: a conflicted optimistic attempt leaves `resume`
      // at the last validated leaf's floor and `skip` at the number of
      // its occurrences already delivered, so neither the next attempt
      // nor the locked rung hands fn a pair twice.
      KeyType resume = lo;
      uint32_t skip = 0;
      ReadShard(
          *shards_[s], /*t=*/nullptr,
          [&](const auto& index, int /*round*/) -> size_t {
            return index.ScanRangeOptimistic(
                       hi, hi_inclusive, &resume, &skip,
                       [&fn](KeyType k, const ValueType& v) { fn(k, v); }) ==
                           olc::ReadResult::kOk
                       ? 0
                       : 1;
          },
          [&](const Index& index) {
            uint32_t seen = 0;
            index.ScanRange(
                resume, hi,
                [&](KeyType k, const ValueType& v) {
                  if (k == resume && seen++ < skip) return;
                  fn(k, v);
                },
                hi_inclusive);
          });
    }
  }

  // Read-only access to one shard's index under its shared lock.
  template <typename Fn>
  auto WithShardRead(size_t shard, Fn fn) const {
    std::shared_lock lock(shards_[shard]->mutex);
    return fn(static_cast<const Index&>(shards_[shard]->index));
  }

  // Mutating access to one shard's index under its exclusive lock.
  template <typename Fn>
  auto WithShardWrite(size_t shard, Fn fn) {
    std::unique_lock lock(shards_[shard]->mutex);
    return fn(shards_[shard]->index);
  }

  // fn(shard_id, const Index&) for every shard, one shared lock at a
  // time in ascending order (per-shard snapshot semantics).
  template <typename Fn>
  void ForEachShardRead(Fn fn) const {
    for (size_t s = 0; s < shards_.size(); ++s) {
      std::shared_lock lock(shards_[s]->mutex);
      fn(s, static_cast<const Index&>(shards_[s]->index));
    }
  }

  // Every shard's structural invariants plus the partition invariant:
  // all keys of shard i lie in [splitter[i-1], splitter[i]).
  bool Validate() const {
    bool ok = true;
    ForEachShardRead([&](size_t s, const Index& index) {
      if (!index.Validate()) ok = false;
      const KeyType lo = s == 0 ? std::numeric_limits<KeyType>::min()
                                : splitters_[s - 1];
      const KeyType hi = s + 1 == shards_.size()
                             ? std::numeric_limits<KeyType>::max()
                             : splitters_[s];
      index.ScanRange(
          std::numeric_limits<KeyType>::min(),
          std::numeric_limits<KeyType>::max(),
          [&](KeyType k, const ValueType&) {
            if (k < lo || (s + 1 < shards_.size() && k >= hi)) ok = false;
          },
          /*hi_inclusive=*/true);
    });
    return ok;
  }

 private:
  struct Shard {
    Shard() = default;
    explicit Shard(Index adopted) : index(std::move(adopted)) {}

    mutable std::shared_mutex mutex;
    Index index;
  };

  // Arms lock-free reads when the index supports them and
  // SIMDTREE_FORCE_SHARD_LOCKS doesn't force the pure locked path. All
  // shards must arm (heap mode refuses) or none do — mixed modes would
  // complicate the read paths for no benefit.
  void ArmOptimisticReads() {
    if constexpr (HasOptimisticReads<Index, KeyType, ValueType>) {
      if (olc::ForceShardLocks()) return;
      bool all = true;
      for (auto& shard : shards_) {
        if (!shard->index.EnableConcurrentReads()) all = false;
      }
      olc_enabled_ = all;
    }
  }

  // The read ladder every read of one shard climbs. When lock-free reads
  // are armed it pins an epoch and runs attempt(index, round) for up to
  // olc::kMaxReadRetries rounds; attempt returns how many of its reads the
  // round left conflicted (0 ends the read), each counted in
  // olc.read_retries. Reads still conflicted after the last round run
  // locked(index) once under the shard's shared lock — the
  // writer-preferring fallback rung: a reader losing races repeatedly
  // queues once instead of spinning on tree state forever. locked is also
  // the whole read when the ladder is skipped: lock-free reads off or the
  // epoch registry exhausted (256+ reader threads). A non-null `t` (a
  // sampled read) records the lock wait if the locked rung runs. attempt
  // takes the index as a generic (`const auto&`) parameter so its body is
  // only instantiated for indexes with the optimistic read paths.
  template <typename Attempt, typename Locked>
  void ReadShard(const Shard& shard, obs::DescentTrace* t, Attempt attempt,
                 Locked locked) const {
    if constexpr (HasOptimisticReads<Index, KeyType, ValueType>) {
      if (olc_enabled_) {
        olc::EpochGuard epoch;
        if (epoch.pinned()) {
          for (int round = 0; round < olc::kMaxReadRetries; ++round) {
            const size_t conflicted = attempt(shard.index, round);
            if (conflicted == 0) return;
            olc_metrics_.read_retries->Add(conflicted);
          }
          olc_metrics_.fallback_acquisitions->Add();
        }
      }
    }
    LockedRead(shard, t, locked);
  }

  // Runs locked(index) under the shard's shared lock, recording the hold
  // time and, for a traced read, the lock wait into `t`.
  template <typename Locked>
  void LockedRead(const Shard& shard, obs::DescentTrace* t,
                  Locked locked) const {
    const uint64_t lock_start = t != nullptr ? CycleTimer::Now() : 0;
    std::shared_lock lock(shard.mutex);
    if (t != nullptr) {
      t->lock_wait_ns = static_cast<uint64_t>(
          CycleTimer::ToNanoseconds(CycleTimer::Now() - lock_start));
    }
    obs::ScopedDurationNs hold(metrics_ ? metrics_->read_lock_ns : nullptr);
    locked(static_cast<const Index&>(shard.index));
  }

  // A sampled Find (obs/trace.h): the same read under a TraceObserver.
  // Out of line of Find, so the common path stays one sampling branch.
  std::optional<ValueType> SampledFind(size_t s, KeyType key) const {
    obs::TraceScope scope;
    scope.trace()->shard = static_cast<uint16_t>(s);
    TraceObserver traced(scope.trace());
    const auto result = traced.Stamp(key, FindIn(*shards_[s], key, traced));
    scope.Finish();
    return result;
  }

  // One shard's point read, observed by `obs` (the index's descent
  // engines call its hooks).
  template <typename Obs>
  std::optional<ValueType> FindIn(const Shard& shard, KeyType key,
                                  Obs& obs) const {
    std::optional<ValueType> out;
    ReadShard(
        shard, obs.trace(),
        [&](const auto& index, int /*round*/) -> size_t {
          return index.FindOptimistic(key, &out, obs) == olc::ReadResult::kOk
                     ? 0
                     : 1;
        },
        [&](const Index& index) { out = index.Find(key, obs); });
    return out;
  }

  // One shard's share of a FindBatch: keys[0..m) all belong to `shard`,
  // and result j lands in out[pos[j]] (out[j] when pos is null, i.e. a
  // one-shard batch). Round 0 of the ladder runs the whole sub-batch
  // through the optimistic grouped or pipelined engine under one epoch
  // pin; later rounds retry only the keys a writer invalidated. The
  // locked rung runs the locked engine over the keys still unresolved —
  // all of them when the lock-free rounds never ran. `obs` observes the
  // engine that ran the whole sub-batch: round 0, or the locked engine
  // when no lock-free round ran.
  template <typename Obs>
  void FindInShard(const Shard& shard, const KeyType* keys, size_t m,
                   const size_t* pos, std::optional<ValueType>* out,
                   Obs& obs) const {
    std::vector<std::optional<ValueType>> scratch(pos != nullptr ? m : 0);
    std::optional<ValueType>* vals = pos != nullptr ? scratch.data() : out;
    std::vector<uint32_t> failed;  // still conflicted, in sub-batch order
    ReadShard(
        shard, obs.trace(),
        [&](const auto& index, int round) -> size_t {
          if (round == 0) {
            if (UseGroupedDescent(m, OptimisticLevels(index))) {
              index.FindBatchGroupedOptimistic(keys, m, vals, &failed, obs);
            } else {
              index.FindBatchOptimistic(keys, m, vals, &failed, obs);
            }
          } else {
            size_t kept = 0;
            for (const uint32_t j : failed) {
              if (index.FindOptimistic(keys[j], &vals[j]) !=
                  olc::ReadResult::kOk) {
                failed[kept++] = j;
              }
            }
            failed.resize(kept);
          }
          return failed.size();
        },
        [&](const Index& index) {
          // The ladder only falls back with keys left conflicted, so an
          // empty list means no lock-free round ran.
          if (failed.empty()) {
            LockedFindBatch(index, keys, m, vals, nullptr, obs);
            return;
          }
          std::vector<KeyType> left(failed.size());
          for (size_t i = 0; i < failed.size(); ++i) {
            left[i] = keys[failed[i]];
          }
          NullObserver none;
          LockedFindBatch(index, left.data(), left.size(), vals,
                          failed.data(), none);
        });
    if (pos != nullptr) {
      for (size_t j = 0; j < m; ++j) out[pos[j]] = std::move(vals[j]);
    }
  }

  // The locked engine for one sub-batch, called with the shard's shared
  // lock held: the grouped (level-wise, sort-once) descent when the
  // index has one and the sub-batch clears the UseGroupedDescent
  // heuristic, otherwise the group-pipelined FindBatch in 256-key
  // chunks. Result j is copied into vals[at[j]] (vals[j] when at is
  // null) while the lock is held.
  template <typename Obs>
  static void LockedFindBatch(const Index& index, const KeyType* keys,
                              size_t m, std::optional<ValueType>* vals,
                              const uint32_t* at, Obs& obs) {
    auto emit = [vals, at](size_t j, const ValueType* p) {
      std::optional<ValueType>& slot = vals[at != nullptr ? at[j] : j];
      if (p != nullptr) {
        slot = *p;
      } else {
        slot.reset();
      }
    };
    if constexpr (HasGroupedFindBatch<Index, KeyType, ValueType>) {
      if (UseGroupedDescent(m, BatchLevels(index))) {
        std::vector<const ValueType*> ptrs(m);
        index.FindBatchGrouped(keys, m, ptrs.data(), obs);
        for (size_t j = 0; j < m; ++j) emit(j, ptrs[j]);
        return;
      }
    }
    constexpr size_t kChunk = 256;
    const ValueType* ptrs[kChunk];
    for (size_t off = 0; off < m; off += kChunk) {
      const size_t g = std::min(m - off, kChunk);
      index.FindBatch(keys + off, g, ptrs, kDefaultBatchGroup, obs);
      for (size_t j = 0; j < g; ++j) emit(off + j, ptrs[j]);
    }
  }

  static constexpr size_t kDefaultShards = 8;
  static constexpr size_t kMaxShards = 1u << 16;

  static size_t RoundUpShards(size_t n) {
    if (n < 1) n = 1;
    if (n > kMaxShards) n = kMaxShards;
    return std::bit_ceil(n);
  }

  // Splitters dividing the full integral domain into num_shards equal
  // ranges. Signed keys are handled by stepping through the unsigned
  // image of the domain (same trick as the SIMD layer's sign-bit flip).
  static std::vector<KeyType> UniformSplitters(size_t num_shards) {
    static_assert(std::is_integral_v<KeyType>,
                  "default splitters need an integral key; pass explicit "
                  "splitters (e.g. SplittersFromSample) otherwise");
    using U = std::make_unsigned_t<KeyType>;
    assert(std::countr_zero(num_shards) < std::numeric_limits<U>::digits &&
           "more shards than distinct keys in the domain");
    std::vector<KeyType> splitters;
    splitters.reserve(num_shards - 1);
    const int shift =
        std::numeric_limits<U>::digits - std::countr_zero(num_shards);
    const U base = static_cast<U>(std::numeric_limits<KeyType>::min());
    for (size_t s = 1; s < num_shards; ++s) {
      splitters.push_back(
          static_cast<KeyType>(base + (static_cast<U>(s) << shift)));
    }
    return splitters;
  }

  std::vector<KeyType> splitters_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::optional<obs::IndexMetrics> metrics_;
  // Lock-free read state: armed by the constructor when every shard's
  // index accepted EnableConcurrentReads (see class comment). The olc.*
  // counters are process-global and pre-resolved so the conflict paths
  // pay one relaxed add each.
  bool olc_enabled_ = false;
  obs::OlcMetrics olc_metrics_;
};

}  // namespace simdtree

#endif  // SIMDTREE_CORE_SHARDED_H_
