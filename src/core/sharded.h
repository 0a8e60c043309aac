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
// Multi-shard operations (size, ScanRange, FindBatch, Clear) see a
// per-shard snapshot, not a global one — a concurrent writer may land
// between two shard visits; callers needing a global quiescent view must
// stop writers first. Writers hold one shard lock at a time. size,
// ScanRange and Clear lock one shard at a time in ascending order; a
// locked FindBatch holds the shared locks of the shards it needs, taken
// in ascending order. Shared locks taken in one global order, while no
// writer waits holding a lock, cannot deadlock.
//
// ScanRange visits the shards its range intersects in key order, so the
// callback observes keys in globally ascending order. FindBatch is one
// read of the whole batch: one ShardOf pass gives each key its shard; a
// shard whose share clears UseGroupedDescent runs its grouped FindBatch,
// and every other key joins ONE group-pipelined call over all shards'
// trees (btree/batch_descent.h), answering straight into `out` (the
// tries, without that engine, run each share through their own
// FindBatch). Its buffers are per-thread scratch: a warm FindBatch
// allocates nothing.
//
// Lock-free reads (optimistic lock coupling): when the wrapped index
// exposes the optimistic read paths (the B+-trees with trivially
// copyable payloads, see generic_btree.h), the
// constructor arms them and Find / Contains / FindBatch / ScanRange
// descend WITHOUT touching the shard lock. Every read climbs one ladder
// (ReadLadder): pin a reclamation epoch (core/olc.h), try the
// version-validated read, restart on writer conflict at most
// olc::kMaxReadRetries times, then take the locked rung — at once when
// the epoch registry is exhausted. A FindBatch climbs it once per call.
// Writers still take the shard's exclusive lock but no longer stall
// readers, and readers no longer starve writers through glibc's
// reader-preferring rwlock. SIMDTREE_FORCE_SHARD_LOCKS=1 restores the
// pure locked behavior process-wide; the olc.* counters (obs/metrics.h)
// count conflicts and fallbacks.
//
// Tracing: a sampled read (obs/trace.h) climbs the same ladder and runs
// the same engines, observed by a TraceObserver (core/descent_observer.h)
// instead of the NullObserver: its DescentTrace carries the shard, the
// level spans of the attempt that answered (a batch: of the unit holding
// keys[0] — its shard's own call or its pipelined group — from lock-free
// round 0 or else the locked engines), and a lock wait only when the
// locked rung ran.

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

  // Batched point lookup: out[i] = value of keys[i] or nullopt (routes in
  // the class comment). Values are copied out before any shard is
  // released, so the results stay valid after concurrent writers proceed.
  void FindBatch(const KeyType* keys, size_t n,
                 std::optional<ValueType>* out) const {
    if (n == 0) return;
    BatchScratch& b = Scratch();
    const size_t num = shards_.size();
    b.shard_of.assign(n, 0);
    b.count.assign(num, 0);
    b.count[0] = static_cast<uint32_t>(n);
    if (num > 1) {
      // Request-span hook (obs/request_trace.h): the shard pass is the
      // shard_fanout span, the engines below the descent span.
      obs::CollectedSpanScope fanout_span(
          obs::RequestSpanKind::kShardFanout);
      b.count[0] = 0;
      for (size_t i = 0; i < n; ++i) {
        b.shard_of[i] = static_cast<uint32_t>(ShardOf(keys[i]));
        ++b.count[b.shard_of[i]];
      }
    }
    if (metrics_) {
      // Imbalance: the largest share relative to an even split (1.0 =
      // balanced, num_shards = everything on one shard).
      metrics_->batches->Add();
      metrics_->batch_keys->Add(n);
      metrics_->batch_size->Record(n);
      metrics_->shard_imbalance->Set(
          static_cast<double>(
              *std::max_element(b.count.begin(), b.count.end()) * num) /
          static_cast<double>(n));
    }
    // One trace per sampled batch, attributed to keys[0] and its shard.
    std::optional<obs::TraceScope> scope;
    obs::DescentTrace* t = nullptr;
    if (obs::TraceShouldSample()) [[unlikely]] {
      scope.emplace();
      t = scope->trace();
      t->shard = static_cast<uint16_t>(b.shard_of[0]);
      t->batched = 1;
    }
    obs::CollectedSpanScope descent_span(obs::RequestSpanKind::kDescent);
    b.failed.clear();
    ReadLadder(
        [&](auto round) -> size_t {
          if (round == 0) {
            RunBatch<false>(keys, nullptr, n, out, t);
          } else {
            RetryConflicted(keys, out);
          }
          return b.failed.size();
        },
        [&] { LockedBatch(keys, n, out, t); });
    if (scope) {
      TraceObserver(t).Stamp(keys[0], out[0].has_value());
      scope->Finish();
    }
    if (n > kMaxRetainedBatchKeys) b = BatchScratch{};
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
  // shards must arm (a failed slab-table allocation refuses) or none do
  // — mixed modes would complicate the read paths for no benefit.
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

  // The read ladder every read climbs. When lock-free reads are armed it
  // pins an epoch and runs attempt(round) for up to olc::kMaxReadRetries
  // rounds; attempt returns how many of its reads the round left
  // conflicted (0 ends the read), each counted in olc.read_retries. Reads
  // still conflicted after the last round run locked() once — the
  // writer-preferring fallback rung: a reader losing races repeatedly
  // queues once instead of spinning on tree state forever. locked is also
  // the whole read when the ladder is skipped: lock-free reads off or the
  // epoch registry exhausted (256+ reader threads). attempt is a generic
  // lambda, so its body is only instantiated for indexes with the
  // optimistic read paths.
  template <typename Attempt, typename Locked>
  void ReadLadder(Attempt attempt, Locked locked) const {
    if constexpr (HasOptimisticReads<Index, KeyType, ValueType>) {
      if (olc_enabled_) {
        olc::EpochGuard epoch;
        if (epoch.pinned()) {
          for (int round = 0; round < olc::kMaxReadRetries; ++round) {
            const size_t conflicted = attempt(round);
            if (conflicted == 0) return;
            olc_metrics_.read_retries->Add(conflicted);
          }
          olc_metrics_.fallback_acquisitions->Add();
        }
      }
    }
    locked();
  }

  // The ladder for a read of one shard: attempt(index, round) and
  // locked(index) under the shard's shared lock. A non-null `t` (a
  // sampled read) records the lock wait if the locked rung runs.
  template <typename Attempt, typename Locked>
  void ReadShard(const Shard& shard, obs::DescentTrace* t, Attempt attempt,
                 Locked locked) const {
    ReadLadder([&](auto round) { return attempt(shard.index, round); },
               [&] { LockedRead(shard, t, locked); });
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

  // FindBatch's buffers, one set per thread and Index type, reused by
  // every call so a warm FindBatch allocates nothing; a call over more
  // than kMaxRetainedBatchKeys keys frees them on return. Positions index
  // the caller's keys and out.
  struct BatchScratch {
    std::vector<uint32_t> shard_of;  // shard of each position
    std::vector<uint32_t> count;     // each shard's share of the run
    std::vector<uint32_t> start;     // own-call share's offset in skeys
    std::vector<KeyType> skeys;      // own-call shares, shard by shard
    std::vector<uint32_t> spos;      // position of skeys[k]
    std::vector<uint32_t> psel;      // pipelined positions, caller order
    std::vector<uint32_t> failed;    // conflicted positions
    std::vector<std::optional<ValueType>> vals;  // of one grouped call
    std::vector<const ValueType*> ptrs;          // Locked answers
  };
  static BatchScratch& Scratch() {
    thread_local BatchScratch scratch;
    return scratch;
  }

  // The cross-shard pipelined engine (GenericBPlusTree::FindBatchAcross).
  static constexpr bool kAcross =
      HasOptimisticReads<Index, KeyType, ValueType>;
  static constexpr uint32_t kPipelined = ~uint32_t{0};  // start[] mark

  // Whether shard s's `share` of a batch clears UseGroupedDescent. A
  // B+-tree's height comes from its writer-maintained hint, which the
  // lock-free paths must use and which the locked rung may; a share below
  // one level's worth is decided without reading it.
  bool Grouped(size_t s, size_t share) const {
    if (share < static_cast<size_t>(kGroupedMinBatchPerLevel)) return false;
    const Index& index = shards_[s]->index;
    return UseGroupedDescent(
        share, kAcross ? OptimisticLevels(index) : BatchLevels(index));
  }

  // Runs the keys at positions sel[0..m) (0..m-1 when sel is null; the
  // scratch's count holds their shards' shares) through the engines:
  // lock-free, appending conflicted positions to scratch.failed, or
  // (kLocked) under the caller's shared locks. A non-null `t` traces the
  // unit holding position 0: its shard's own call or its pipelined group.
  template <bool kLocked>
  void RunBatch(const KeyType* keys, const uint32_t* sel, size_t m,
                std::optional<ValueType>* out, obs::DescentTrace* t) const {
    BatchScratch& b = Scratch();
    const size_t num = shards_.size();
    b.start.resize(num);
    uint32_t own = 0;
    for (size_t s = 0; s < num; ++s) {
      const uint32_t c = b.count[s];
      const bool by_shard = c > 0 && (!kAcross || Grouped(s, c));
      b.start[s] = by_shard ? own : kPipelined;
      own += by_shard ? c : 0;
    }
    b.skeys.resize(own);
    b.spos.resize(own);
    b.psel.clear();
    for (size_t k = 0; k < m; ++k) {
      const uint32_t j = sel != nullptr ? sel[k] : static_cast<uint32_t>(k);
      uint32_t& at = b.start[b.shard_of[j]];
      if (at == kPipelined) {
        b.psel.push_back(j);
      } else {
        b.skeys[at] = keys[j];
        b.spos[at++] = j;  // start[s] ends up ending shard s's share
      }
    }
    NullObserver none;
    const bool trace_own =
        t != nullptr && b.start[b.shard_of[0]] != kPipelined;
    const size_t lead = t != nullptr && !trace_own
                            ? LeadingBatchGroup(b.psel.size(), kMaxBatchGroup)
                            : 0;
    if (lead > 0) {
      TraceObserver traced(t, lead);
      Pipelined<kLocked>(keys, 0, lead, out, traced);
    }
    Pipelined<kLocked>(keys, lead, b.psel.size(), out, none);
    for (size_t s = 0; s < num; ++s) {
      if (b.start[s] == kPipelined) continue;
      if (trace_own && s == b.shard_of[0]) [[unlikely]] {
        TraceObserver traced(t, b.count[s]);
        ByShard<kLocked>(s, out, traced);
      } else {
        ByShard<kLocked>(s, out, none);
      }
    }
  }

  // The cross-shard pipelined call over psel[from, to), answering into
  // out; under Locked through the stored values' addresses, copied while
  // the locks are held.
  template <bool kLocked, typename Obs>
  void Pipelined(const KeyType* keys, size_t from, size_t to,
                 std::optional<ValueType>* out, Obs& obs) const {
    if constexpr (kAcross) {
      BatchScratch& b = Scratch();
      const auto tree_of = [this, &b](uint32_t j) {
        return &static_cast<const Index&>(shards_[b.shard_of[j]]->index);
      };
      const uint32_t* sel = b.psel.data() + from;
      if constexpr (kLocked) {
        Index::FindBatchAcross(tree_of, keys, sel, to - from, b.ptrs.data(),
                               nullptr, obs);
        for (size_t k = from; k < to; ++k) {
          const uint32_t j = b.psel[k];
          out[j] = b.ptrs[j] ? std::optional<ValueType>(*b.ptrs[j])
                             : std::nullopt;
        }
      } else {
        Index::FindBatchAcross(tree_of, keys, sel, to - from, out, &b.failed,
                               obs);
      }
    }
  }

  // Shard s's own call over its gathered share: the grouped engine (or,
  // without the cross-shard engine and below the grouped bound, the
  // shard's pipelined FindBatch), answers scattered to their positions.
  template <bool kLocked, typename Obs>
  void ByShard(size_t s, std::optional<ValueType>* out, Obs& obs) const {
    BatchScratch& b = Scratch();
    const Index& index = shards_[s]->index;
    const size_t m = b.count[s];
    const KeyType* sub = b.skeys.data() + (b.start[s] - m);
    const uint32_t* pos = b.spos.data() + (b.start[s] - m);
    if constexpr (kLocked) {
      const ValueType** ptrs = b.ptrs.data();
      bool grouped = false;
      if constexpr (HasGroupedFindBatch<Index, KeyType, ValueType>) {
        grouped = Grouped(s, m);
        if (grouped) index.FindBatchGrouped(sub, m, ptrs, obs);
      }
      if (!grouped) index.FindBatch(sub, m, ptrs, kDefaultBatchGroup, obs);
      for (size_t k = 0; k < m; ++k) {
        out[pos[k]] = ptrs[k] ? std::optional<ValueType>(*ptrs[k])
                              : std::nullopt;
      }
    } else {
      b.vals.resize(m);
      const size_t first = b.failed.size();
      index.FindBatchGroupedOptimistic(sub, m, b.vals.data(), &b.failed, obs);
      for (size_t k = 0; k < m; ++k) out[pos[k]] = std::move(b.vals[k]);
      for (size_t f = first; f < b.failed.size(); ++f) {
        b.failed[f] = pos[b.failed[f]];
      }
    }
  }

  // A later lock-free round: each conflicted position retried alone.
  void RetryConflicted(const KeyType* keys,
                       std::optional<ValueType>* out) const {
    BatchScratch& b = Scratch();
    size_t kept = 0;
    for (const uint32_t j : b.failed) {
      if (shards_[b.shard_of[j]]->index.FindOptimistic(keys[j], &out[j]) !=
          olc::ReadResult::kOk) {
        b.failed[kept++] = j;
      }
    }
    b.failed.resize(kept);
  }

  // The locked rung of a FindBatch over the conflicted positions, or all
  // n when no lock-free round ran: the shared locks of the shards they
  // touch, taken in ascending shard order and held together while the
  // engines run under Locked and their values are copied out. A non-null
  // `t` records the lock wait, and traces the engines over a whole batch.
  void LockedBatch(const KeyType* keys, size_t n,
                   std::optional<ValueType>* out,
                   obs::DescentTrace* t) const {
    BatchScratch& b = Scratch();
    // The ladder only falls back with keys left conflicted.
    const bool whole = b.failed.empty();
    if (!whole) {
      std::fill(b.count.begin(), b.count.end(), 0u);
      for (const uint32_t j : b.failed) ++b.count[b.shard_of[j]];
    }
    b.ptrs.resize(n);
    const uint64_t lock_start = t != nullptr ? CycleTimer::Now() : 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (b.count[s] != 0) shards_[s]->mutex.lock_shared();
    }
    struct Release {
      const ShardedIndex* self;
      const std::vector<uint32_t>& count;
      ~Release() {
        for (size_t s = 0; s < count.size(); ++s) {
          if (count[s] != 0) self->shards_[s]->mutex.unlock_shared();
        }
      }
    } release{this, b.count};
    if (t != nullptr) {
      t->lock_wait_ns = static_cast<uint64_t>(
          CycleTimer::ToNanoseconds(CycleTimer::Now() - lock_start));
    }
    obs::ScopedDurationNs hold(metrics_ ? metrics_->read_lock_ns : nullptr);
    RunBatch<true>(keys, whole ? nullptr : b.failed.data(),
                   whole ? n : b.failed.size(), out, whole ? t : nullptr);
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
