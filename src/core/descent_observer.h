// Observer policies for the descent engines.
//
// Every lookup engine of the trees (btree/batch_descent.h) and tries
// (segtrie/) is written once and templated on an observer, the way the
// trees are templated on their key store. The engine calls the hooks at
// fixed points of its walk:
//
//   NullObserver      every hook is empty: no timestamp read, no pointer
//                     test. The production instantiation.
//   CountingObserver  the logical cost into SearchCounters: nodes_visited,
//                     nodes_loaded (grouped engines: each frontier node
//                     once), lines_prefetched (the grouped B+-Tree
//                     engine's prefetch sites) and, in the tries, whose
//                     paper claims are comparison counts, the in-node
//                     comparisons.
//   TraceObserver     one obs::LevelSpan per level into a DescentTrace,
//                     from what the engine already read plus one
//                     timestamp pair per level.
//
// Hooks: Begin() starts a single-key attempt (a trace drops the spans of
// an earlier attempt, keeping the one that answered); BeginGroup() starts
// a pipelined group (its levels add onto the earlier groups' spans);
// BeginLevel() / EndLevel(describe) bracket a level, where describe()
// returns its LevelDesc and runs only in TraceObserver; Visit(n) counts n
// logical node visits, Load() one node loaded for a whole run,
// Prefetched(lines) lines prefetched at one site, where lines() runs
// only in CountingObserver; cmps() is
// the comparison sink of the in-node search, which engines hand it, as
// CmpsIf, only for observers with kCounts or kSpans set.

#ifndef SIMDTREE_CORE_DESCENT_OBSERVER_H_
#define SIMDTREE_CORE_DESCENT_OBSERVER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "obs/trace.h"
#include "util/counters.h"
#include "util/cycle_timer.h"

namespace simdtree {

// One level as an engine describes it to a span-recording observer:
// node_ref is the node's reference for a single key, the number of nodes
// the level loaded for a batch; backend names the structure descended.
struct LevelDesc {
  uint32_t node_ref;
  uint8_t layout;
  uint8_t slab;
  obs::TraceBackend backend;
};

struct NullObserver {
  static constexpr bool kCounts = false;
  static constexpr bool kSpans = false;
  void Begin() {}
  void BeginGroup() {}
  void BeginLevel() {}
  void Visit(uint64_t) {}
  void Load() {}
  template <typename Lines>
  void Prefetched(Lines&&) {}
  SearchCounters* cmps() { return nullptr; }
  template <typename Describe>
  void EndLevel(Describe&&) {}
  obs::DescentTrace* trace() const { return nullptr; }
};

class CountingObserver : public NullObserver {
 public:
  static constexpr bool kCounts = true;
  explicit CountingObserver(SearchCounters* counters) : c_(counters) {}
  void Visit(uint64_t n) { c_->nodes_visited += n; }
  void Load() { ++c_->nodes_loaded; }
  template <typename Lines>
  void Prefetched(Lines&& lines) {
    c_->lines_prefetched += lines();
  }
  SearchCounters* cmps() { return c_; }

 private:
  SearchCounters* c_;
};

// Batch traces (group_size > 0) hold one span per level: node_ref is the
// nodes loaded at that level, cycles and comparisons are summed over the
// pipelined groups, group_size is the traced unit's size. A single-key trace
// (group_size 0) holds one span per node searched.
class TraceObserver : public NullObserver {
 public:
  static constexpr bool kSpans = true;
  explicit TraceObserver(obs::DescentTrace* t, size_t group_size = 0)
      : t_(t),
        group_size_(group_size > 0xffff ? uint16_t{0xffff}
                                        : static_cast<uint16_t>(group_size)) {}

  void Begin() {
    t_->levels = 0;
    level_ = 0;
  }
  void BeginGroup() { level_ = 0; }
  void BeginLevel() {
    cmps_.Reset();
    start_ = CycleTimer::Now();
  }
  SearchCounters* cmps() { return &cmps_; }
  template <typename Describe>
  void EndLevel(Describe&& describe) {
    const uint64_t cycles = CycleTimer::Now() - start_;
    const LevelDesc d = describe();
    t_->backend = static_cast<uint8_t>(d.backend);
    const int l = level_++;
    if (l >= t_->levels) {
      obs::AppendTraceLevel(t_, d.node_ref, d.layout, d.slab, cmps_, cycles,
                            group_size_);
      return;
    }
    // A later pipelined group: add onto the level's span, saturating.
    obs::LevelSpan& s = t_->level[l];
    s.node_ref = static_cast<uint32_t>(
        std::min<uint64_t>(uint64_t{s.node_ref} + d.node_ref, 0xffffffffu));
    s.cycles = static_cast<uint32_t>(
        std::min<uint64_t>(uint64_t{s.cycles} + cycles, 0xffffffffu));
    s.simd_cmps = static_cast<uint16_t>(
        std::min<uint64_t>(s.simd_cmps + cmps_.simd_comparisons, 0xffff));
    s.scalar_cmps = static_cast<uint16_t>(
        std::min<uint64_t>(s.scalar_cmps + cmps_.scalar_comparisons, 0xffff));
  }
  obs::DescentTrace* trace() const { return t_; }

  // Stamps the traced key (its unsigned image) and whether `result` found
  // it, and passes `result` through.
  template <typename K, typename Result>
  Result Stamp(K key, Result result) const {
    if constexpr (std::is_signed_v<K>) {
      t_->key =
          static_cast<uint64_t>(static_cast<std::make_unsigned_t<K>>(key));
    } else {
      t_->key = static_cast<uint64_t>(key);
    }
    t_->found = result ? 1 : 0;
    return result;
  }

 private:
  obs::DescentTrace* t_;
  uint16_t group_size_;
  int level_ = 0;
  uint64_t start_ = 0;
  SearchCounters cmps_;
};

// The `counters` argument an engine gives an in-node search
// (util/counters.h): the observer's cmps() when kCount holds, otherwise
// NoCounters, which instantiates the search without counting.
template <bool kCount, typename Obs>
auto CmpsIf(Obs& obs) {
  if constexpr (kCount) {
    return obs.cmps();
  } else {
    return NoCounters{};
  }
}

// Runs fn(observer) with a NullObserver when `counters` is null, else
// with a CountingObserver into it — the entry of the `SearchCounters*`
// lookup APIs.
template <typename Fn>
decltype(auto) WithCounters(SearchCounters* counters, Fn&& fn) {
  if (counters == nullptr) {
    NullObserver none;
    return fn(none);
  }
  CountingObserver counting(counters);
  return fn(counting);
}

}  // namespace simdtree

#endif  // SIMDTREE_CORE_DESCENT_OBSERVER_H_
