// Descent traces: sampled per-descent traces in the flight recorder
// (obs/flight_recorder.h).
//
// The metrics registry (obs/metrics.h) answers "how fast are we on
// average"; this file answers "which queries are slow and where inside
// the descent they spend their time". A sampled lookup records one
// DescentTrace: the backend, the shard, and one LevelSpan per tree level
// touched — the node's compressed reference, the key-store layout it was
// searched with, the SIMD/scalar comparison counts of that level's
// in-node search, the arena slab the node block lives in, and the cycles
// the level took. The spans come from the production descent engine run
// under a TraceObserver (core/descent_observer.h), not a traced copy.
// The paper's tuning story (layout x bitmask-eval x
// node size, Sections 3-5) is machine- and workload-dependent; the
// flight recorder is how a production deployment sees those per-level
// costs on live traffic instead of in offline benches.
//
// Sampling: 1-in-N, enabled by EnableTracing(rate) or the
// SIMDTREE_TRACE_SAMPLE environment variable (read once at startup).
// The hot-path check, TraceShouldSample(), compiles to one relaxed
// atomic load and one predictable branch when tracing is off; the
// per-thread countdown runs only once sampling is enabled. Sampling is
// deterministic per thread (every rate-th query), so tests can assert
// exact trace counts.
//
// Every sampled descent is recorded: into the calling thread's ring,
// and into the slow log as well when its total latency reaches
// SetSlowThresholdNs (or SIMDTREE_TRACE_SLOW_NS).

#ifndef SIMDTREE_OBS_TRACE_H_
#define SIMDTREE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "obs/flight_recorder.h"
#include "util/counters.h"
#include "util/cycle_timer.h"

namespace simdtree::obs {

// Index structure a trace descended. One byte in the trace schema.
enum class TraceBackend : uint8_t {
  kUnknown = 0,
  kBPlusTree = 1,         // GenericBPlusTree + PlainKeyStore
  kSegTree = 2,           // GenericBPlusTree + SegKeyStore
  kSegTrie = 3,
  kOptimizedSegTrie = 4,  // lazy-expansion trie
  kCompressedSegTrie = 5,
  kKaryArray = 6,
};

const char* TraceBackendName(uint8_t backend);

// Key-store layout searched at one level.
inline constexpr uint8_t kTraceLayoutPlain = 0;         // sorted array
inline constexpr uint8_t kTraceLayoutBreadthFirst = 1;  // linearized k-ary BF
inline constexpr uint8_t kTraceLayoutDepthFirst = 2;    // linearized k-ary DF
inline constexpr uint8_t kTraceLayoutTrieNode = 3;      // compact trie node

const char* TraceLayoutName(uint8_t layout);

inline constexpr uint8_t kTraceSlabUnknown = 0xff;
inline constexpr uint16_t kTraceNoShard = 0xffff;
inline constexpr uint32_t kTraceNoNodeRef = 0xffffffffu;

// One level of a descent. 16 bytes; a full trace stays cache-friendly.
// A single-key trace holds one span per node searched. A batch trace
// (DescentTrace::batched) holds one span per tree level of the unit it
// traced (a grouped call, or one pipelined group), summed over the
// engine's pipelined groups (saturating).
struct LevelSpan {
  uint32_t node_ref = kTraceNoNodeRef;  // single key: compressed node ref
                                        // (arena slot); batch: nodes
                                        // loaded at this level
  uint32_t cycles = 0;                  // TSC cycles spent at this level
  uint16_t simd_cmps = 0;               // SIMD compare steps at this level
  uint16_t scalar_cmps = 0;             // scalar compare steps
  uint8_t layout = kTraceLayoutPlain;   // kTraceLayout* of the key store
  uint8_t arena_slab = kTraceSlabUnknown;  // slab index of the node block
  uint16_t group_size = 0;  // batch: the traced unit's size; 0: one key
};
static_assert(sizeof(LevelSpan) == 16);

// Deep enough for every backend: a 16M-key B+-Tree is 4-5 levels, a
// 64-bit 8-bit-segment trie is 8, a 4-bit-segment trie is 16.
inline constexpr int kMaxTraceLevels = 20;

// Connection/request attribution absent (no serving context).
inline constexpr uint32_t kTraceNoConn = 0;

// One sampled descent. Trivially copyable (the ring stores it word-wise
// through atomics) and fixed-size (no allocation on the record path).
struct DescentTrace {
  uint64_t key = 0;           // probed key, cast to its unsigned image
  uint64_t start_ns = 0;      // TSC-derived monotonic start timestamp
  uint64_t latency_ns = 0;    // full operation latency
  uint64_t lock_wait_ns = 0;  // wrapper lock acquisition wait (0 if none)
  uint32_t thread_id = 0;     // tracer-assigned small id (ring index)
  uint32_t conn_id = kTraceNoConn;  // serving connection (net/server.cc)
  uint32_t request_id = 0;    // wire request id of the attributed op
  uint16_t shard = kTraceNoShard;  // owning shard (sharded wrapper only)
  uint8_t backend = static_cast<uint8_t>(TraceBackend::kUnknown);
  uint8_t levels = 0;         // valid entries in level[]
  uint8_t found = 0;          // 1 if the key was present
  uint8_t slow = 0;           // 1 if promoted to the slow-query log
  uint8_t batched = 0;        // 1 if recorded inside a batch descent
  uint8_t reserved[5] = {};
  LevelSpan level[kMaxTraceLevels];
};
static_assert(std::is_trivially_copyable_v<DescentTrace>);
static_assert(sizeof(DescentTrace) % sizeof(uint64_t) == 0);

// Appends one level span; silently drops levels beyond kMaxTraceLevels
// (deeper structures keep the first kMaxTraceLevels levels). The
// descent engines record through TraceObserver (core/descent_observer.h).
inline void AppendTraceLevel(DescentTrace* t, uint32_t node_ref,
                             uint8_t layout, uint8_t arena_slab,
                             const SearchCounters& cmps, uint64_t cycles,
                             uint16_t group_size = 0) {
  if (t->levels >= kMaxTraceLevels) return;
  LevelSpan& s = t->level[t->levels++];
  s.node_ref = node_ref;
  s.cycles = cycles > 0xffffffffu ? 0xffffffffu
                                  : static_cast<uint32_t>(cycles);
  s.simd_cmps = static_cast<uint16_t>(
      cmps.simd_comparisons > 0xffff ? 0xffff : cmps.simd_comparisons);
  s.scalar_cmps = static_cast<uint16_t>(
      cmps.scalar_comparisons > 0xffff ? 0xffff : cmps.scalar_comparisons);
  s.layout = layout;
  s.arena_slab = arena_slab;
  s.group_size = group_size;
}

namespace trace_internal {

// Global sample rate: 0 = tracing off. Initialized from
// SIMDTREE_TRACE_SAMPLE at load time; EnableTracing overwrites it.
extern std::atomic<uint32_t> g_sample_rate;

// Out-of-line per-thread countdown; called only when tracing is on.
bool SampleSlowPath(uint32_t rate);

}  // namespace trace_internal

// The hot-path sampling decision. With tracing off this is one relaxed
// load of a process-wide atomic plus one predictable (never-taken)
// branch — cheap enough to sit on every lookup.
inline bool TraceShouldSample() {
  const uint32_t rate =
      trace_internal::g_sample_rate.load(std::memory_order_relaxed);
  if (rate == 0) [[likely]] {
    return false;
  }
  return trace_internal::SampleSlowPath(rate);
}

// Enables 1-in-`rate` sampling (rate 1 traces everything; 0 disables).
void EnableTracing(uint32_t rate);
uint32_t TraceSampleRate();

// The descent-trace recorder. Like MetricsRegistry, the global instance
// is never destroyed, so threads recording at exit cannot touch a dead
// object.
class Tracer : public FlightRecorder<DescentTrace> {
 public:
  static Tracer& Global();

  // Test isolation only: also resets the calling thread's sampling
  // countdown. Never call with recording threads live.
  void Reset();
};

// Scope helper for the wrapper hook: captures start time, fills latency
// on Finish. Kept header-only so the traced path inlines away from the
// untraced one.
class TraceScope {
 public:
  TraceScope() : start_cycles_(CycleTimer::Now()) {
    trace_.start_ns = static_cast<uint64_t>(
        CycleTimer::ToNanoseconds(start_cycles_));
    const ServingContext& serving = CurrentServingContext();
    trace_.conn_id = serving.conn_id;
    trace_.request_id = serving.request_id;
  }

  DescentTrace* trace() { return &trace_; }

  // Stamps latency and hands the trace to the global tracer.
  void Finish() {
    trace_.latency_ns = static_cast<uint64_t>(
        CycleTimer::ToNanoseconds(CycleTimer::Now() - start_cycles_));
    Tracer::Global().Record(&trace_);
  }

 private:
  DescentTrace trace_;
  uint64_t start_cycles_;
};

}  // namespace simdtree::obs

#endif  // SIMDTREE_OBS_TRACE_H_
