// End-to-end KV request spans with tail-based sampling.
//
// The descent-trace flight recorder (obs/trace.h) answers "where inside
// one tree descent did the cycles go". This layer answers the question
// one level up: for a slow p999 wire request, was the time spent in
// socket backpressure, waiting behind earlier frames in the pipeline,
// shard fan-out, the SIMD descent itself, or flushing the reply? Each
// request gets a trace id at frame parse (net/server.cc) and accumulates
// up to kMaxRequestSpans spans as it moves through the serving path:
//
//   socket_read    recv() drain that delivered the request's frame
//   coalesce_wait  queueing behind earlier frames of the same pipeline
//                  (writes are barriers, so reads can wait on a PUT)
//   shard_fanout   the ShardOf pass that gives each key of a batch its
//                  shard and each shard its share (ShardedIndex::
//                  FindBatch, multi-shard indexes)
//   descent        the batched descent over every shard (the cross-shard
//                  pipelined call and any grouped shards), or the whole
//                  index call for single-key ops
//   write_flush    send() loop that pushed the reply toward the socket
//
// Sampling is TAIL-BASED: spans are recorded for every request while
// the recorder is armed (a handful of timestamp reads — the cheap
// part), and the retention decision happens at request completion, when
// the end-to-end latency is known. Requests breaching the slow
// threshold are ALWAYS retained; the rest are head-sampled
// deterministically 1-in-N. Retained requests go to the flight recorder
// (obs/flight_recorder.h): the per-thread rings, and the slow log for
// the slow ones. Disarmed, the serving path pays two relaxed atomic
// loads per pipeline drain.
//
// Index-internal spans (shard_fanout, descent) are recorded through the
// SpanCollector the server arms in the thread's serving context
// (ServingScope) around each backend call: the wrapper (core/sharded.h)
// marks its sub-phases into it without knowing anything about the
// serving path. One coalesced batch serves many wire requests; each
// retained request carries a copy of the batch's fan-out/descent spans
// plus its batch_keys size, which is the honest attribution — those
// cycles were genuinely shared.
//
// /requestz (obs/stats_server.cc) renders both rings as JSON; retained
// trace ids also surface as OpenMetrics exemplars on the per-op latency
// histograms (obs/metrics.h ExemplarStore), so a scrape's p999 bucket
// links straight to an inspectable trace.

#ifndef SIMDTREE_OBS_REQUEST_TRACE_H_
#define SIMDTREE_OBS_REQUEST_TRACE_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "obs/flight_recorder.h"
#include "util/cycle_timer.h"

namespace simdtree::obs {

// Span kinds, in pipeline order. One byte in the trace schema.
enum class RequestSpanKind : uint8_t {
  kSocketRead = 0,
  kCoalesceWait = 1,
  kShardFanout = 2,
  kDescent = 3,
  kWriteFlush = 4,
};
inline constexpr int kNumRequestSpanKinds = 5;

const char* RequestSpanKindName(uint8_t kind);

// Enough for one of each kind plus headroom (a request whose pipeline
// drain splits across two recv gulps records two socket_read spans).
inline constexpr int kMaxRequestSpans = 8;

struct RequestSpan {
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint8_t kind = 0;  // RequestSpanKind image
  uint8_t reserved[7] = {};
};
static_assert(sizeof(RequestSpan) == 24);

// One wire request's life. Trivially copyable and fixed-size: the rings
// store it word-wise through atomics, and the record path allocates
// nothing.
struct RequestTrace {
  uint64_t trace_id = 0;    // process-unique, assigned at frame parse
  uint64_t start_ns = 0;    // recv-gulp start (end-to-end clock zero)
  uint64_t latency_ns = 0;  // gulp start -> reply flushed
  uint64_t service_ns = 0;  // execute-only latency — the value recorded
                            // into the per-op histogram, so an exemplar
                            // built from it lands in the right bucket
  uint32_t conn_id = 0;
  uint32_t request_id = 0;  // wire request id (per-connection sequence)
  uint32_t batch_keys = 0;  // keys in the coalesced FindBatch (reads)
  uint32_t thread_id = 0;   // recorder-assigned small id (ring index)
  uint8_t opcode = 0;       // net::Opcode image
  uint8_t status = 0;       // net::Status image
  uint8_t slow = 0;         // 1 if retained via the slow threshold
  uint8_t num_spans = 0;    // valid entries in spans[]
  uint8_t reserved[4] = {};
  RequestSpan spans[kMaxRequestSpans];
};
static_assert(std::is_trivially_copyable_v<RequestTrace>);
static_assert(sizeof(RequestTrace) % sizeof(uint64_t) == 0);

// Appends one span; silently drops past kMaxRequestSpans (the first
// spans of a pathological pipeline are the interesting ones).
inline void AppendRequestSpan(RequestTrace* t, RequestSpanKind kind,
                              uint64_t start_ns, uint64_t duration_ns) {
  if (t->num_spans >= kMaxRequestSpans) return;
  RequestSpan& s = t->spans[t->num_spans++];
  s.start_ns = start_ns;
  s.duration_ns = duration_ns;
  s.kind = static_cast<uint8_t>(kind);
}

// --- index-internal span collection ------------------------------------

// Scratch the server arms in the serving context around a backend
// call; the concurrency wrappers mark their sub-phases into it.
// Fixed-size: a FindBatch records at most fan-out + descent.
struct SpanCollector {
  RequestSpan spans[4];
  int count = 0;

  void Add(RequestSpanKind kind, uint64_t start_ns, uint64_t duration_ns) {
    if (count >= 4) return;
    spans[count].start_ns = start_ns;
    spans[count].duration_ns = duration_ns;
    spans[count].kind = static_cast<uint8_t>(kind);
    ++count;
  }
};

// RAII sub-phase marker for the wrappers. When no collector is armed
// (every non-serving caller) the constructor is one thread-local load
// and a predictable branch; no timestamps are read.
class CollectedSpanScope {
 public:
  explicit CollectedSpanScope(RequestSpanKind kind)
      : collector_(CurrentServingContext().collector), kind_(kind) {
    if (collector_ != nullptr) [[unlikely]] {
      start_cycles_ = CycleTimer::Now();
    }
  }

  CollectedSpanScope(const CollectedSpanScope&) = delete;
  CollectedSpanScope& operator=(const CollectedSpanScope&) = delete;

  ~CollectedSpanScope() { Finish(); }

  void Finish() {
    if (collector_ == nullptr) return;
    const uint64_t start_ns = static_cast<uint64_t>(
        CycleTimer::ToNanoseconds(start_cycles_));
    const uint64_t dur_ns = static_cast<uint64_t>(
        CycleTimer::ToNanoseconds(CycleTimer::Now() - start_cycles_));
    collector_->Add(kind_, start_ns, dur_ns);
    collector_ = nullptr;
  }

 private:
  SpanCollector* collector_;
  RequestSpanKind kind_;
  uint64_t start_cycles_ = 0;
};

// --- the recorder ------------------------------------------------------

// The request-trace recorder: decides at completion which requests the
// flight recorder keeps. The global instance is leaked, like Tracer's,
// for the same teardown-safety reason.
class RequestTracer : public FlightRecorder<RequestTrace> {
 public:
  static RequestTracer& Global();

  // Arms the recorder. head_rate: keep 1 in N completed requests
  // (0 = none); slow_threshold_ns: always keep requests at or above
  // this end-to-end latency (0 = none). Both zero disarms. Defaults
  // come from SIMDTREE_REQUEST_SAMPLE / SIMDTREE_REQUEST_SLOW_NS.
  void Configure(uint32_t head_rate, uint64_t slow_threshold_ns) {
    head_rate_.store(head_rate, std::memory_order_relaxed);
    SetSlowThresholdNs(slow_threshold_ns);
  }

  // The serving path's arm check, once per pipeline drain.
  bool enabled() const {
    return head_rate() != 0 || slow_threshold_ns() != 0;
  }
  uint32_t head_rate() const {
    return head_rate_.load(std::memory_order_relaxed);
  }

  // Hands over one completed request and decides retention: always
  // on a slow-threshold breach, else deterministic 1-in-head_rate.
  // Returns true iff the trace was recorded (its thread id and slow bit
  // stamped) — the caller uses that to publish the trace id as a
  // histogram exemplar, so every rendered exemplar is inspectable in
  // /requestz.
  bool Finish(RequestTrace* t);

  // Process-unique nonzero trace ids.
  uint64_t NextTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  // The recorder's counts, under the names /requestz prints.
  uint64_t retained() const { return recorded(); }
  uint64_t slow_retained() const { return slow_recorded(); }

  // Test isolation only: also clears the completed count. Requires
  // recording threads to be quiescent.
  void Reset() {
    FlightRecorder::Reset();
    completed_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint32_t> head_rate_{0};
  std::atomic<uint64_t> next_trace_id_{0};
  std::atomic<uint64_t> completed_{0};
};

}  // namespace simdtree::obs

#endif  // SIMDTREE_OBS_REQUEST_TRACE_H_
