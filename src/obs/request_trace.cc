#include "obs/request_trace.h"

#include <cstdint>

namespace simdtree::obs {

const char* RequestSpanKindName(uint8_t kind) {
  switch (static_cast<RequestSpanKind>(kind)) {
    case RequestSpanKind::kSocketRead: return "socket_read";
    case RequestSpanKind::kCoalesceWait: return "coalesce_wait";
    case RequestSpanKind::kShardFanout: return "shard_fanout";
    case RequestSpanKind::kDescent: return "descent";
    case RequestSpanKind::kWriteFlush: return "write_flush";
  }
  return "unknown";
}

RequestTracer& RequestTracer::Global() {
  // Leaked like Tracer::Global(): worker threads finishing requests at
  // process teardown must never observe a destroyed recorder.
  static RequestTracer* instance = [] {
    auto* t = new RequestTracer();
    t->Configure(static_cast<uint32_t>(EnvTraceSetting(
                     "SIMDTREE_REQUEST_SAMPLE", UINT32_MAX)),
                 EnvTraceSetting("SIMDTREE_REQUEST_SLOW_NS", UINT64_MAX));
    return t;
  }();
  return *instance;
}

bool RequestTracer::Finish(RequestTrace* t) {
  // The sequence number doubles as the head-sampling clock: with rate
  // N, exactly every N-th completed request process-wide is retained —
  // deterministic, so tests can assert exact counts.
  const uint64_t seq = completed_.fetch_add(1, std::memory_order_relaxed);
  const uint32_t rate = head_rate();
  const bool head = rate != 0 && seq % rate == 0;
  if (!head && !IsSlow(t->latency_ns)) return false;
  Record(t);
  return true;
}

}  // namespace simdtree::obs
