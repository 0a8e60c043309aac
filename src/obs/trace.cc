#include "obs/trace.h"

#include <cstdint>

namespace simdtree::obs {

const char* TraceBackendName(uint8_t backend) {
  switch (static_cast<TraceBackend>(backend)) {
    case TraceBackend::kBPlusTree: return "bplustree";
    case TraceBackend::kSegTree: return "segtree";
    case TraceBackend::kSegTrie: return "segtrie";
    case TraceBackend::kOptimizedSegTrie: return "optimized_segtrie";
    case TraceBackend::kCompressedSegTrie: return "compressed_segtrie";
    case TraceBackend::kKaryArray: return "kary_array";
    case TraceBackend::kUnknown: break;
  }
  return "unknown";
}

const char* TraceLayoutName(uint8_t layout) {
  switch (layout) {
    case kTraceLayoutPlain: return "plain";
    case kTraceLayoutBreadthFirst: return "breadth_first";
    case kTraceLayoutDepthFirst: return "depth_first";
    case kTraceLayoutTrieNode: return "trie_node";
  }
  return "unknown";
}

namespace trace_internal {

namespace {

// Per-thread countdown to the next sampled query. Deterministic: with
// rate N, exactly every N-th query on each thread is traced.
thread_local uint32_t t_sample_countdown = 0;

}  // namespace

std::atomic<uint32_t> g_sample_rate{static_cast<uint32_t>(
    EnvTraceSetting("SIMDTREE_TRACE_SAMPLE", UINT32_MAX))};

bool SampleSlowPath(uint32_t rate) {
  if (++t_sample_countdown >= rate) {
    t_sample_countdown = 0;
    return true;
  }
  return false;
}

}  // namespace trace_internal

void EnableTracing(uint32_t rate) {
  trace_internal::g_sample_rate.store(rate, std::memory_order_relaxed);
}

uint32_t TraceSampleRate() {
  return trace_internal::g_sample_rate.load(std::memory_order_relaxed);
}

Tracer& Tracer::Global() {
  // Leaked like MetricsRegistry::Global(): threads recording during
  // process teardown must never observe a destroyed tracer.
  static Tracer* instance = [] {
    auto* t = new Tracer();
    t->SetSlowThresholdNs(
        EnvTraceSetting("SIMDTREE_TRACE_SLOW_NS", UINT64_MAX));
    return t;
  }();
  return *instance;
}

void Tracer::Reset() {
  FlightRecorder::Reset();
  trace_internal::t_sample_countdown = 0;
}

}  // namespace simdtree::obs
