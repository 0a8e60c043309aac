// The flight recorder behind both trace kinds: descent traces
// (obs/trace.h) and request traces (obs/request_trace.h).
//
// Recording: each thread writes its own ring of seqlock-protected
// slots. The owning thread stores a payload word-wise through relaxed
// atomics inside an odd/even sequence bracket; writers are wait-free and
// never share a ring. Readers (Snapshot, the /tracez and /requestz
// endpoints) take a racy snapshot and skip slots that are mid-write or
// that the writer lapped, by rechecking the sequence. All cross-thread
// accesses go through atomics, so the scheme is clean under
// ThreadSanitizer.
//
// Slow log: a trace whose latency reaches the slow threshold is also
// copied into a bounded drop-oldest log that survives ring wraparound,
// so rare outliers stay inspectable after the rings have cycled past
// them. That copy takes a mutex; slow traces are rare by definition.
//
// A payload is trivially copyable, a multiple of 8 bytes long, and has
// the fields `start_ns` and `latency_ns` (uint64_t), `thread_id`
// (uint32_t) and `slow` (uint8_t). Record stamps the last two.
//
// The same header holds the serving context (which wire request the
// calling thread is executing) and the parser of the trace settings,
// since both trace kinds use them.

#ifndef SIMDTREE_OBS_FLIGHT_RECORDER_H_
#define SIMDTREE_OBS_FLIGHT_RECORDER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

namespace simdtree::obs {

template <typename Trace>
class FlightRecorder {
  static_assert(std::is_trivially_copyable_v<Trace>);
  static_assert(sizeof(Trace) % sizeof(uint64_t) == 0);

 public:
  static constexpr size_t kRingCapacity = 256;  // per recording thread
  static constexpr size_t kSlowCapacity = 128;  // slow-log retention

  // One thread's ring of seqlock slots.
  class Ring {
   public:
    Ring() = default;
    Ring(const Ring&) = delete;
    Ring& operator=(const Ring&) = delete;

    // Owner thread only.
    void Write(const Trace& t) {
      const uint64_t h = head_.load(std::memory_order_relaxed);
      Slot& s = slots_[h % kRingCapacity];
      s.seq.fetch_add(1, std::memory_order_acq_rel);  // odd: write in flight
      uint64_t words[kWords];
      std::memcpy(words, &t, sizeof(t));
      for (size_t w = 0; w < kWords; ++w) {
        s.words[w].store(words[w], std::memory_order_relaxed);
      }
      s.seq.fetch_add(1, std::memory_order_release);  // even: committed
      head_.store(h + 1, std::memory_order_release);
    }

    // Any thread. False for a never-written or mid-write slot, or when
    // the writer lapped the read.
    bool TryRead(size_t slot, Trace* out) const {
      const Slot& s = slots_[slot % kRingCapacity];
      const uint32_t before = s.seq.load(std::memory_order_acquire);
      if (before == 0 || (before & 1) != 0) return false;
      uint64_t words[kWords];
      for (size_t w = 0; w < kWords; ++w) {
        words[w] = s.words[w].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != before) return false;
      std::memcpy(out, words, sizeof(*out));
      return true;
    }

    // Payloads ever written (>= kRingCapacity once wrapped).
    uint64_t head() const { return head_.load(std::memory_order_acquire); }

    // Requires the owning thread to be quiescent.
    void Reset() {
      for (Slot& s : slots_) s.seq.store(0, std::memory_order_relaxed);
      head_.store(0, std::memory_order_relaxed);
    }

   private:
    static constexpr size_t kWords = sizeof(Trace) / sizeof(uint64_t);
    struct Slot {
      std::atomic<uint32_t> seq{0};
      std::atomic<uint64_t> words[kWords];
    };
    Slot slots_[kRingCapacity];
    std::atomic<uint64_t> head_{0};
  };

  FlightRecorder()
      : instance_id_([] {
          static std::atomic<uint64_t> counter{0};
          return counter.fetch_add(1, std::memory_order_relaxed) + 1;
        }()) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Traces at or above this latency go to the slow log as well (0: none).
  void SetSlowThresholdNs(uint64_t ns) {
    slow_threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }
  bool IsSlow(uint64_t latency_ns) const {
    const uint64_t threshold = slow_threshold_ns();
    return threshold != 0 && latency_ns >= threshold;
  }

  // Stamps t's thread id and slow flag, writes it to the calling
  // thread's ring (wait-free), and copies it into the slow log when slow.
  void Record(Trace* t) {
    const ThreadSlot slot = SlotForThisThread();
    t->thread_id = slot.id;
    t->slow = IsSlow(t->latency_ns) ? 1 : 0;
    slot.ring->Write(*t);
    recorded_.fetch_add(1, std::memory_order_relaxed);
    if (!t->slow) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (slow_.size() < kSlowCapacity) {
      slow_.push_back(*t);
    } else {
      slow_[slow_next_ % kSlowCapacity] = *t;  // drop the oldest
    }
    ++slow_next_;
    slow_recorded_.fetch_add(1, std::memory_order_relaxed);
  }

  // Racy merged snapshot of every thread's ring, oldest start first.
  // `max_traces` 0 = no cap; otherwise the newest `max_traces`.
  std::vector<Trace> Snapshot(size_t max_traces = 0) const {
    std::vector<const Ring*> rings;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      rings.reserve(rings_.size());
      for (const auto& r : rings_) rings.push_back(r.get());
    }
    std::vector<Trace> out;
    for (const Ring* ring : rings) {
      const uint64_t head = ring->head();
      const uint64_t n = std::min<uint64_t>(head, kRingCapacity);
      for (uint64_t i = head - n; i < head; ++i) {
        Trace t;
        if (ring->TryRead(static_cast<size_t>(i % kRingCapacity), &t)) {
          out.push_back(t);
        }
      }
    }
    std::sort(out.begin(), out.end(), [](const Trace& a, const Trace& b) {
      return a.start_ns < b.start_ns;
    });
    if (max_traces != 0 && out.size() > max_traces) {
      out.erase(out.begin(),
                out.end() - static_cast<ptrdiff_t>(max_traces));
    }
    return out;
  }

  // The slow log, oldest first.
  std::vector<Trace> SlowSnapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Trace> out;
    out.reserve(slow_.size());
    // slow_ is a ring once full, rotating at slow_next_.
    const size_t n = slow_.size();
    const size_t start = n < kSlowCapacity ? 0 : slow_next_ % kSlowCapacity;
    for (size_t i = 0; i < n; ++i) out.push_back(slow_[(start + i) % n]);
    return out;
  }

  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t slow_recorded() const {
    return slow_recorded_.load(std::memory_order_relaxed);
  }

  // Test isolation only: clears the rings, the slow log and the counts.
  // Never call with recording threads live.
  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    // Reset in place, never freed: quiescent threads still cache them.
    for (auto& r : rings_) r->Reset();
    slow_.clear();
    slow_next_ = 0;
    recorded_.store(0, std::memory_order_relaxed);
    slow_recorded_.store(0, std::memory_order_relaxed);
  }

 private:
  struct ThreadSlot {
    Ring* ring = nullptr;
    uint32_t id = 0;  // the ring's index: the trace's thread id
  };

  ThreadSlot SlotForThisThread() {
    // Keyed by the recorder's process-unique instance id, never by its
    // address: a recorder built where a destroyed one lived (stack
    // recorders in consecutive tests) must not inherit its freed ring.
    thread_local struct {
      uint64_t owner_id = 0;  // 0 = empty; instance ids start at 1
      ThreadSlot slot{};
    } cached;
    if (cached.owner_id == instance_id_) return cached.slot;
    std::lock_guard<std::mutex> lock(mutex_);
    rings_.push_back(std::make_unique<Ring>());
    cached.owner_id = instance_id_;
    cached.slot = {rings_.back().get(),
                   static_cast<uint32_t>(rings_.size() - 1)};
    return cached.slot;
  }

  const uint64_t instance_id_;
  std::atomic<uint64_t> slow_threshold_ns_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> slow_recorded_{0};

  mutable std::mutex mutex_;  // guards rings_ growth and the slow log
  std::vector<std::unique_ptr<Ring>> rings_;  // never shrunk
  std::vector<Trace> slow_;  // bounded ring over kSlowCapacity
  size_t slow_next_ = 0;
};

// --- serving context ----------------------------------------------------

struct SpanCollector;  // obs/request_trace.h

// What the calling thread is serving: the connection and wire request
// id every descent trace it records carries, and the collector the
// index wrappers mark their request sub-phases into (null unless the
// request recorder is armed). All zero outside a ServingScope.
struct ServingContext {
  uint32_t conn_id = 0;
  uint32_t request_id = 0;
  SpanCollector* collector = nullptr;
};

namespace serving_internal {
// Only the owning thread reads or writes it.
inline constinit thread_local ServingContext g_context;
}  // namespace serving_internal

inline const ServingContext& CurrentServingContext() {
  return serving_internal::g_context;
}

// Sets the calling thread's serving context for one backend call and
// clears it on every way out. Scopes do not nest.
class ServingScope {
 public:
  explicit ServingScope(const ServingContext& context) {
    serving_internal::g_context = context;
  }
  ~ServingScope() { serving_internal::g_context = ServingContext{}; }
  ServingScope(const ServingScope&) = delete;
  ServingScope& operator=(const ServingScope&) = delete;
};

// --- settings -------------------------------------------------------------

// Parses a trace setting (a sample rate or a slow threshold). *out gets
// the decimal digits `text` starts with, clamped to `max`, or 0 when it
// starts with none ("", "-5"). Returns true only when `text` is all
// digits and at most `max`. The environment variables take *out as it
// is; the CLI rejects a flag for which this returns false. Sample rates
// pass UINT32_MAX, so SIMDTREE_TRACE_SAMPLE=4294967296 reads as
// 1-in-4294967295 instead of wrapping to 0 (off).
inline bool ParseTraceSetting(const char* text, uint64_t max,
                              uint64_t* out) {
  uint64_t v = 0;
  bool clamped = false;
  const char* p = text;
  for (; *p >= '0' && *p <= '9'; ++p) {
    const uint64_t d = static_cast<uint64_t>(*p - '0');
    if (clamped || d > max || v > (max - d) / 10) {
      clamped = true;
    } else {
      v = v * 10 + d;
    }
  }
  *out = clamped ? max : v;
  return p != text && *p == '\0' && !clamped;
}

// One of the trace environment variables, read through
// ParseTraceSetting; unset reads as 0.
inline uint64_t EnvTraceSetting(const char* name, uint64_t max) {
  const char* env = std::getenv(name);
  uint64_t v = 0;
  if (env != nullptr) ParseTraceSetting(env, max, &v);
  return v;
}

}  // namespace simdtree::obs

#endif  // SIMDTREE_OBS_FLIGHT_RECORDER_H_
