// Optimistic lock coupling primitives: per-node version words and the
// global epoch registry backing deferred (epoch-based) reclamation.
//
// This header is deliberately dependency-free (atomics only) so it can
// be included from mem/arena.h without creating a cycle through the
// observability layer (obs/metrics.h includes mem/arena.h).
//
// Version-word layout (64 bits):
//
//   bit 0     lock/dead bit — odd value means a writer is mutating the
//             node (or the node has been freed and will never become
//             stable again)
//   bits 1-63 modification counter, bumped by 1 on every lock AND every
//             unlock, so each write cycle advances the word by 2 and a
//             reader comparing begin/end values catches both "writer in
//             progress" and "writer completed in between"
//
// Reader protocol (seqlock-style):
//   v = ReadBegin()           acquire-load; odd => conflict, restart
//   ... read node fields ...  plain loads, possibly torn
//   Validate(v)               acquire fence + reload; != v => conflict
//
// Writer protocol (writers are already serialized per shard by the
// wrapper's exclusive mutex, so the lock bit is never contended — it
// exists purely to fence readers out):
//   Lock()    bump to odd (acq_rel RMW so node stores cannot hoist
//             above it), Unlock() bump to even with release ordering.
//   MarkDead() on free: the word goes odd and stays odd forever, so
//   any reader still holding a pointer restarts instead of trusting
//   recycled memory. Epoch reclamation (below) guarantees the memory
//   itself stays mapped and un-reused while such readers exist.

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <type_traits>

namespace simdtree::olc {

// ---------------------------------------------------------------------------
// ThreadSanitizer integration. The optimistic read window performs
// deliberately-racy plain loads whose results are discarded on version
// mismatch; TSan cannot see the seqlock happens-before argument, so the
// window is wrapped in ignore-reads annotations (intercepted by the TSan
// runtime). The version-word atomics keep their real orderings.
#if defined(__SANITIZE_THREAD__)
#define SIMDTREE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIMDTREE_TSAN 1
#endif
#endif

#if defined(SIMDTREE_TSAN)
extern "C" {
void AnnotateIgnoreReadsBegin(const char* file, int line);
void AnnotateIgnoreReadsEnd(const char* file, int line);
}
#endif

// RAII scope around one optimistic read attempt.
class TsanIgnoreReadsScope {
 public:
  TsanIgnoreReadsScope() {
#if defined(SIMDTREE_TSAN)
    AnnotateIgnoreReadsBegin(__FILE__, __LINE__);
#endif
  }
  ~TsanIgnoreReadsScope() {
#if defined(SIMDTREE_TSAN)
    AnnotateIgnoreReadsEnd(__FILE__, __LINE__);
#endif
  }
  TsanIgnoreReadsScope(const TsanIgnoreReadsScope&) = delete;
  TsanIgnoreReadsScope& operator=(const TsanIgnoreReadsScope&) = delete;
};

// ---------------------------------------------------------------------------

enum class ReadResult : uint8_t { kOk, kConflict };

// Bounded optimistic retries before an operation falls back to the
// shard's shared lock. Keeping this small is the writer-starvation fix:
// readers that keep losing races stop spinning on tree state and take
// the rwlock once, instead of camping on it for every operation (glibc's
// default rwlock is reader-preferring, so lock-per-read starves writers).
inline constexpr int kMaxReadRetries = 8;

class VersionWord {
 public:
  constexpr VersionWord() = default;

  // Reader side -------------------------------------------------------
  // Returns the current word; odd means unstable (locked or dead).
  uint64_t ReadBegin() const { return word_.load(std::memory_order_acquire); }

  static bool IsStable(uint64_t v) { return (v & 1) == 0; }

  // True when the node content read since ReadBegin() is a consistent
  // snapshot. The acquire fence orders the preceding plain loads before
  // the reload.
  bool Validate(uint64_t begin) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return word_.load(std::memory_order_relaxed) == begin;
  }

  // Writer side (single writer per node, serialized by the shard lock) -
  void Lock() {
    // acq_rel RMW: subsequent node stores cannot be hoisted above the
    // bump, so readers that still see the even value also see pre-lock
    // node content.
    word_.fetch_add(1, std::memory_order_acq_rel);
  }
  void Unlock() { word_.fetch_add(1, std::memory_order_release); }

  // Permanently odd: the node was freed. Callers either hold the lock
  // already (word odd — leave it) or mark an unlocked node dead.
  void MarkDead() {
    uint64_t v = word_.load(std::memory_order_relaxed);
    if ((v & 1) == 0) word_.fetch_add(1, std::memory_order_release);
  }

  bool IsLockedOrDead() const {
    return (word_.load(std::memory_order_relaxed) & 1) != 0;
  }

 private:
  std::atomic<uint64_t> word_{0};
};

// ---------------------------------------------------------------------------
// Epoch-based reclamation.
//
// A global epoch counter plus a fixed registry of per-thread slots.
// Readers pin the current epoch for the duration of one optimistic
// operation; memory freed under epoch E is quarantined and only reused
// once every active slot has advanced past E (MinActive() > E). A
// reader that obtained a pointer into soon-to-be-freed memory must have
// pinned at an epoch <= the free's epoch, which blocks the purge.

class EpochManager {
 public:
  static constexpr uint64_t kIdle = ~uint64_t{0};
  static constexpr int kMaxSlots = 256;

  // The process-wide manager. It is constant-initialized, so a pin
  // checks no initialization guard, and trivially destructible, so it
  // is never torn down and outlives the thread_local slot handles that
  // release their slots at thread exit.
  static EpochManager& Global() { return global_; }

  uint64_t current() const { return epoch_.load(std::memory_order_seq_cst); }

  // Smallest epoch any in-flight reader is pinned at, or kIdle when no
  // reader is active. A quarantine bucket tagged with epoch E is
  // reclaimable when MinActive() > E.
  uint64_t MinActive() const {
    uint64_t min = kIdle;
    const int n = high_water_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
      const uint64_t e = slots_[i].pinned.load(std::memory_order_seq_cst);
      if (e < min) min = e;
    }
    return min;
  }

  // Advances the global epoch if every active reader has caught up to
  // it (otherwise a lagging reader could pin "in the past" forever and
  // the advance would not help reclamation anyway).
  bool TryAdvance() {
    uint64_t g = epoch_.load(std::memory_order_seq_cst);
    const int n = high_water_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
      const uint64_t e = slots_[i].pinned.load(std::memory_order_seq_cst);
      if (e != kIdle && e != g) return false;
    }
    if (epoch_.compare_exchange_strong(g, g + 1, std::memory_order_seq_cst)) {
      advances_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  uint64_t advances() const { return advances_.load(std::memory_order_relaxed); }

  // Aggregate deferred-reclamation gauges, maintained by the NodePools
  // that quarantine into this manager and read by the obs layer.
  void NoteDeferredBlocks(int64_t delta) {
    deferred_blocks_.fetch_add(delta, std::memory_order_relaxed);
  }
  void NoteDeferredSlabs(int64_t delta) {
    deferred_slabs_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t deferred_blocks() const {
    return deferred_blocks_.load(std::memory_order_relaxed);
  }
  int64_t deferred_slabs() const {
    return deferred_slabs_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> pinned{kIdle};
    std::atomic<bool> claimed{false};
  };

  constexpr EpochManager() = default;

  Slot* AcquireSlot() {
    for (int i = 0; i < kMaxSlots; ++i) {
      bool expected = false;
      if (!slots_[i].claimed.load(std::memory_order_relaxed) &&
          slots_[i].claimed.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        // Grow the scan window MinActive()/TryAdvance() walk.
        int hw = high_water_.load(std::memory_order_relaxed);
        while (hw < i + 1 &&
               !high_water_.compare_exchange_weak(hw, i + 1,
                                                  std::memory_order_acq_rel)) {
        }
        return &slots_[i];
      }
    }
    return nullptr;
  }

  void ReleaseSlot(Slot* s) {
    s->pinned.store(kIdle, std::memory_order_release);
    s->claimed.store(false, std::memory_order_release);
  }

  // Per-thread slot, claimed lazily on first pin and returned at thread
  // exit. `depth` lives next to it so nested guards (e.g. a Find inside
  // a scan callback) do not double-publish the pin.
  struct SlotHandle {
    Slot* slot = nullptr;
    bool tried = false;
    int depth = 0;
    ~SlotHandle() {
      if (slot != nullptr) EpochManager::Global().ReleaseSlot(slot);
    }
  };

  SlotHandle* ThreadHandle() {
    thread_local SlotHandle handle;
    if (handle.slot == nullptr && !handle.tried) {
      handle.tried = true;
      handle.slot = AcquireSlot();
    }
    return &handle;
  }

  // Pins the calling thread's slot to the current epoch and returns its
  // handle, which Unpin takes back, so a guard looks the thread's slot
  // up once. The store/reload loop closes the race where the epoch
  // advances between reading it and publishing the pin (a stale pin
  // would let a purge believe this reader started later than it did).
  // Returns null when the slot registry is exhausted — callers must use
  // the locked path.
  SlotHandle* Pin() {
    SlotHandle* h = ThreadHandle();
    if (h->slot == nullptr) return nullptr;
    if (h->depth++ > 0) return h;  // already pinned (nested guard)
    uint64_t e = epoch_.load(std::memory_order_seq_cst);
    for (;;) {
      h->slot->pinned.store(e, std::memory_order_seq_cst);
      const uint64_t g = epoch_.load(std::memory_order_seq_cst);
      if (g == e) return h;
      e = g;
    }
  }

  static void Unpin(SlotHandle* h) {
    if (--h->depth == 0) {
      h->slot->pinned.store(kIdle, std::memory_order_release);
    }
  }

  friend class EpochGuard;

  alignas(64) std::atomic<uint64_t> epoch_{1};
  std::atomic<int> high_water_{0};
  std::atomic<uint64_t> advances_{0};
  std::atomic<int64_t> deferred_blocks_{0};
  std::atomic<int64_t> deferred_slabs_{0};
  Slot slots_[kMaxSlots];

  static EpochManager global_;
};

inline constinit EpochManager EpochManager::global_;
static_assert(std::is_trivially_destructible_v<EpochManager>,
              "Global() must outlive the thread_local SlotHandles");

// RAII epoch pin around one optimistic operation. `pinned()` is false
// when the slot registry is exhausted; callers then take the locked
// path (correct, just slower).
class EpochGuard {
 public:
  EpochGuard() : handle_(EpochManager::Global().Pin()) {}
  ~EpochGuard() {
    if (handle_ != nullptr) EpochManager::Unpin(handle_);
  }
  bool pinned() const { return handle_ != nullptr; }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochManager::SlotHandle* handle_;
};

// ---------------------------------------------------------------------------

// SIMDTREE_FORCE_SHARD_LOCKS=1 disables the optimistic read path
// process-wide: every read takes the per-shard shared lock exactly as
// before this feature existed. Sampled once; wrappers consult it at
// construction.
inline bool ForceShardLocks() {
  static const bool forced = [] {
    const char* env = std::getenv("SIMDTREE_FORCE_SHARD_LOCKS");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }();
  return forced;
}

}  // namespace simdtree::olc
