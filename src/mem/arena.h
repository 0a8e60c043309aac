// Arena/pool memory subsystem for the tree backends.
//
// The paper optimizes *intra*-node search — few cache lines per node via
// SIMD k-ary layouts — but says nothing about where the nodes live. With
// one `new` per node, a root-to-leaf descent chases pointers across a
// fragmented heap: every level is an LLC miss AND a dTLB miss against an
// unrelated 4 KiB page. Related systems put their headline numbers on
// contiguous node storage (the BS-tree's flat per-level arrays, and
// Upscaledb's compressed in-node data keeping more of the index
// TLB-resident — see PAPERS.md). This file is that layer for simdtree:
//
//   * NodePool  — segregated pool of fixed-size node blocks, carved from
//     slabs that ramp up geometrically to full size (2 MiB by default).
//     A full-size slab is one whole 2 MiB-aligned extent holding
//     floor(2 MiB / block) blocks and madvise(MADV_HUGEPAGE)d, so the
//     kernel can back it with a single TLB entry; the smaller ramp-up
//     slabs stay on base pages. Blocks are cache-line aligned and
//     addressed by **32-bit slots**
//     (slab index + block index packed into one uint32), which is what
//     lets GenericBPlusTree store compressed child references instead of
//     64-bit pointers: half the pointer width, so more separators and
//     children per cache line.
//   * ByteArena — variable-size bump arena with size-class free lists,
//     for the Seg-Trie's compact nodes (which grow geometrically and are
//     freed individually on erase).
//
// Slabs never move once allocated: node pointers and slot decodings stay
// stable for the pool's lifetime, and Reset() releases every slab in
// O(slabs) without touching individual blocks (O(1) per node-count),
// which is what makes tree Clear()/teardown constant-time per node.
//
// Thread compatibility matches the trees: a pool belongs to one tree
// (one shard), concurrent reads are safe, mutation needs external
// exclusion.

#ifndef SIMDTREE_MEM_ARENA_H_
#define SIMDTREE_MEM_ARENA_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/olc.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace simdtree::mem {

inline constexpr size_t kCacheLine = 64;
inline constexpr size_t kDefaultSlabBytes = size_t{2} << 20;  // 2 MiB
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

// Prefetches, for reading, every cache line that [p, p + bytes) touches:
// a node's whole key array or child-ref array ahead of its search.
// x86 issues the prefetch through volatile asm: GCC 12 deletes a loop
// whose trip count it can bound (a clamped node count) when the body is
// only __builtin_prefetch, which silently dropped every such prefetch.
inline void PrefetchLines(const void* p, size_t bytes) {
  const uintptr_t begin = reinterpret_cast<uintptr_t>(p);
  for (uintptr_t line = begin & ~uintptr_t{kCacheLine - 1};
       line < begin + bytes; line += kCacheLine) {
#if defined(__x86_64__) || defined(__i386__)
    asm volatile("prefetcht0 %0" : : "m"(*reinterpret_cast<const char*>(line)));
#else
    __builtin_prefetch(reinterpret_cast<const void*>(line), 0, 3);
#endif
  }
}

namespace internal {

// One aligned slab. An extent of at least the hugepage size is 2 MiB-
// aligned (transparent hugepages only back 2 MiB-aligned extents) and
// madvised; anything smaller is cache-line aligned. A pool that wants
// hugepages therefore asks for whole 2 MiB extents: NodePool rounds its
// full-size slabs up to slab_bytes even when the blocks fall short of
// it. The MADV_HUGEPAGE hint is best-effort: where madvise is
// unavailable or denied (THP disabled, non-Linux), the slab silently
// stays on base pages — correctness never depends on it. ReleaseSlab
// must get the same `bytes`, which picks the same alignment.
inline void* AllocateSlab(size_t bytes) {
  const size_t align = bytes >= kHugePageBytes ? kHugePageBytes : kCacheLine;
  void* p = ::operator new(bytes, std::align_val_t{align});
#if defined(__linux__)
  if (bytes >= kHugePageBytes) {
    (void)madvise(p, bytes, MADV_HUGEPAGE);
  }
#endif
  return p;
}

inline void ReleaseSlab(void* p, size_t bytes) {
  const size_t align = bytes >= kHugePageBytes ? kHugePageBytes : kCacheLine;
  ::operator delete(p, std::align_val_t{align});
}

inline size_t AlignUp(size_t v, size_t align) {
  return (v + align - 1) / align * align;
}

}  // namespace internal

// Counters and occupancy of one pool/arena, cheap to read (all O(1)).
struct ArenaStats {
  size_t slab_count = 0;       // slabs currently reserved
  size_t reserved_bytes = 0;   // total slab bytes
  size_t used_bytes = 0;       // bytes of live blocks
  size_t live_blocks = 0;      // allocated minus freed minus reset
  size_t free_list_blocks = 0; // blocks parked on free lists
  uint64_t allocs = 0;         // lifetime block allocations
  uint64_t frees = 0;          // lifetime per-block frees (erase churn)
  uint64_t resets = 0;         // lifetime O(1) slab releases
  size_t deferred_blocks = 0;  // blocks quarantined awaiting epoch advance
  size_t deferred_slabs = 0;   // slabs quarantined awaiting epoch advance

  double utilization() const {
    return reserved_bytes > 0
               ? static_cast<double>(used_bytes) /
                     static_cast<double>(reserved_bytes)
               : 0.0;
  }

  ArenaStats& Merge(const ArenaStats& o) {
    slab_count += o.slab_count;
    reserved_bytes += o.reserved_bytes;
    used_bytes += o.used_bytes;
    live_blocks += o.live_blocks;
    free_list_blocks += o.free_list_blocks;
    allocs += o.allocs;
    frees += o.frees;
    resets += o.resets;
    deferred_blocks += o.deferred_blocks;
    deferred_slabs += o.deferred_slabs;
    return *this;
  }
};

// Per-tree arena knobs, carried in each tree's Config. The defaults are
// what production wants; tests shrink slab_bytes to exercise multi-slab
// growth cheaply and max_slot_bits to hit the ref-exhaustion path
// without allocating 2^31 nodes.
struct ArenaOptions {
  size_t slab_bytes = kDefaultSlabBytes;
  uint32_t max_slot_bits = 31;  // top bit is the tree's leaf/inner tag
};

// Returns the index's arena stats when it exposes MemStats() (all arena-
// backed trees do), and an all-zero ArenaStats otherwise. Lets the
// concurrency wrappers stay generic over non-arena indexes.
template <typename Index>
ArenaStats IndexMemStats(const Index& index) {
  if constexpr (requires { index.MemStats(); }) {
    return index.MemStats();
  } else {
    return ArenaStats{};
  }
}

// --- NodePool ---------------------------------------------------------------

// Pool of fixed-size, cache-line-aligned blocks addressed by 32-bit
// slots. A slot packs (slab index << slot_bits) | block index; decoding
// is one load from the (small, hot) slab table plus arithmetic —
// cheaper than the dependent pointer load it replaces, and computable
// for prefetching before the child is touched.
//
// Slab growth is geometric: the first slab holds a handful of blocks
// (small trees in tests/fixtures stay cheap), quadrupling up to
// floor(slab_bytes / block) blocks, after which every slab is full-size.
// A full-size slab is allocated as one whole slab_bytes extent (2 MiB-
// aligned and hugepage-backed at the default size) even when the block
// size does not divide it; the tail past the last block, under one
// block, stays unused and is not counted in reserved_bytes.
// `max_slot_bits` caps the encodable slot space; Alloc returns nullptr
// on exhaustion so the owner can surface a typed error (tree insert
// throws std::bad_alloc). Callers that tag slots (e.g. the tree's
// leaf/inner bit) pass max_slot_bits = 31.
class NodePool {
 public:
  static constexpr uint32_t kMaxSlotBits = 32;
  static constexpr size_t kMinBlocksFirstSlab = 8;

  explicit NodePool(size_t block_bytes,
                    size_t slab_bytes = kDefaultSlabBytes,
                    uint32_t max_slot_bits = kMaxSlotBits)
      : block_bytes_(internal::AlignUp(block_bytes, kCacheLine)),
        slab_bytes_(slab_bytes),
        max_slot_bits_(max_slot_bits),
        blocks_per_slab_(std::max<size_t>(1, slab_bytes_ / block_bytes_)) {
    assert(max_slot_bits_ >= 1 && max_slot_bits_ <= 32);
    slot_bits_ = static_cast<uint32_t>(std::bit_width(blocks_per_slab_ - 1));
    if (slot_bits_ == 0) slot_bits_ = 1;  // degenerate 1-block slabs
    slot_mask_ = (uint32_t{1} << slot_bits_) - 1;
    next_slab_blocks_ = FirstSlabBlocks();
  }

  ~NodePool() { Teardown(); }

  NodePool(NodePool&& other) noexcept { *this = std::move(other); }
  NodePool& operator=(NodePool&& other) noexcept {
    if (this != &other) {
      Teardown();
      block_bytes_ = other.block_bytes_;
      slab_bytes_ = other.slab_bytes_;
      max_slot_bits_ = other.max_slot_bits_;
      blocks_per_slab_ = other.blocks_per_slab_;
      slot_bits_ = other.slot_bits_;
      slot_mask_ = other.slot_mask_;
      next_slab_blocks_ = other.next_slab_blocks_;
      slabs_ = std::move(other.slabs_);
      slab_blocks_ = std::move(other.slab_blocks_);
      bump_ = other.bump_;
      free_list_ = std::move(other.free_list_);
      stats_ = other.stats_;
      epoch_mgr_ = other.epoch_mgr_;
      opt_table_ = other.opt_table_;
      opt_table_size_ = other.opt_table_size_;
      quarantine_ = std::move(other.quarantine_);
      quarantined_slabs_ = std::move(other.quarantined_slabs_);
      deferred_block_count_ = other.deferred_block_count_;
      purge_tick_ = other.purge_tick_;
      slab_index_base_ = other.slab_index_base_;
      other.slabs_.clear();
      other.slab_blocks_.clear();
      other.bump_ = 0;
      other.free_list_.clear();
      other.stats_ = {};
      other.epoch_mgr_ = nullptr;
      other.opt_table_ = nullptr;
      other.opt_table_size_ = 0;
      other.quarantine_.clear();
      other.quarantined_slabs_.clear();
      other.deferred_block_count_ = 0;
      other.purge_tick_ = 0;
      other.slab_index_base_ = 0;
    }
    return *this;
  }
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  size_t block_bytes() const { return block_bytes_; }
  bool deferred_enabled() const { return epoch_mgr_ != nullptr; }

  // Switches the pool to epoch-deferred reclamation for optimistic
  // (lock-free) readers:
  //   * Free() quarantines slots instead of recycling them, and Reset()
  //     quarantines whole slabs instead of releasing them; both drain
  //     only once every in-flight reader has advanced past the epoch of
  //     the free (MinActive() > bucket epoch). This is what makes a
  //     validated-but-stale node pointer safe to dereference: the
  //     memory cannot be recycled or unmapped while the reader's pin is
  //     older than the free.
  //   * A stable, atomically-published slab table is built so readers
  //     can decode slot refs without touching the (reallocating)
  //     slabs_ vector; DecodeOptimistic() bounds-checks against it and
  //     returns nullptr for refs torn mid-read.
  // Returns whether deferral is active: false only for a null manager or
  // a failed table allocation. Idempotent.
  bool EnableDeferredReclamation(olc::EpochManager* em) {
    if (em == nullptr) return false;
    if (epoch_mgr_ != nullptr) return true;
    const uint32_t shift =
        max_slot_bits_ > slot_bits_ ? max_slot_bits_ - slot_bits_ : 0;
    const size_t table = size_t{1} << shift;
    // calloc: the table can be large in slot-space terms (tens of MiB
    // virtual) but is only ever touched one entry per live slab, so the
    // lazily-zeroed pages cost nothing until used.
    auto* t = static_cast<SlabTableEntry*>(
        std::calloc(table, sizeof(SlabTableEntry)));
    if (t == nullptr) return false;
    opt_table_ = t;
    opt_table_size_ = table;
    for (size_t i = 0; i < slabs_.size(); ++i) {
      const size_t idx = slab_index_base_ + i;
      if (idx >= opt_table_size_) break;
      opt_table_[idx].blocks.store(slab_blocks_[i],
                                   std::memory_order_relaxed);
      opt_table_[idx].base.store(slabs_[i], std::memory_order_release);
    }
    epoch_mgr_ = em;
    return true;
  }

  // Slot decode for optimistic readers: every input is treated as
  // potentially torn garbage, so the lookup is bounds-guarded against
  // the atomic slab table and returns nullptr instead of faulting; the
  // caller maps nullptr to a version conflict and restarts.
  const void* DecodeOptimistic(uint32_t slot) const {
    const size_t idx = slot >> slot_bits_;
    if (opt_table_ == nullptr || idx >= opt_table_size_) return nullptr;
    const char* base = opt_table_[idx].base.load(std::memory_order_acquire);
    if (base == nullptr) return nullptr;
    const uint64_t blk = slot & slot_mask_;
    if (blk >= opt_table_[idx].blocks.load(std::memory_order_relaxed)) {
      return nullptr;
    }
    return base + static_cast<size_t>(blk) * block_bytes_;
  }

  // Allocates one block; *slot receives its 32-bit reference. Returns
  // nullptr when the slot space (max_slot_bits) is exhausted — the only
  // failure mode besides the allocator itself throwing.
  void* Alloc(uint32_t* slot) {
    if (free_list_.empty() && epoch_mgr_ != nullptr) {
      // Writer-side housekeeping: drain any quarantine the readers have
      // advanced past before growing a new slab.
      epoch_mgr_->TryAdvance();
      Purge();
    }
    if (!free_list_.empty()) {
      const uint32_t s = free_list_.back();
      free_list_.pop_back();
      ++stats_.allocs;
      ++stats_.live_blocks;
      *slot = s;
      return Decode(s);
    }
    return AllocBump(slot);
  }

  // Returns a block to the pool's free list. With deferred reclamation
  // the slot is quarantined under the current epoch first and only
  // re-enters the free list after every in-flight reader has advanced
  // past it.
  void Free(uint32_t slot) {
    ++stats_.frees;
    --stats_.live_blocks;
    if (epoch_mgr_ == nullptr) {
      free_list_.push_back(slot);
      return;
    }
    const uint64_t e = epoch_mgr_->current();
    if (quarantine_.empty() || quarantine_.back().epoch != e ||
        quarantine_.back().discard) {
      quarantine_.push_back(QuarantineBucket{e, false, {}});
    }
    quarantine_.back().slots.push_back(slot);
    ++deferred_block_count_;
    epoch_mgr_->NoteDeferredBlocks(1);
    if ((++purge_tick_ & 63u) == 0) {
      epoch_mgr_->TryAdvance();
      Purge();
    }
  }

  // Decodes a slot to its block address. Hot path of every descent.
  // Slab indices are logical: under deferred reclamation they grow
  // monotonically across Reset() cycles (slab_index_base_), so a stale
  // pre-Reset ref can never alias a post-Reset slab.
  void* Decode(uint32_t slot) const {
    return slabs_[(slot >> slot_bits_) - slab_index_base_] +
           static_cast<size_t>(slot & slot_mask_) * block_bytes_;
  }
  const void* DecodeConst(uint32_t slot) const { return Decode(slot); }

  // Slab index a slot's block lives in (trace attribution, obs/trace.h).
  size_t SlabOfSlot(uint32_t slot) const { return slot >> slot_bits_; }

  // Releases every slab at once — O(slabs), not O(blocks). All
  // outstanding blocks and slots are invalidated; no per-block work is
  // done (the counter contract the teardown tests assert).
  // Under deferred reclamation the slabs are quarantined rather than
  // released: a reader mid-descent either validates against a node it
  // already reached (the pre-Reset snapshot stays mapped) or fails the
  // zeroed slab-table lookup and restarts against the new structure.
  void Reset() {
    ++stats_.resets;
    if (epoch_mgr_ != nullptr) {
      // Park every slab in the quarantine with its logical table index.
      // The table entries stay populated until purge: a reader that
      // pinned before this Reset keeps decoding a fully intact
      // pre-Reset snapshot (its result linearizes before the Clear).
      // New slabs take fresh logical indices (slab_index_base_ bump
      // below), so no post-Reset ref ever collides with a parked entry.
      const uint64_t e = epoch_mgr_->current();
      for (size_t i = 0; i < slabs_.size(); ++i) {
        quarantined_slabs_.push_back(
            QuarantinedSlab{e, slabs_[i], SlabBytes(slab_blocks_[i]),
                            slab_index_base_ + i});
      }
      epoch_mgr_->NoteDeferredSlabs(static_cast<int64_t>(slabs_.size()));
      slab_index_base_ += slabs_.size();
      // Slots already quarantined point into the slabs parked above;
      // they must never re-enter the free list.
      for (auto& bucket : quarantine_) bucket.discard = true;
    } else {
      ReleaseAll();
    }
    slabs_.clear();
    slab_blocks_.clear();
    free_list_.clear();
    bump_ = 0;
    stats_.live_blocks = 0;
    next_slab_blocks_ = FirstSlabBlocks();
    if (epoch_mgr_ != nullptr) {
      epoch_mgr_->TryAdvance();
      Purge();
    }
  }

  ArenaStats Stats() const {
    ArenaStats s = stats_;
    s.slab_count = slabs_.size();
    for (const size_t blocks : slab_blocks_) {
      s.reserved_bytes += blocks * block_bytes_;
    }
    s.free_list_blocks = free_list_.size();
    s.used_bytes = s.live_blocks * block_bytes_;
    s.deferred_blocks = deferred_block_count_;
    s.deferred_slabs = quarantined_slabs_.size();
    return s;
  }

  // Drains every quarantine bucket all in-flight readers have advanced
  // past. Called from the writer side (Alloc/Free/Reset), which already
  // holds the shard's exclusive lock.
  void Purge() {
    if (epoch_mgr_ == nullptr ||
        (quarantine_.empty() && quarantined_slabs_.empty())) {
      return;
    }
    const uint64_t min_active = epoch_mgr_->MinActive();
    while (!quarantine_.empty() && quarantine_.front().epoch < min_active) {
      QuarantineBucket& bucket = quarantine_.front();
      deferred_block_count_ -= bucket.slots.size();
      epoch_mgr_->NoteDeferredBlocks(
          -static_cast<int64_t>(bucket.slots.size()));
      if (!bucket.discard) {
        free_list_.insert(free_list_.end(), bucket.slots.begin(),
                          bucket.slots.end());
      }
      quarantine_.pop_front();
    }
    while (!quarantined_slabs_.empty() &&
           quarantined_slabs_.front().epoch < min_active) {
      const QuarantinedSlab& slab = quarantined_slabs_.front();
      // Unpublish before releasing: any reader that could still decode
      // into this slab pinned at or before the quarantine epoch, and
      // min_active says no such reader remains.
      if (slab.table_index < opt_table_size_) {
        opt_table_[slab.table_index].base.store(nullptr,
                                                std::memory_order_release);
        opt_table_[slab.table_index].blocks.store(
            0, std::memory_order_relaxed);
      }
      internal::ReleaseSlab(slab.base, slab.bytes);
      epoch_mgr_->NoteDeferredSlabs(-1);
      quarantined_slabs_.pop_front();
    }
  }

 private:
  struct SlabTableEntry {
    std::atomic<char*> base;
    std::atomic<uint64_t> blocks;
  };
  static_assert(std::atomic<char*>::is_always_lock_free);
  static_assert(sizeof(SlabTableEntry) == 16);

  struct QuarantineBucket {
    uint64_t epoch = 0;
    bool discard = false;  // slots predate a Reset; slab memory is
                           // tracked in quarantined_slabs_ instead
    std::vector<uint32_t> slots;
  };

  struct QuarantinedSlab {
    uint64_t epoch = 0;
    char* base = nullptr;
    size_t bytes = 0;        // extent, as passed to AllocateSlab
    size_t table_index = 0;  // logical slab index (opt_table_ entry)
  };

  // Blocks in the first (ramp-up) slab: about one 4 KiB page's worth.
  size_t FirstSlabBlocks() const {
    return std::min(blocks_per_slab_,
                    std::max<size_t>(kMinBlocksFirstSlab,
                                     size_t{4096} / block_bytes_));
  }

  // Extent of a slab of `blocks` blocks, for AllocateSlab and every
  // release: a full-size slab takes the whole slab_bytes_ budget, so at
  // the default size it is one 2 MiB hugepage extent; ramp-up slabs take
  // exactly their blocks.
  size_t SlabBytes(size_t blocks) const {
    const size_t bytes = blocks * block_bytes_;
    return blocks == blocks_per_slab_ ? std::max(bytes, slab_bytes_) : bytes;
  }

  void* AllocBump(uint32_t* slot) {
    if (slabs_.empty() || bump_ == slab_blocks_.back()) {
      // Next slab: geometric growth up to the full slab size, and a
      // slot-space check before committing.
      const size_t slab_index = slab_index_base_ + slabs_.size();
      const uint64_t base_slot = static_cast<uint64_t>(slab_index)
                                 << slot_bits_;
      const uint64_t slot_cap = uint64_t{1} << max_slot_bits_;
      if (base_slot >= slot_cap) {
        return nullptr;  // 32-bit (or capped) ref space exhausted
      }
      // A slab never spans more slots than the cap leaves: shrink the
      // last encodable slab instead of failing with space still free.
      const size_t blocks = static_cast<size_t>(
          std::min<uint64_t>(next_slab_blocks_, slot_cap - base_slot));
      slabs_.push_back(
          static_cast<char*>(internal::AllocateSlab(SlabBytes(blocks))));
      slab_blocks_.push_back(blocks);
      if (opt_table_ != nullptr && slab_index < opt_table_size_) {
        // Publish the slab for optimistic decoders: block count first
        // (relaxed), then the base with release so a reader that sees
        // the base also sees a usable count.
        opt_table_[slab_index].blocks.store(blocks,
                                            std::memory_order_relaxed);
        opt_table_[slab_index].base.store(slabs_.back(),
                                          std::memory_order_release);
      }
      bump_ = 0;
      next_slab_blocks_ = std::min(blocks_per_slab_, blocks * 4);
    }
    const uint32_t s = static_cast<uint32_t>(
        ((slab_index_base_ + slabs_.size() - 1) << slot_bits_) | bump_);
    ++bump_;
    ++stats_.allocs;
    ++stats_.live_blocks;
    *slot = s;
    return Decode(s);
  }

  void ReleaseAll() {
    for (size_t i = 0; i < slabs_.size(); ++i) {
      internal::ReleaseSlab(slabs_[i], SlabBytes(slab_blocks_[i]));
    }
  }

  // Full teardown (destructor / move-assign target). Destroying a pool
  // with readers still in flight is a caller contract violation — same
  // as destroying the tree itself — so the quarantine is drained
  // unconditionally here.
  void Teardown() {
    ReleaseAll();
    for (const QuarantinedSlab& slab : quarantined_slabs_) {
      internal::ReleaseSlab(slab.base, slab.bytes);
    }
    if (epoch_mgr_ != nullptr) {
      epoch_mgr_->NoteDeferredSlabs(
          -static_cast<int64_t>(quarantined_slabs_.size()));
      epoch_mgr_->NoteDeferredBlocks(
          -static_cast<int64_t>(deferred_block_count_));
    }
    quarantined_slabs_.clear();
    quarantine_.clear();
    deferred_block_count_ = 0;
    if (opt_table_ != nullptr) {
      std::free(opt_table_);
      opt_table_ = nullptr;
      opt_table_size_ = 0;
    }
    epoch_mgr_ = nullptr;
  }

  // What a descent reads to decode a slot, in the pool's first cache
  // line; only a new slab or a Reset writes it. The writer's per-alloc
  // and per-free state starts on the next line, so a writer splitting
  // or merging nodes does not invalidate the line every reader loads.
  size_t block_bytes_ = 0;
  uint32_t slot_bits_ = 0;
  uint32_t slot_mask_ = 0;
  std::vector<char*> slabs_;
  size_t slab_index_base_ = 0;  // logical index of slabs_[0]
  SlabTableEntry* opt_table_ = nullptr;  // null until deferral is on
  size_t opt_table_size_ = 0;

  alignas(kCacheLine) size_t slab_bytes_ = kDefaultSlabBytes;
  uint32_t max_slot_bits_ = kMaxSlotBits;
  size_t blocks_per_slab_ = 1;   // full-size slab capacity
  size_t next_slab_blocks_ = 0;  // geometric growth schedule
  std::vector<size_t> slab_blocks_;
  size_t bump_ = 0;              // next block index in the last slab
  std::vector<uint32_t> free_list_;
  ArenaStats stats_;

  // Epoch-deferred reclamation state (writer-side). Null/empty until
  // EnableDeferredReclamation().
  olc::EpochManager* epoch_mgr_ = nullptr;
  std::deque<QuarantineBucket> quarantine_;
  std::deque<QuarantinedSlab> quarantined_slabs_;
  size_t deferred_block_count_ = 0;
  uint32_t purge_tick_ = 0;
};

// --- ByteArena --------------------------------------------------------------

// Variable-size arena for the trie's compact nodes: bump allocation from
// geometrically growing slabs with power-of-two size-class free lists
// (compact blocks grow by doubling, so freed blocks requeue exactly).
// Reset() releases all slabs in O(slabs) — the trie's Clear()/teardown.
class ByteArena {
 public:
  static constexpr size_t kMinClassBytes = 16;  // free-list link lives here
  static constexpr size_t kNumClasses = 48;

  explicit ByteArena(size_t slab_bytes = kDefaultSlabBytes)
      : slab_bytes_(std::max(slab_bytes, size_t{4096})),
        next_slab_bytes_(std::min(slab_bytes_, size_t{16} << 10)) {}

  ~ByteArena() { ReleaseAll(); }

  ByteArena(ByteArena&& other) noexcept { *this = std::move(other); }
  ByteArena& operator=(ByteArena&& other) noexcept {
    if (this != &other) {
      ReleaseAll();
      slab_bytes_ = other.slab_bytes_;
      next_slab_bytes_ = other.next_slab_bytes_;
      slabs_ = std::move(other.slabs_);
      slab_sizes_ = std::move(other.slab_sizes_);
      bump_ = other.bump_;
      bump_end_ = other.bump_end_;
      for (size_t i = 0; i < kNumClasses; ++i) {
        free_lists_[i] = other.free_lists_[i];
        other.free_lists_[i] = nullptr;
      }
      stats_ = other.stats_;
      other.slabs_.clear();
      other.slab_sizes_.clear();
      other.bump_ = other.bump_end_ = nullptr;
      other.stats_ = {};
    }
    return *this;
  }
  ByteArena(const ByteArena&) = delete;
  ByteArena& operator=(const ByteArena&) = delete;

  // Allocates `bytes` with at least `align` alignment (power of two,
  // <= kCacheLine honored by slab placement; larger alignments fall
  // back to a dedicated slab).
  void* Alloc(size_t bytes, size_t align) {
    // The slab path guarantees min(size-class, cache line) alignment;
    // larger requirements would need dedicated placement we don't have a
    // client for.
    assert(align <= kCacheLine && align <= SizeClassBytes(bytes));
    ++stats_.allocs;
    const size_t cls = SizeClass(bytes);
    const size_t cls_bytes = size_t{1} << cls;
    stats_.used_bytes += cls_bytes;
    ++stats_.live_blocks;
    if (free_lists_[cls] != nullptr) {
      void* p = free_lists_[cls];
      free_lists_[cls] = *static_cast<void**>(p);
      --stats_.free_list_blocks;
      return p;
    }
    if (align > kCacheLine || cls_bytes > slab_bytes_) {
      // Oversized/over-aligned: dedicated slab, still arena-owned so
      // Reset() reclaims it.
      char* p = static_cast<char*>(internal::AllocateSlab(cls_bytes));
      slabs_.push_back(p);
      slab_sizes_.push_back(cls_bytes);
      return p;
    }
    char* at = AlignedBump(cls_bytes);
    if (at == nullptr) {
      NewSlab(cls_bytes);
      at = AlignedBump(cls_bytes);
    }
    return at;
  }

  // Returns a block for reuse. `bytes` must be the size passed to the
  // matching Alloc (compact nodes recompute it from their header).
  void Free(void* p, size_t bytes) {
    ++stats_.frees;
    const size_t cls = SizeClass(bytes);
    stats_.used_bytes -= size_t{1} << cls;
    --stats_.live_blocks;
    *static_cast<void**>(p) = free_lists_[cls];
    free_lists_[cls] = p;
    ++stats_.free_list_blocks;
  }

  // Releases every slab in O(slabs); all blocks are invalidated.
  void Reset() {
    ++stats_.resets;
    ReleaseAll();
    slabs_.clear();
    slab_sizes_.clear();
    bump_ = bump_end_ = nullptr;
    for (auto& head : free_lists_) head = nullptr;
    next_slab_bytes_ = std::min(slab_bytes_, size_t{16} << 10);
    stats_.live_blocks = 0;
    stats_.used_bytes = 0;
    stats_.free_list_blocks = 0;
  }

  ArenaStats Stats() const {
    ArenaStats s = stats_;
    s.slab_count = slabs_.size();
    for (const size_t b : slab_sizes_) s.reserved_bytes += b;
    return s;
  }

 private:
  static size_t SizeClass(size_t bytes) {
    const size_t b = bytes < kMinClassBytes ? kMinClassBytes : bytes;
    return static_cast<size_t>(std::bit_width(b - 1));
  }
  static size_t SizeClassBytes(size_t bytes) {
    return size_t{1} << SizeClass(bytes);
  }

  char* AlignedBump(size_t cls_bytes) {
    if (bump_ == nullptr) return nullptr;
    // Size classes are powers of two >= 16; bumping in class-size units
    // from a cache-line-aligned base keeps every block aligned to
    // min(cls_bytes, kCacheLine).
    char* at = bump_;
    if (at + cls_bytes > bump_end_) return nullptr;
    bump_ = at + cls_bytes;
    return at;
  }

  void NewSlab(size_t min_bytes) {
    size_t bytes = next_slab_bytes_;
    while (bytes < min_bytes) bytes *= 2;
    bytes = std::min(std::max(bytes, min_bytes), std::max(slab_bytes_, min_bytes));
    char* p = static_cast<char*>(internal::AllocateSlab(bytes));
    slabs_.push_back(p);
    slab_sizes_.push_back(bytes);
    bump_ = p;
    bump_end_ = p + bytes;
    next_slab_bytes_ = std::min(slab_bytes_, bytes * 4);
  }

  void ReleaseAll() {
    for (size_t i = 0; i < slabs_.size(); ++i) {
      internal::ReleaseSlab(slabs_[i], slab_sizes_[i]);
    }
  }

  size_t slab_bytes_;
  size_t next_slab_bytes_;
  std::vector<char*> slabs_;
  std::vector<size_t> slab_sizes_;
  char* bump_ = nullptr;
  char* bump_end_ = nullptr;
  void* free_lists_[kNumClasses] = {};
  ArenaStats stats_;
};

}  // namespace simdtree::mem

#endif  // SIMDTREE_MEM_ARENA_H_
