// Storage interface the KV server speaks to, plus the ShardedIndex
// adapter that implements it.
//
// net/server.cc is a plain (non-template) translation unit; KvBackend is
// the seam that keeps it that way. The serving hot path is FindBatch:
// the server hands over every read key of a connection's coalesced
// pipeline in one call, and the adapter forwards to
// ShardedIndex::FindBatch — one lock-free read per call (one epoch pin,
// one group-pipelined descent whose lockstep groups span shards), a
// shard's grouped level-wise descent when its share clears the
// UseGroupedDescent heuristic, and the shared locks of the shards it
// needs, in shard order, only when it falls back. Single-key writes and
// lower-bound probes map one to one.
//
// Thread safety: the server calls a backend from several worker threads
// concurrently; ShardedKvBackend inherits ShardedIndex's per-shard
// locking, so no extra synchronization is needed.

#ifndef SIMDTREE_NET_BACKEND_H_
#define SIMDTREE_NET_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "core/sharded.h"
#include "obs/metrics.h"

namespace simdtree::net {

class KvBackend {
 public:
  virtual ~KvBackend() = default;

  // out[i] = value of keys[i] or nullopt; the coalesced read hot path.
  virtual void FindBatch(const uint64_t* keys, size_t n,
                         std::optional<uint64_t>* out) = 0;

  // Smallest stored key >= key. Returns false when no such key exists.
  virtual bool LowerBound(uint64_t key, uint64_t* out_key,
                          uint64_t* out_value) = 0;

  virtual void Put(uint64_t key, uint64_t value) = 0;
  virtual bool Del(uint64_t key) = 0;

  // One JSON document for the STATS op (the metrics registry dump).
  virtual std::string StatsJson() = 0;
};

// Adapter over a ShardedIndex whose Index stores uint64 keys/values
// (the serve-kv instantiation: ShardedIndex<SegTree<u64, u64>>). The
// sharded index is borrowed, not owned — the caller keeps it alive for
// the server's lifetime.
template <typename Index>
class ShardedKvBackend final : public KvBackend {
  static_assert(sizeof(typename Index::KeyType) == 8 &&
                    sizeof(typename Index::ValueType) == 8,
                "the wire protocol carries 64-bit keys and values");

 public:
  explicit ShardedKvBackend(ShardedIndex<Index>* index) : index_(index) {}

  void FindBatch(const uint64_t* keys, size_t n,
                 std::optional<uint64_t>* out) override {
    index_->FindBatch(keys, n, out);
  }

  bool LowerBound(uint64_t key, uint64_t* out_key,
                  uint64_t* out_value) override {
    // The owning shard holds every stored key >= `key` up to its right
    // splitter; if it has none, the answer is the first key of the next
    // non-empty shard (shards partition the domain in key order).
    for (size_t s = index_->ShardOf(key); s < index_->num_shards(); ++s) {
      const bool found = index_->WithShardRead(s, [&](const Index& idx) {
        auto it = idx.LowerBoundIter(key);
        if (!it.valid()) return false;
        *out_key = it.key();
        *out_value = it.value();
        return true;
      });
      if (found) return true;
    }
    return false;
  }

  void Put(uint64_t key, uint64_t value) override {
    index_->Insert(key, value);
  }

  bool Del(uint64_t key) override { return index_->Erase(key); }

  std::string StatsJson() override {
    return obs::MetricsRegistry::Global().ToJson();
  }

 private:
  ShardedIndex<Index>* index_;
};

}  // namespace simdtree::net

#endif  // SIMDTREE_NET_BACKEND_H_
