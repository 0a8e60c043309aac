// Batch key sort with original-index permutation — the front half of the
// grouped (level-wise) batch descent.
//
// The grouped descent sorts its batch by key: a tree's own batch, or one
// shard's share of a ShardedIndex batch (core/sharded.h gathers by shard
// only the shares large enough to group, and runs every other key in
// caller order across shards). Queries routed to the same node at every
// level then form one contiguous run, and the node is loaded and
// searched once per batch instead of once per query. This header is that sort: an LSD radix sort (one counting-sort
// pass per key byte, skipping bytes on which all keys agree) that
// produces the ascending keys plus the permutation mapping each sorted
// slot back to its caller position, so results scatter back in O(n).
//
// Contract (the "sort-permute-scatter" contract, DESIGN.md): after
// SortBatchWithPermutation(keys, n, &s), s.keys[j] is ascending,
// s.keys[j] == keys[s.perm[j]], and the sort is stable — equal keys keep
// their caller order, which keeps grouped results bit-identical to the
// pipelined path for duplicate probes.

#ifndef SIMDTREE_CORE_BATCH_SORT_H_
#define SIMDTREE_CORE_BATCH_SORT_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace simdtree {

// Reusable output + scratch of one batch sort; callers that run many
// batches (benches, wrappers) keep one instance alive to avoid
// reallocating per batch.
template <typename T>
struct SortedBatch {
  std::vector<T> keys;        // the batch, ascending
  std::vector<uint32_t> perm; // keys[j] == original[perm[j]]
  std::vector<T> tmp_keys;    // radix ping-pong scratch
  std::vector<uint32_t> tmp_perm;
};

namespace batch_sort_internal {

// Unsigned image preserving order: flip the sign bit of signed types.
template <typename T>
inline std::make_unsigned_t<T> OrderedImage(T v) {
  using U = std::make_unsigned_t<T>;
  U u = static_cast<U>(v);
  if constexpr (std::is_signed_v<T>) {
    u ^= static_cast<U>(U{1} << (sizeof(T) * 8 - 1));
  }
  return u;
}

}  // namespace batch_sort_internal

// Stable ascending sort of keys[0..n) into out->keys with the
// original-index permutation in out->perm. O(n) per key byte; passes on
// which every key agrees are skipped (common for the high bytes of
// small-domain batches), so nearly-clustered batches sort in one or two
// passes.
template <typename T>
void SortBatchWithPermutation(const T* keys, size_t n, SortedBatch<T>* out) {
  static_assert(std::is_integral_v<T>, "radix batch sort needs integer keys");
  using batch_sort_internal::OrderedImage;
  out->keys.resize(n);
  out->perm.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out->keys[i] = keys[i];
    out->perm[i] = static_cast<uint32_t>(i);
  }
  if (n < 2) return;
  out->tmp_keys.resize(n);
  out->tmp_perm.resize(n);

  constexpr int kBytes = static_cast<int>(sizeof(T));
  // One shared histogram pass over all byte positions.
  size_t hist[kBytes][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const auto u = OrderedImage(keys[i]);
    for (int b = 0; b < kBytes; ++b) {
      ++hist[b][static_cast<uint8_t>(u >> (b * 8))];
    }
  }

  T* src_keys = out->keys.data();
  uint32_t* src_perm = out->perm.data();
  T* dst_keys = out->tmp_keys.data();
  uint32_t* dst_perm = out->tmp_perm.data();
  for (int b = 0; b < kBytes; ++b) {
    // Skip the pass when one bucket holds everything.
    bool trivial = false;
    for (int v = 0; v < 256; ++v) {
      if (hist[b][v] == n) {
        trivial = true;
        break;
      }
      if (hist[b][v] != 0) break;  // first non-empty bucket is partial
    }
    if (trivial) continue;
    size_t offset[256];
    size_t sum = 0;
    for (int v = 0; v < 256; ++v) {
      offset[v] = sum;
      sum += hist[b][v];
    }
    for (size_t i = 0; i < n; ++i) {
      const uint8_t byte =
          static_cast<uint8_t>(OrderedImage(src_keys[i]) >> (b * 8));
      const size_t at = offset[byte]++;
      dst_keys[at] = src_keys[i];
      dst_perm[at] = src_perm[i];
    }
    std::swap(src_keys, dst_keys);
    std::swap(src_perm, dst_perm);
  }
  if (src_keys != out->keys.data()) {
    out->keys.swap(out->tmp_keys);
    out->perm.swap(out->tmp_perm);
  }
}

}  // namespace simdtree

#endif  // SIMDTREE_CORE_BATCH_SORT_H_
