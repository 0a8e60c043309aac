// Batch key sort with original-index permutation — the front half of the
// grouped (level-wise) batch descent.
//
// The grouped descent sorts its batch by key: a tree's own batch, or one
// shard's share of a ShardedIndex batch (core/sharded.h gathers by shard
// only the shares large enough to group, and runs every other key in
// caller order across shards). Queries routed to the same node at every
// level then form one contiguous run, and the node is loaded and
// searched once per batch instead of once per query. This header is
// that sort: an LSD radix sort that produces the ascending keys plus the
// permutation mapping each sorted slot back to its caller position, so
// results scatter back in O(n). It histograms and scatters only the
// bytes on which the batch's keys differ: a clustered batch of 64-bit
// keys differs in its low three or four bytes, and a byte every key
// shares would only add a pass and a histogram row whose one busy
// counter serializes its increments.
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

// Counts, for each of the D sort digits (the key bytes at bit offsets
// shift[0, D)), how many keys hold each byte value, in one pass over the
// keys. D is a template argument so the digit loop unrolls; a batch
// whose keys differ in every byte takes the constant offsets 0, 8, ....
template <int D, typename T>
void Histogram(const T* keys, size_t n, const int* shift,
               uint32_t (*hist)[256]) {
  constexpr int kBytes = static_cast<int>(sizeof(T));
  int sh[D];
  for (int d = 0; d < D; ++d) sh[d] = D == kBytes ? 8 * d : shift[d];
  for (int d = 0; d < D; ++d) {
    for (int v = 0; v < 256; ++v) hist[d][v] = 0;
  }
  for (size_t i = 0; i < n; ++i) {
    const auto u = OrderedImage(keys[i]);
    for (int d = 0; d < D; ++d) ++hist[d][static_cast<uint8_t>(u >> sh[d])];
  }
}

// Histogram<digits>, dispatched from the runtime digit count.
template <int D, typename T>
void HistogramDigits(int digits, const T* keys, size_t n, const int* shift,
                     uint32_t (*hist)[256]) {
  if constexpr (D < static_cast<int>(sizeof(T))) {
    if (digits != D) {
      return HistogramDigits<D + 1>(digits, keys, n, shift, hist);
    }
  }
  Histogram<D>(keys, n, shift, hist);
}

}  // namespace batch_sort_internal

// Stable ascending sort of keys[0..n) into out->keys with the
// original-index permutation in out->perm. One pass copies the batch and
// ORs each key's XOR with the first, which marks the bytes on which some
// keys differ; then one histogram pass over those bytes and one
// counting-sort pass per such byte, least significant first. A batch of
// equal keys (or n < 2) is done after the copy.
template <typename T>
void SortBatchWithPermutation(const T* keys, size_t n, SortedBatch<T>* out) {
  static_assert(std::is_integral_v<T>, "radix batch sort needs integer keys");
  using batch_sort_internal::OrderedImage;
  using U = std::make_unsigned_t<T>;
  out->keys.resize(n);
  out->perm.resize(n);
  const U first = n > 0 ? static_cast<U>(keys[0]) : U{0};
  U diff = 0;
  for (size_t i = 0; i < n; ++i) {
    out->keys[i] = keys[i];
    out->perm[i] = static_cast<uint32_t>(i);
    diff |= static_cast<U>(static_cast<U>(keys[i]) ^ first);
  }
  if (diff == 0) return;
  out->tmp_keys.resize(n);
  out->tmp_perm.resize(n);

  constexpr int kBytes = static_cast<int>(sizeof(T));
  int shift[kBytes];
  int digits = 0;
  for (int b = 0; b < kBytes; ++b) {
    if (static_cast<uint8_t>(diff >> (b * 8)) != 0) shift[digits++] = b * 8;
  }
  uint32_t hist[kBytes][256];
  batch_sort_internal::HistogramDigits<1>(digits, keys, n, shift, hist);

  T* src_keys = out->keys.data();
  uint32_t* src_perm = out->perm.data();
  T* dst_keys = out->tmp_keys.data();
  uint32_t* dst_perm = out->tmp_perm.data();
  for (int d = 0; d < digits; ++d) {
    uint32_t offset[256];
    uint32_t sum = 0;
    for (int v = 0; v < 256; ++v) {
      offset[v] = sum;
      sum += hist[d][v];
    }
    for (size_t i = 0; i < n; ++i) {
      const uint8_t byte =
          static_cast<uint8_t>(OrderedImage(src_keys[i]) >> shift[d]);
      const uint32_t at = offset[byte]++;
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
