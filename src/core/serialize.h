// Serialization of index structures to a portable binary blob.
//
// Format (version 1, little-endian, fixed-width fields):
//
//   offset  size  field
//   0       4     magic "STIX"
//   4       4     format version (1)
//   8       4     key size in bytes
//   12      4     value size in bytes
//   16      8     pair count
//   24      8     node capacity (trees; 0 for tries)
//   32      8     reserved (0)
//   40      ...   keys[count], ascending
//   ...     ...   values[count], parallel to keys
//
// The blob stores the *logical content* (the sorted key/value sequence
// plus the structural configuration), not the physical node layout;
// loading rebuilds the structure with its bulk loader. This keeps the
// format independent of node layout changes, pointer widths, and padding
// policy — the property a production index wants from its export format.
// In particular the arena allocator (mem/arena.h) is invisible here:
// compressed 32-bit node references and slab placement never reach the
// blob, and LoadTree/LoadTrie bulk-load into the new instance's own
// fresh arena.
//
// Keys and values must be trivially copyable. The encoding is
// little-endian; on a big-endian host loading rejects the blob rather
// than mis-reading it.

#ifndef SIMDTREE_CORE_SERIALIZE_H_
#define SIMDTREE_CORE_SERIALIZE_H_

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "btree/btree.h"

namespace simdtree::io {

inline constexpr uint32_t kMagic = 0x58495453;  // "STIX"
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr size_t kHeaderBytes = 40;

struct BlobHeader {
  uint32_t magic = kMagic;
  uint32_t version = kFormatVersion;
  uint32_t key_bytes = 0;
  uint32_t value_bytes = 0;
  uint64_t count = 0;
  uint64_t capacity = 0;
  uint64_t reserved = 0;
};
static_assert(sizeof(BlobHeader) == kHeaderBytes);

inline constexpr bool kHostIsLittleEndian =
    std::endian::native == std::endian::little;

namespace internal {

template <typename T>
void AppendRaw(std::vector<uint8_t>* out, const T* data, size_t n) {
  // An empty source vector's data() may be null, and memcpy from null is
  // undefined even for zero bytes.
  if (n == 0) return;
  const size_t old = out->size();
  out->resize(old + n * sizeof(T));
  std::memcpy(out->data() + old, data, n * sizeof(T));
}

// Extracts the sorted pair sequence from any index: tries expose ForEach,
// trees expose chained-leaf iterators.
template <typename Index, typename Key, typename Value>
void ExtractPairs(const Index& index, std::vector<Key>* keys,
                  std::vector<Value>* values) {
  keys->reserve(index.size());
  values->reserve(index.size());
  if constexpr (requires {
                  index.ForEach([](Key, const Value&) {});
                }) {
    index.ForEach([&](Key k, const Value& v) {
      keys->push_back(k);
      values->push_back(v);
    });
  } else {
    for (auto it = index.begin(); it.valid(); ++it) {
      keys->push_back(it.key());
      values->push_back(it.value());
    }
  }
}

}  // namespace internal

// Serializes any simdtree index (B+-Tree, Seg-Tree, Seg-Trie) into a
// blob. `capacity` is recorded for tree rebuilds; pass 0 for tries.
template <typename Key, typename Value, typename Index>
std::vector<uint8_t> Serialize(const Index& index, uint64_t capacity = 0) {
  static_assert(std::is_trivially_copyable_v<Key> &&
                std::is_trivially_copyable_v<Value>);
  static_assert(kHostIsLittleEndian,
                "serialization is defined for little-endian hosts");
  std::vector<Key> keys;
  std::vector<Value> values;
  internal::ExtractPairs<Index, Key, Value>(index, &keys, &values);

  BlobHeader header;
  header.key_bytes = sizeof(Key);
  header.value_bytes = sizeof(Value);
  header.count = keys.size();
  header.capacity = capacity;

  std::vector<uint8_t> blob;
  blob.reserve(kHeaderBytes + keys.size() * (sizeof(Key) + sizeof(Value)));
  internal::AppendRaw(&blob, &header, 1);
  internal::AppendRaw(&blob, keys.data(), keys.size());
  internal::AppendRaw(&blob, values.data(), values.size());
  return blob;
}

// Parses and validates a blob header; returns nullopt on any mismatch.
template <typename Key, typename Value>
std::optional<BlobHeader> ParseHeader(const uint8_t* data, size_t size) {
  if (!kHostIsLittleEndian) return std::nullopt;
  if (data == nullptr || size < kHeaderBytes) return std::nullopt;
  BlobHeader header;
  std::memcpy(&header, data, kHeaderBytes);
  if (header.magic != kMagic || header.version != kFormatVersion) {
    return std::nullopt;
  }
  if (header.key_bytes != sizeof(Key) ||
      header.value_bytes != sizeof(Value)) {
    return std::nullopt;
  }
  // Overflow-safe payload check (a hostile count must not wrap).
  const uint64_t pair_bytes = sizeof(Key) + sizeof(Value);
  if (header.count > (size - kHeaderBytes) / pair_bytes) return std::nullopt;
  if (size != kHeaderBytes + header.count * pair_bytes) return std::nullopt;
  return header;
}

// Reconstructs the sorted pair arrays from a blob. Returns false on a
// malformed blob (bad header, truncated payload, or unsorted keys).
template <typename Key, typename Value>
bool DeserializePairs(const uint8_t* data, size_t size,
                      std::vector<Key>* keys, std::vector<Value>* values,
                      BlobHeader* header_out = nullptr) {
  const auto header = ParseHeader<Key, Value>(data, size);
  if (!header.has_value()) return false;
  const size_t n = static_cast<size_t>(header->count);
  keys->resize(n);
  values->resize(n);
  const uint8_t* p = data + kHeaderBytes;
  if (n > 0) {  // an empty vector's data() may be null (see AppendRaw)
    std::memcpy(keys->data(), p, n * sizeof(Key));
    std::memcpy(values->data(), p + n * sizeof(Key), n * sizeof(Value));
  }
  for (size_t i = 1; i < n; ++i) {
    if ((*keys)[i - 1] > (*keys)[i]) return false;
  }
  if (header_out != nullptr) *header_out = *header;
  return true;
}

// Rebuilds a tree type (BPlusTree / SegTree) from a blob. The stored
// capacity is used when nonzero, the type's default otherwise.
template <typename TreeT>
std::optional<TreeT> LoadTree(const uint8_t* data, size_t size) {
  using Key = typename TreeT::KeyType;
  using Value = typename TreeT::ValueType;
  std::vector<Key> keys;
  std::vector<Value> values;
  BlobHeader header;
  if (!DeserializePairs<Key, Value>(data, size, &keys, &values, &header)) {
    return std::nullopt;
  }
  const int64_t capacity =
      header.capacity != 0
          ? static_cast<int64_t>(header.capacity)
          : btree::PaperNodeCapacity(sizeof(Key));
  return TreeT::BulkLoad(keys.data(), values.data(), keys.size(), 1.0,
                         capacity);
}

// Rebuilds a Seg-Trie from a blob (pass lazy_expansion in `options` for
// the optimized variant). Rejects blobs with duplicate keys, which a trie
// cannot represent.
template <typename TrieT>
std::optional<TrieT> LoadTrie(const uint8_t* data, size_t size,
                              typename TrieT::Options options = {}) {
  using Key = typename TrieT::KeyType;
  using Value = typename TrieT::ValueType;
  std::vector<Key> keys;
  std::vector<Value> values;
  if (!DeserializePairs<Key, Value>(data, size, &keys, &values)) {
    return std::nullopt;
  }
  for (size_t i = 1; i < keys.size(); ++i) {
    if (keys[i - 1] == keys[i]) return std::nullopt;
  }
  return TrieT::BulkLoad(keys.data(), values.data(), keys.size(), options);
}

// --- file helpers -----------------------------------------------------------

inline bool WriteBlobToFile(const std::vector<uint8_t>& blob,
                            const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
  const bool ok = std::fclose(f) == 0 && written == blob.size();
  return ok;
}

inline std::optional<std::vector<uint8_t>> ReadBlobFromFile(
    const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  if (end < 0) {
    std::fclose(f);
    return std::nullopt;
  }
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> blob(static_cast<size_t>(end));
  const size_t read = std::fread(blob.data(), 1, blob.size(), f);
  std::fclose(f);
  if (read != blob.size()) return std::nullopt;
  return blob;
}

}  // namespace simdtree::io

#endif  // SIMDTREE_CORE_SERIALIZE_H_
