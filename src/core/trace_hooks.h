// Trace-dispatch helpers for the concurrency wrapper.
//
// ShardedIndex wraps *any* simdtree index, but only the trees and tries
// implement the traced descent entry points (FindTraced /
// FindBatchTraced). These helpers do the duck-typed dispatch once: route
// to the traced variant when the backend has one, otherwise fall back to
// the plain operation and stamp what the wrapper still knows (found
// flag, batched flag). The helpers live on the sampled cold path only —
// the wrapper gates them behind obs::TraceShouldSample().

#ifndef SIMDTREE_CORE_TRACE_HOOKS_H_
#define SIMDTREE_CORE_TRACE_HOOKS_H_

#include <cstddef>

#include "core/batch.h"
#include "obs/trace.h"

namespace simdtree::core {

// Single-key traced read. Returns what Index::Find would.
template <typename Index, typename Key>
auto TracedFindOne(const Index& index, Key key, obs::DescentTrace* t) {
  if constexpr (requires { index.FindTraced(key, t); }) {
    return index.FindTraced(key, t);
  } else {
    auto result = index.Find(key);
    t->found = result.has_value() ? 1 : 0;
    return result;
  }
}

// Traced batch chunk, attributed to the chunk's first key: the traced
// batch descent when the index has one; else the plain batch plus a
// traced re-descent of the first key; else just the plain batch.
template <typename Index, typename Key, typename Value>
void TracedFindChunk(const Index& index, const Key* keys, size_t m,
                     const Value** ptrs, obs::DescentTrace* t) {
  if constexpr (requires {
                  index.FindBatchTraced(keys, m, ptrs, kDefaultBatchGroup,
                                        nullptr, t);
                }) {
    index.FindBatchTraced(keys, m, ptrs, kDefaultBatchGroup, nullptr, t);
  } else if constexpr (requires { index.FindTraced(keys[0], t); }) {
    index.FindBatch(keys, m, ptrs);
    t->batched = 1;
    index.FindTraced(keys[0], t);
  } else {
    index.FindBatch(keys, m, ptrs);
    t->batched = 1;
  }
}

// Traced grouped batch, attributed to the batch's first key: the
// grouped traced descent when the index has one (the trees record one
// span per level with the per-level node-visit count and group size);
// else the plain grouped batch with what the wrapper still knows.
template <typename Index, typename Key, typename Value>
void TracedGroupedFindBatch(const Index& index, const Key* keys, size_t m,
                            const Value** ptrs, obs::DescentTrace* t) {
  if constexpr (requires {
                  index.FindBatchGroupedTraced(keys, m, ptrs, nullptr, t);
                }) {
    index.FindBatchGroupedTraced(keys, m, ptrs, nullptr, t);
  } else {
    index.FindBatchGrouped(keys, m, ptrs);
    t->batched = 1;
    if (m > 0) t->found = ptrs[0] != nullptr ? 1 : 0;
  }
}

}  // namespace simdtree::core

#endif  // SIMDTREE_CORE_TRACE_HOOKS_H_
