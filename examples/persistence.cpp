// Scenario: persist an index across process restarts.
//
//   build/examples/persistence [path]
//
// First run: builds a Seg-Tree from synthetic order data, saves it as a
// binary blob. Subsequent runs: load the blob, verify integrity, serve a
// few queries through the thread-safe wrapper, append today's orders, and
// save back — the lifecycle of an embedded index file.

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/simdtree.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace simdtree;
  using Tree = segtree::SegTree<uint64_t, uint64_t>;
  const std::string path = argc > 1 ? argv[1] : "/tmp/orders.stix";

  Tree tree;
  uint64_t next_order_id = 1;

  if (auto blob = io::ReadBlobFromFile(path)) {
    auto loaded = io::LoadTree<Tree>(blob->data(), blob->size());
    if (!loaded.has_value()) {
      std::fprintf(stderr, "%s exists but is not a valid index blob\n",
                   path.c_str());
      return 1;
    }
    tree = std::move(*loaded);
    if (!tree.Validate()) {
      std::fprintf(stderr, "loaded index failed validation\n");
      return 1;
    }
    // Continue numbering after the largest stored order id.
    for (auto it = tree.begin(); it.valid(); ++it) {
      next_order_id = it.key() + 1;
    }
    std::printf("loaded %zu orders from %s (next id %llu)\n", tree.size(),
                path.c_str(),
                static_cast<unsigned long long>(next_order_id));
  } else {
    std::printf("no existing index at %s — starting fresh\n", path.c_str());
  }

  // Serve concurrent-safe reads while appending today's batch.
  ShardedIndex<Tree> index(std::move(tree));
  Rng rng(next_order_id);
  constexpr int kBatch = 50000;
  for (int i = 0; i < kBatch; ++i) {
    const uint64_t amount_cents = 100 + rng.NextBounded(100000);
    index.Insert(next_order_id++, amount_cents);
  }
  std::printf("appended %d orders; index now holds %zu\n", kBatch,
              index.size());

  // A few point queries and a revenue aggregate over the newest 1000.
  const uint64_t probe = next_order_id - 500;
  if (auto v = index.Find(probe)) {
    std::printf("order %llu -> %llu cents\n",
                static_cast<unsigned long long>(probe),
                static_cast<unsigned long long>(*v));
  }
  uint64_t revenue = 0;
  index.ScanRange(next_order_id - 1000, next_order_id,
                  [&revenue](uint64_t, const uint64_t& cents) {
                    revenue += cents;
                  });
  std::printf("revenue of newest 1000 orders: %.2f\n",
              static_cast<double>(revenue) / 100.0);

  // Persist for the next run.
  const auto blob = index.WithShardRead(0, [](const Tree& t) {
    return io::Serialize<uint64_t, uint64_t>(t,
                                             btree::PaperNodeCapacity(8));
  });
  if (!io::WriteBlobToFile(blob, path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("saved %zu orders (%.1f MB) to %s — run again to append\n",
              index.size(), static_cast<double>(blob.size()) / 1e6,
              path.c_str());
  return 0;
}
