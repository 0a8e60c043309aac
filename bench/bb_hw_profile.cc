// Hardware profile sweep (paper Figures 9-11): per-search instructions,
// LLC misses, branch mispredictions, and dTLB misses for every index
// structure, via perf_event_open (obs/perf_counters.h).
//
// The paper explains its cycle counts through exactly these hardware
// axes: SIMD reduces instructions per search (Figure 9), the linearized
// layouts trade LLC misses (Figure 10), and k-ary search eliminates the
// hard-to-predict branches of binary search (Figure 11). This bench
// reproduces those per-operation profiles on the live machine: each
// structure x size point runs the probe loop under the counter group
// and reports every event divided by the number of searches. The dTLB
// axis and the per-point `mem` JSON lines describe the node arenas
// (mem/arena.h): the hugepage-backed slabs each point reserves.
//
// Usage:
//   bb_hw_profile [--json] [--smoke]
//
// --smoke shrinks the sweep to one small size so CI can execute the
// binary in milliseconds; --json additionally emits the JSON lines of
// bench_util.h. On hosts where perf_event_open is denied (containers,
// perf_event_paranoid) every point still reports wall-clock cycles and
// emits {"..","hw":null} instead of the hardware metrics — the bench
// never fails for lack of PMU access.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/hw_section.h"
#include "btree/btree.h"
#include "mem/arena.h"
#include "segtree/segtree.h"
#include "segtrie/segtrie.h"
#include "util/rng.h"
#include "util/workload.h"

namespace simdtree {
namespace {

constexpr const char* kBench = "bb_hw_profile";

// Passes over the probe set inside the measured region: enough retired
// instructions to dominate the counter read overhead.
constexpr int kPasses = 8;

template <typename Key>
struct Workload {
  std::vector<Key> keys;
  std::vector<Key> values;
  std::vector<Key> probes;

  explicit Workload(size_t n) {
    Rng rng(2014);
    keys = UniformDistinctKeys<Key>(n, rng);
    values.assign(keys.begin(), keys.end());
    probes = SamplePresentProbes(keys, bench::kProbeCount, rng);
  }
};

// Measures `lookup(probe)` over kPasses x probes: wall-clock cycles per
// search plus the hardware profile, all emitted under `config`.
template <typename Key, typename Fn>
void ProfilePoint(const std::string& config, const Workload<Key>& w,
                  Fn&& lookup) {
  uint64_t checksum = 0;
  const double cycles = bench::CyclesPerOp(w.probes, lookup, &checksum);
  std::printf("%-24s %10.1f cycles/search  (checksum %016llx)\n",
              config.c_str(), cycles,
              static_cast<unsigned long long>(checksum));
  bench::EmitJson(kBench, config, "cycles_per_lookup", cycles);

  const double ops =
      static_cast<double>(w.probes.size()) * static_cast<double>(kPasses);
  uint64_t sink = 0;
  bench::HwSection(kBench, config, ops, [&] {
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const Key p : w.probes) {
        sink += static_cast<uint64_t>(lookup(p));
      }
    }
  });
  if (sink == 0xDEADBEEFDEADBEEFULL) std::fprintf(stderr, "\n");
}

template <typename Key>
void RunSweep(size_t n, const char* size_name, const char* suffix) {
  const Workload<Key> w(n);
  std::printf("-- %s keys: %zu (%zu-byte) --\n", size_name, n, sizeof(Key));

  {
    auto tree = btree::BPlusTree<Key, Key>::BulkLoad(
        w.keys.data(), w.values.data(), w.keys.size());
    const std::string config =
        std::string("btree_binary") + suffix + "/" + size_name;
    ProfilePoint(config, w, [&](Key p) { return tree.Contains(p); });
    bench::EmitMemJson(kBench, config, mem::IndexMemStats(tree));
  }
  {
    auto tree = segtree::SegTree<Key, Key, kary::Layout::kBreadthFirst>::
        BulkLoad(w.keys.data(), w.values.data(), w.keys.size());
    const std::string config =
        std::string("segtree_bf") + suffix + "/" + size_name;
    ProfilePoint(config, w, [&](Key p) { return tree.Contains(p); });
    bench::EmitMemJson(kBench, config, mem::IndexMemStats(tree));
  }
  {
    auto tree = segtree::SegTree<Key, Key, kary::Layout::kDepthFirst>::
        BulkLoad(w.keys.data(), w.values.data(), w.keys.size());
    const std::string config =
        std::string("segtree_df") + suffix + "/" + size_name;
    ProfilePoint(config, w, [&](Key p) { return tree.Contains(p); });
    bench::EmitMemJson(kBench, config, mem::IndexMemStats(tree));
  }
  {
    using Trie = segtrie::OptimizedSegTrie<Key, Key>;
    auto trie = std::make_unique<Trie>();
    for (size_t i = 0; i < w.keys.size(); ++i) {
      trie->Insert(w.keys[i], w.values[i]);
    }
    const std::string config =
        std::string("segtrie_opt") + suffix + "/" + size_name;
    ProfilePoint(config, w, [&](Key p) { return trie->Contains(p); });
    bench::EmitMemJson(kBench, config, mem::IndexMemStats(*trie));
  }
  std::printf("\n");
}

}  // namespace
}  // namespace simdtree

int main(int argc, char** argv) {
  simdtree::bench::ParseBenchArgs(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  simdtree::bench::PrintBenchHeader("bb_hw_profile: hardware counters per search");
  if (simdtree::obs::PerfCounterGroup::Available()) {
    std::printf("perf_event_open: available\n\n");
  } else {
    std::printf(
        "perf_event_open: unavailable (container/CI or "
        "SIMDTREE_DISABLE_PERF) — reporting hw:null\n\n");
  }

  if (smoke) {
    simdtree::RunSweep<uint64_t>(1u << 14, "16K", "");
  } else {
    // The paper's in-cache and out-of-cache regimes (Section 5.2): a
    // structure around the L2/L3 boundary and one far beyond the LLC.
    simdtree::RunSweep<uint64_t>(1u << 18, "256K", "");
    simdtree::RunSweep<uint64_t>(1u << 22, "4M", "");
    // 16M 4-byte keys: the arena-vs-heap LLC/dTLB comparison point (a
    // ~700 MB working set for the trees — far out of cache, where
    // hugepage-backed slabs pay off).
    simdtree::RunSweep<uint32_t>(1u << 24, "16M", "_u32");
  }
  return 0;
}
