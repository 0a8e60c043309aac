// Batched vs single-query point lookups across the index structures —
// the throughput case for the group software-pipelined FindBatch /
// UpperBoundBatch subsystem (src/btree/batch_descent.h,
// src/kary/batch_search.h, SegTrie::FindBatch).
//
// A single root-to-leaf descent serializes one cache miss per level; with
// the index out of LLC, the lookup is almost entirely memory stalls
// (paper Section 5.4). Batching G independent queries per level overlaps
// those misses in the line fill buffers, so throughput should rise with G
// until the fill buffers (10-16 on current x86) saturate. The sweep
// crosses structure x index size x pipeline group width and reports
// cycles per lookup and lookups per second against the single-query
// baseline of the same structure.
//
// The effect to look for: ~1x at cache-resident sizes (nothing to
// overlap), growing to well over 1.5x once the index leaves the LLC.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/batch.h"
#include "bench/hw_section.h"
#include "btree/btree.h"
#include "kary/kary_array.h"
#include "segtree/segtree.h"
#include "segtrie/segtrie.h"
#include "util/counters.h"
#include "util/cycle_timer.h"
#include "util/table_printer.h"
#include "util/workload.h"

namespace simdtree {
namespace {

using Key = uint32_t;
using Value = uint64_t;

constexpr size_t kProbes = 40000;  // 4x the paper's x, smoother at high G
constexpr int kGroups[] = {2, 4, 8, 12, 16};

// Total cycles of run() per probe, after one untimed warm-up pass.
template <typename Fn>
double CyclesPerLookup(size_t probes, Fn&& run) {
  uint64_t sink = run();
  const uint64_t start = CycleTimer::Now();
  sink += run();
  const uint64_t cycles = CycleTimer::Now() - start;
  if (sink == 0xDEADBEEFDEADBEEFULL) std::fprintf(stderr, "\n");
  return static_cast<double>(cycles) / static_cast<double>(probes);
}

double LookupsPerSec(double cycles_per_lookup) {
  return CycleTimer::CyclesPerSecond() / cycles_per_lookup;
}

struct Sweep {
  const char* structure;
  double base_cycles = 0.0;          // single-query
  double batch_cycles[5] = {0.0};    // per kGroups entry
};

void Report(TablePrinter* table, const std::string& size_name, size_t n,
            const Sweep& s) {
  std::vector<std::string> row = {s.structure, size_name,
                                  TablePrinter::Fmt(n),
                                  TablePrinter::Fmt(s.base_cycles, 0)};
  const std::string cfg_base =
      std::string(s.structure) + "/" + size_name;
  bench::EmitJson("bb_batch_lookup", cfg_base + "/single",
                  "cycles_per_lookup", s.base_cycles);
  bench::EmitJson("bb_batch_lookup", cfg_base + "/single",
                  "lookups_per_sec", LookupsPerSec(s.base_cycles));
  double best = 0.0;
  for (size_t gi = 0; gi < std::size(kGroups); ++gi) {
    const double c = s.batch_cycles[gi];
    row.push_back(TablePrinter::Fmt(c, 0));
    best = best == 0.0 || c < best ? c : best;
    const std::string cfg =
        cfg_base + "/g" + std::to_string(kGroups[gi]);
    bench::EmitJson("bb_batch_lookup", cfg, "cycles_per_lookup", c);
    bench::EmitJson("bb_batch_lookup", cfg, "lookups_per_sec",
                    LookupsPerSec(c));
  }
  row.push_back(TablePrinter::Fmt(s.base_cycles / best, 2));
  bench::EmitJson("bb_batch_lookup", cfg_base, "best_speedup",
                  s.base_cycles / best);
  table->AddRow(row);
  std::fflush(stdout);
}

Sweep MeasureKaryArray(const std::vector<Key>& keys,
                       const std::vector<Key>& probes) {
  kary::KaryArray<Key> arr(keys, kary::Layout::kBreadthFirst);
  Sweep s{"KaryArray-BF"};
  s.base_cycles = CyclesPerLookup(probes.size(), [&] {
    uint64_t sink = 0;
    for (Key p : probes) sink += static_cast<uint64_t>(arr.UpperBound(p));
    return sink;
  });
  std::vector<int64_t> out(probes.size());
  for (size_t gi = 0; gi < std::size(kGroups); ++gi) {
    const int group = kGroups[gi];
    s.batch_cycles[gi] = CyclesPerLookup(probes.size(), [&] {
      arr.UpperBoundBatch(probes.data(), probes.size(), out.data(), group);
      return static_cast<uint64_t>(out.back());
    });
  }
  return s;
}

template <typename TreeT>
Sweep MeasureTree(const char* name, const std::vector<Key>& keys,
                  const std::vector<Value>& values,
                  const std::vector<Key>& probes) {
  TreeT tree = TreeT::BulkLoad(keys.data(), values.data(), keys.size());
  Sweep s{name};
  s.base_cycles = CyclesPerLookup(probes.size(), [&] {
    uint64_t sink = 0;
    for (Key p : probes) {
      const auto v = tree.Find(p);
      sink += v ? *v : 0;
    }
    return sink;
  });
  std::vector<const Value*> out(probes.size());
  for (size_t gi = 0; gi < std::size(kGroups); ++gi) {
    const int group = kGroups[gi];
    s.batch_cycles[gi] = CyclesPerLookup(probes.size(), [&] {
      tree.FindBatch(probes.data(), probes.size(), out.data(), group);
      uint64_t sink = 0;
      for (const Value* p : out) sink += p != nullptr ? *p : 0;
      return sink;
    });
  }
  return s;
}

Sweep MeasureTrie(const std::vector<Key>& keys,
                  const std::vector<Key>& probes) {
  segtrie::OptimizedSegTrie<Key, Value> trie;
  for (size_t i = 0; i < keys.size(); ++i) {
    trie.Insert(keys[i], static_cast<Value>(i));
  }
  Sweep s{"OptSegTrie"};
  s.base_cycles = CyclesPerLookup(probes.size(), [&] {
    uint64_t sink = 0;
    for (Key p : probes) {
      const auto v = trie.Find(p);
      sink += v ? *v : 0;
    }
    return sink;
  });
  std::vector<const Value*> out(probes.size());
  for (size_t gi = 0; gi < std::size(kGroups); ++gi) {
    const int group = kGroups[gi];
    s.batch_cycles[gi] = CyclesPerLookup(probes.size(), [&] {
      trie.FindBatch(probes.data(), probes.size(), out.data(), group);
      uint64_t sink = 0;
      for (const Value* p : out) sink += p != nullptr ? *p : 0;
      return sink;
    });
  }
  return s;
}

// Hardware view of the batching effect: the pipelined descent executes
// (slightly) more instructions per lookup but overlaps its LLC misses,
// so misses per lookup stay flat while cycles drop — visible directly
// in the counter profile of the same probe stream, single vs g=12.
void HwPhase() {
  constexpr size_t kN = size_t{1} << 21;
  std::printf("hw profile (BPlusTree, 2M keys, single vs g=12):\n");
  Rng rng(2014);
  const std::vector<Key> keys = UniformDistinctKeys<Key>(kN, rng);
  const std::vector<Value> values(keys.size(), 1);
  const std::vector<Key> probes = SamplePresentProbes(keys, kProbes, rng);
  btree::BPlusTree<Key, Value> tree = btree::BPlusTree<Key, Value>::BulkLoad(
      keys.data(), values.data(), keys.size());

  const double ops = static_cast<double>(probes.size());
  uint64_t sink = 0;
  bench::HwSection("bb_batch_lookup", "hw/BPlusTree/2M/single", ops, [&] {
    for (Key p : probes) {
      const auto v = tree.Find(p);
      sink += v ? *v : 0;
    }
  });
  std::vector<const Value*> out(probes.size());
  bench::HwSection("bb_batch_lookup", "hw/BPlusTree/2M/g12", ops, [&] {
    tree.FindBatch(probes.data(), probes.size(), out.data(), 12);
    for (const Value* p : out) sink += p != nullptr ? *p : 0;
  });
  if (sink == 0xDEADBEEFDEADBEEFULL) std::fprintf(stderr, "\n");
  std::printf("\n");
}

// --- grouped (level-wise) descent vs pipelined A/B ------------------------
//
// The grouped engine (btree/batch_descent.h FindBatchGrouped) sorts the
// batch once and loads every visited node once, so its physical node
// loads per query drop as the batch grows while the pipelined path's
// stay equal to the tree height. Two probe distributions bound the
// effect: uniform-random probes only share the upper levels (the leaf
// frontier is as wide as the batch), while clustered probes — contiguous
// runs of adjacent stored keys, the probe side of a merge join or
// IN-list — share all the way down. The `auto` row is the
// UseGroupedDescent heuristic the concurrency wrappers apply per batch.

// `count` probes in contiguous runs of `run_len` adjacent stored keys,
// starting at random positions of the sorted key array.
std::vector<Key> ClusteredProbes(const std::vector<Key>& sorted_keys,
                                 size_t count, size_t run_len, Rng& rng) {
  std::vector<Key> probes;
  probes.reserve(count);
  while (probes.size() < count) {
    const size_t start = rng.NextBounded(sorted_keys.size());
    for (size_t j = 0; j < run_len && probes.size() < count; ++j) {
      probes.push_back(sorted_keys[(start + j) % sorted_keys.size()]);
    }
  }
  return probes;
}

template <typename TreeT>
void MeasureGrouped(TablePrinter* table, const char* name,
                    const TreeT& tree, const std::string& size_name,
                    const char* probe_kind, const std::vector<Key>& probes,
                    size_t batch) {
  const size_t np = probes.size();
  const std::string cfg = std::string("grouped/") + name + "/" + size_name +
                          "/" + probe_kind + "/b" + std::to_string(batch);
  std::vector<const Value*> out(np);
  auto fold = [&out] {
    uint64_t sink = 0;
    for (const Value* p : out) sink += p != nullptr ? *p : 0;
    return sink;
  };
  auto run_pipe = [&] {
    for (size_t off = 0; off < np; off += batch) {
      const size_t m = std::min(batch, np - off);
      tree.FindBatch(probes.data() + off, m, out.data() + off);
    }
    return fold();
  };
  auto run_grouped = [&] {
    for (size_t off = 0; off < np; off += batch) {
      const size_t m = std::min(batch, np - off);
      tree.FindBatchGrouped(probes.data() + off, m, out.data() + off);
    }
    return fold();
  };
  auto run_auto = [&] {
    for (size_t off = 0; off < np; off += batch) {
      const size_t m = std::min(batch, np - off);
      if (UseGroupedDescent(m, tree.height())) {
        tree.FindBatchGrouped(probes.data() + off, m, out.data() + off);
      } else {
        tree.FindBatch(probes.data() + off, m, out.data() + off);
      }
    }
    return fold();
  };
  // Interleaved min-of-rounds (as in bb_trace_overhead): one point's
  // three engines alternate within each round, so frequency drift and
  // container noise hit all of them instead of whichever ran last.
  constexpr int kRounds = 5;
  double pipe_cycles = 0.0, grouped_cycles = 0.0, auto_cycles = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    const double p = CyclesPerLookup(np, run_pipe);
    const double g = CyclesPerLookup(np, run_grouped);
    const double a = CyclesPerLookup(np, run_auto);
    pipe_cycles = round == 0 ? p : std::min(pipe_cycles, p);
    grouped_cycles = round == 0 ? g : std::min(grouped_cycles, g);
    auto_cycles = round == 0 ? a : std::min(auto_cycles, a);
  }
  // Logical visits vs physical loads, untimed: the pipelined path loads
  // one node per query per level (visits == loads); the grouped path's
  // loads are the per-batch distinct-node counts, and its prefetched
  // lines the cache lines it fetches ahead of its searches.
  SearchCounters pipe_c, grouped_c;
  for (size_t off = 0; off < np; off += batch) {
    const size_t m = std::min(batch, np - off);
    tree.FindBatch(probes.data() + off, m, out.data() + off,
                   kDefaultBatchGroup, &pipe_c);
    tree.FindBatchGrouped(probes.data() + off, m, out.data() + off,
                          &grouped_c);
  }
  const double pipe_visits =
      static_cast<double>(pipe_c.nodes_visited) / static_cast<double>(np);
  const double grouped_loads =
      static_cast<double>(grouped_c.nodes_loaded) / static_cast<double>(np);
  const double reduction =
      grouped_loads > 0.0 ? pipe_visits / grouped_loads : 0.0;
  const double grouped_lines = static_cast<double>(grouped_c.lines_prefetched) /
                               static_cast<double>(np);

  bench::EmitJson("bb_batch_lookup", cfg + "/pipelined", "lookups_per_sec",
                  LookupsPerSec(pipe_cycles));
  bench::EmitJson("bb_batch_lookup", cfg + "/pipelined",
                  "node_visits_per_query", pipe_visits);
  bench::EmitJson("bb_batch_lookup", cfg + "/grouped", "lookups_per_sec",
                  LookupsPerSec(grouped_cycles));
  bench::EmitJson("bb_batch_lookup", cfg + "/grouped",
                  "node_visits_per_query", grouped_loads);
  bench::EmitJson("bb_batch_lookup", cfg + "/grouped",
                  "lines_prefetched_per_query", grouped_lines);
  bench::EmitJson("bb_batch_lookup", cfg + "/auto", "lookups_per_sec",
                  LookupsPerSec(auto_cycles));
  bench::EmitJson("bb_batch_lookup", cfg, "visit_reduction", reduction);

  table->AddRow({name, size_name, probe_kind, TablePrinter::Fmt(batch),
                 TablePrinter::Fmt(pipe_cycles, 0),
                 TablePrinter::Fmt(grouped_cycles, 0),
                 TablePrinter::Fmt(auto_cycles, 0),
                 TablePrinter::Fmt(pipe_cycles / grouped_cycles, 2),
                 TablePrinter::Fmt(pipe_visits, 2),
                 TablePrinter::Fmt(grouped_loads, 2),
                 TablePrinter::Fmt(reduction, 2),
                 TablePrinter::Fmt(grouped_lines, 2)});
  std::fflush(stdout);
}

void GroupedPhase(bool smoke) {
  std::printf(
      "grouped (level-wise) descent vs pipelined, SegTree, avg cycles per "
      "lookup:\n");
  size_t n = smoke ? size_t{1} << 17 : size_t{1} << 24;
  if (const char* env = std::getenv("SIMDTREE_BATCH_MAX")) {
    n = std::strtoull(env, nullptr, 10);
  }
  const std::string size_name =
      n >= (size_t{1} << 20) ? std::to_string(n >> 20) + "M"
                             : std::to_string(n >> 10) + "K";
  std::vector<size_t> batches = smoke ? std::vector<size_t>{256, 1024}
                                      : std::vector<size_t>{64, 256, 1024,
                                                            4096};
  Rng rng(2014);
  const std::vector<Key> keys = UniformDistinctKeys<Key>(n, rng);
  const std::vector<Value> values(keys.size(), 1);
  const std::vector<Key> uniform = SamplePresentProbes(keys, kProbes, rng);
  const std::vector<Key> clustered = ClusteredProbes(keys, kProbes, 16, rng);

  TablePrinter table({"structure", "data", "probes", "batch", "pipelined",
                      "grouped", "auto", "speedup", "visits/q", "loads/q",
                      "reduction", "lines/q"});
  {
    // Paper node capacity: a shallow tree (height 3 at 16M keys).
    const auto tree = segtree::SegTree<Key, Value>::BulkLoad(
        keys.data(), values.data(), keys.size());
    for (size_t b : batches) {
      MeasureGrouped(&table, "SegTree-BF", tree, size_name, "uniform",
                     uniform, b);
      MeasureGrouped(&table, "SegTree-BF", tree, size_name, "clustered",
                     clustered, b);
    }
  }
  if (!smoke) {
    // Small fanout: a deep tree, where per-level sharing compounds.
    const auto deep = segtree::SegTree<Key, Value>::BulkLoad(
        keys.data(), values.data(), keys.size(), 1.0, 32);
    for (size_t b : batches) {
      MeasureGrouped(&table, "SegTree-BF-deep", deep, size_name, "uniform",
                     uniform, b);
      MeasureGrouped(&table, "SegTree-BF-deep", deep, size_name, "clustered",
                     clustered, b);
    }
  }
  table.Print();
  std::printf(
      "\nexpected shape: loads/q falls as the batch grows (each node "
      "loaded once per\nbatch) while the pipelined visits/q stays at the "
      "tree height; clustered probes\nshare every level, uniform probes "
      "only the upper ones. `auto` tracks the better\ncolumn via "
      "UseGroupedDescent.\n\n");
}

void Run(bool smoke) {
  bench::PrintBenchHeader(
      "Batched lookups: group software pipelining vs single-query descent, "
      "32-bit keys, avg cycles per lookup");

  GroupedPhase(smoke);

  // In-LLC / borderline / decisively out-of-LLC. The largest sweep is the
  // acceptance config (>= 16M keys); override with SIMDTREE_BATCH_MAX for
  // low-memory machines. --smoke drops to one small size so CI can
  // execute the JSON contract quickly.
  struct SizePoint {
    const char* name;
    size_t n;
  };
  std::vector<SizePoint> sizes = {
      {"128K", size_t{1} << 17},
      {"2M", size_t{1} << 21},
      {"16M", size_t{1} << 24},
  };
  if (smoke) {
    sizes = {{"128K", size_t{1} << 17}};
  } else if (const char* env = std::getenv("SIMDTREE_BATCH_MAX")) {
    sizes.back().n = std::strtoull(env, nullptr, 10);
  }

  std::vector<std::string> header = {"structure", "data", "keys", "single"};
  for (int g : kGroups) header.push_back("g=" + std::to_string(g));
  header.push_back("best speedup");
  TablePrinter table(header);

  for (const SizePoint& size : sizes) {
    Rng rng(2014);
    const std::vector<Key> keys = UniformDistinctKeys<Key>(size.n, rng);
    const std::vector<Value> values(keys.size(), 1);
    const std::vector<Key> probes = SamplePresentProbes(keys, kProbes, rng);

    Report(&table, size.name, size.n, MeasureKaryArray(keys, probes));
    Report(&table, size.name, size.n,
           MeasureTree<btree::BPlusTree<Key, Value>>("BPlusTree", keys,
                                                     values, probes));
    Report(&table, size.name, size.n,
           MeasureTree<segtree::SegTree<Key, Value>>("SegTree-BF", keys,
                                                     values, probes));
    Report(&table, size.name, size.n, MeasureTrie(keys, probes));
  }
  table.Print();
  std::printf(
      "\nexpected shape: ~1x at cache-resident sizes, rising once the index "
      "leaves the\nLLC; the sweet spot sits near the line-fill-buffer count "
      "(g ~ 8-16), where the\nper-level misses of a group overlap instead "
      "of serializing.\n");
}

}  // namespace
}  // namespace simdtree

int main(int argc, char** argv) {
  simdtree::bench::ParseBenchArgs(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (!smoke) simdtree::HwPhase();
  simdtree::Run(smoke);
  return 0;
}
