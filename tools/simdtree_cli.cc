// simdtree_cli — build, persist, inspect, and query indexes from the
// command line.
//
// Usage:
//   simdtree_cli build <keys.txt> <index.stix> [--structure=segtree|btree|segtrie|opttrie]
//       Builds an index from a text file (one "key[,value]" pair of
//       unsigned 64-bit integers per line; value defaults to the line
//       number) and writes it as a serialized blob.
//   simdtree_cli query <index.stix> <key> [key...]
//       Point lookups against a persisted index (loaded as a Seg-Tree).
//   simdtree_cli lookup-batch <index.stix> <keys.txt> [--group=N]
//       [--grouped] [--shards=N]
//       Batched point lookups with the group software-pipelined descent:
//       all keys from the file (one per line) are resolved with one
//       FindBatch call and printed as "key -> value" lines plus a
//       hit/miss summary. --group sets the pipeline width (default 12).
//       --grouped switches to the grouped (level-wise) descent instead:
//       the batch is sorted once and every visited tree node is loaded
//       once, the fast path for large batches (DESIGN.md "Batched
//       traversal"). --shards=N rebuilds the loaded index as a
//       range-partitioned ShardedIndex (splitters at the loaded keys'
//       quantiles) and runs the shard-aware FindBatch — one lock-free
//       read of the whole batch, taking shard locks only when it falls
//       back —
//       e.g.: simdtree_cli lookup-batch idx.stix probes.txt --shards=8
//   simdtree_cli scan <index.stix> <lo> <hi>
//       Range scan [lo, hi).
//   simdtree_cli stats <index.stix>
//       Blob header + rebuilt-structure statistics.
//   simdtree_cli profile <index.stix> <keys.txt> [--passes=N] [--json]
//       [--continuous] [--hz=N]
//       Profiles point lookups of all keys in the file against the
//       loaded index: per-lookup latency percentiles (lock-free
//       LogHistogram), hardware counters per lookup (perf_event_open;
//       reported as "hw": null when the syscall is denied), and the
//       instrumented wrapper's metrics registry. --json replaces the
//       human summary with one JSON document on stdout. --continuous
//       additionally arms the sampling profiler (obs/profiler.h,
//       perf_event_open CPU-clock at --hz, default 997) over the run
//       and prints the folded on-CPU stacks after the summary — the
//       offline twin of the /profilez endpoint; degrades to a comment
//       line when the PMU is denied.
//   simdtree_cli serve <index.stix> [--port=N] [--bind=ADDR]
//       [--trace-sample=N] [--slow-us=N] [--probes=keys.txt]
//       [--duration-s=N]
//       Loads the index and serves its observability surface over HTTP:
//       /metrics (OpenMetrics), /metrics.json, /tracez (recent + slow
//       query traces as JSON), /healthz. --bind widens the listen
//       address beyond the 127.0.0.1 default (e.g. --bind=0.0.0.0 for a
//       containerized Prometheus). Query tracing is sampled 1-in-N
//       (--trace-sample, default 64; 0 disables); --slow-us promotes
//       descents slower than N microseconds into the slow-query log.
//       With --probes, a foreground loop replays the keys against the
//       index so the endpoints have live data; with --duration-s the
//       process exits after N seconds (default: serve until killed).
//       --port=0 picks an ephemeral port (printed).
//   simdtree_cli serve-kv <index.stix> [--port=N] [--threads=N]
//       [--shards=N] [--bind=ADDR] [--stats-port=N] [--stats-bind=ADDR]
//       [--trace-sample=N] [--slow-us=N] [--duration-s=N]
//       [--request-sample=N] [--request-slow-us=N] [--profile-hz=N]
//       [--slo-window-s=N] [--slo-availability=F] [--slo-latency-ms=F]
//       [--slo-latency-target=F]
//       The end-to-end query service: loads the index, redistributes it
//       into a range-partitioned ShardedIndex (splitters at the stored
//       keys' quantiles, --shards, default 8), and serves the pipelined
//       binary KV protocol (net/protocol.h: GET / MGET / LOWER_BOUND /
//       PUT / DEL / STATS) with --threads epoll workers (default 2),
//       coalescing each connection's in-flight pipeline into grouped
//       FindBatch descents. The observability HTTP surface (/metrics,
//       /tracez, /requestz, /profilez, /slo, ...) runs alongside on
//       --stats-port (default 9100; --stats-port=-1 disables).
//       Request-level spans with tail sampling: --request-sample=N
//       keeps 1-in-N completed requests (0 disables, default 64) and
//       --request-slow-us promotes every request slower than N
//       microseconds regardless of the sample (default 10000); both
//       feed /requestz and histogram exemplars. --profile-hz=N arms
//       the continuous on-CPU profiler at N samples/s/thread (0
//       disables; /profilez shows the folded stacks). The /slo window
//       is shaped by --slo-window-s (default 60), --slo-availability
//       (default 0.999), --slo-latency-ms (default 5), and
//       --slo-latency-target (default 0.99). --port=0 picks an
//       ephemeral KV port (printed as "kv port: N"). SIGINT/SIGTERM
//       (or --duration-s) drains gracefully: /healthz flips to 503
//       "draining", in-flight pipelines finish and replies flush
//       before the sockets close. Drive it with bench/bb_serve.
//   simdtree_cli tracez <index.stix> <keys.txt> [--trace-sample=N]
//       [--slow-us=N] [--max=N]
//       Runs the keys against the index with tracing on (default: every
//       query) and dumps the flight recorder as one JSON document — the
//       offline twin of the /tracez endpoint.
//   simdtree_cli dispatch [--json]
//       Prints the runtime SIMD dispatch decision: detected CPU
//       features, the selected backend (after the
//       SIMDTREE_FORCE_BACKEND override, which this command validates
//       the same way every search does — an impossible force exits 2),
//       its register width, and which widths this binary carries native
//       kernels for. CI probes this before deciding which forced
//       backends a runner can exercise.
//   simdtree_cli selftest
//       Runs a quick build/query/scan round trip on synthetic data.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/serialize.h"
#include "core/simdtree.h"
#include "net/backend.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "obs/request_trace.h"
#include "obs/slo.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "simd/dispatch.h"
#include "util/rng.h"

namespace {

using simdtree::io::LoadTree;
using simdtree::io::ReadBlobFromFile;
using simdtree::io::Serialize;
using simdtree::io::WriteBlobToFile;
using Tree = simdtree::segtree::SegTree<uint64_t, uint64_t>;
using BTree = simdtree::btree::BPlusTree<uint64_t, uint64_t>;
using Trie = simdtree::segtrie::SegTrie<uint64_t, uint64_t>;

int Usage() {
  std::fprintf(stderr,
               "usage: simdtree_cli build <keys.txt> <index.stix> "
               "[--structure=segtree|btree|segtrie|opttrie]\n"
               "       simdtree_cli query <index.stix> <key> [key...]\n"
               "       simdtree_cli lookup-batch <index.stix> <keys.txt> "
               "[--group=N] [--grouped] [--shards=N]\n"
               "         (--grouped: level-wise grouped descent — sort the\n"
               "          batch once, load every visited node once)\n"
               "         (--shards=N: shard-aware batched lookup through a\n"
               "          range-partitioned ShardedIndex, e.g. --shards=8)\n"
               "       simdtree_cli scan <index.stix> <lo> <hi>\n"
               "       simdtree_cli stats <index.stix>\n"
               "       simdtree_cli profile <index.stix> <keys.txt> "
               "[--passes=N] [--json]\n"
               "         [--continuous] [--hz=N]\n"
               "         (--continuous: folded on-CPU stacks from the\n"
               "          sampling profiler, default 997 Hz)\n"
               "       simdtree_cli serve <index.stix> [--port=N] "
               "[--bind=ADDR] [--trace-sample=N]\n"
               "         [--slow-us=N] [--probes=keys.txt] [--duration-s=N]\n"
               "       simdtree_cli serve-kv <index.stix> [--port=N] "
               "[--threads=N] [--shards=N]\n"
               "         [--bind=ADDR] [--stats-port=N] [--stats-bind=ADDR]\n"
               "         [--trace-sample=N] [--slow-us=N] [--duration-s=N]\n"
               "         [--request-sample=N] [--request-slow-us=N] "
               "[--profile-hz=N]\n"
               "         [--slo-window-s=N] [--slo-availability=F]\n"
               "         [--slo-latency-ms=F] [--slo-latency-target=F]\n"
               "         (pipelined binary KV protocol over a sharded "
               "index;\n"
               "          --stats-port=-1 disables the HTTP /metrics "
               "surface;\n"
               "          --request-sample/--request-slow-us arm tail-"
               "sampled\n"
               "          request spans for /requestz + exemplars;\n"
               "          --profile-hz arms the continuous profiler for "
               "/profilez)\n"
               "       simdtree_cli tracez <index.stix> <keys.txt> "
               "[--trace-sample=N] [--slow-us=N] [--max=N]\n"
               "       simdtree_cli dispatch [--json]\n"
               "       simdtree_cli selftest\n");
  return 2;
}

// The trace flags: a sample rate is 32-bit, and a slow threshold in
// microseconds must fit in 64-bit nanoseconds. Out-of-range, negative or
// non-numeric values return false, and the command prints its usage.
bool ParseSampleRate(const char* text, uint64_t* rate) {
  return simdtree::obs::ParseTraceSetting(text, UINT32_MAX, rate);
}

bool ParseSlowUs(const char* text, uint64_t* ns) {
  uint64_t us = 0;
  if (!simdtree::obs::ParseTraceSetting(text, UINT64_MAX / 1000, &us)) {
    return false;
  }
  *ns = us * 1000;
  return true;
}

bool ReadPairsFile(const char* path, std::vector<uint64_t>* keys,
                   std::vector<uint64_t>* values) {
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return false;
  }
  char line[256];
  uint64_t line_no = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++line_no;
    char* end = nullptr;
    const uint64_t key = std::strtoull(line, &end, 0);
    if (end == line) continue;  // blank / comment line
    uint64_t value = line_no - 1;
    if (*end == ',') value = std::strtoull(end + 1, nullptr, 0);
    keys->push_back(key);
    values->push_back(value);
  }
  std::fclose(f);
  return true;
}

template <typename Index>
int BuildAndSave(std::vector<uint64_t> keys, std::vector<uint64_t> values,
                 const char* out_path, uint64_t capacity) {
  // Sort pairs by key (stable for duplicates) before bulk loading.
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return keys[a] < keys[b];
  });
  std::vector<uint64_t> sorted_keys(keys.size());
  std::vector<uint64_t> sorted_values(values.size());
  for (size_t i = 0; i < order.size(); ++i) {
    sorted_keys[i] = keys[order[i]];
    sorted_values[i] = values[order[i]];
  }

  Index index;
  for (size_t i = 0; i < sorted_keys.size(); ++i) {
    index.Insert(sorted_keys[i], sorted_values[i]);
  }
  const auto blob = Serialize<uint64_t, uint64_t>(index, capacity);
  if (!WriteBlobToFile(blob, out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("indexed %zu pairs (%zu stored), %.1f KB -> %s\n", keys.size(),
              index.size(), static_cast<double>(blob.size()) / 1024.0,
              out_path);
  return 0;
}

int CmdBuild(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::string structure = "segtree";
  for (int i = 4; i < argc; ++i) {
    if (std::strncmp(argv[i], "--structure=", 12) == 0) {
      structure = argv[i] + 12;
    }
  }
  std::vector<uint64_t> keys, values;
  if (!ReadPairsFile(argv[2], &keys, &values)) return 1;
  if (structure == "segtree") {
    return BuildAndSave<Tree>(std::move(keys), std::move(values), argv[3],
                              simdtree::btree::PaperNodeCapacity(8));
  }
  if (structure == "btree") {
    return BuildAndSave<BTree>(std::move(keys), std::move(values), argv[3],
                               simdtree::btree::PaperNodeCapacity(8));
  }
  if (structure == "segtrie" || structure == "opttrie") {
    // Tries deduplicate; last value per key wins, like repeated Insert.
    Trie::Options opts{.lazy_expansion = structure == "opttrie"};
    Trie trie(opts);
    for (size_t i = 0; i < keys.size(); ++i) trie.Insert(keys[i], values[i]);
    const auto blob = Serialize<uint64_t, uint64_t>(trie, 0);
    if (!WriteBlobToFile(blob, argv[3])) return 1;
    std::printf("indexed %zu pairs (%zu distinct), %d/%d levels -> %s\n",
                keys.size(), trie.size(), trie.active_levels(),
                Trie::max_levels(), argv[3]);
    return 0;
  }
  return Usage();
}

std::optional<Tree> LoadIndex(const char* path) {
  const auto blob = ReadBlobFromFile(path);
  if (!blob.has_value()) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return std::nullopt;
  }
  auto tree = LoadTree<Tree>(blob->data(), blob->size());
  if (!tree.has_value()) {
    std::fprintf(stderr, "malformed index blob %s\n", path);
  }
  return tree;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto tree = LoadIndex(argv[2]);
  if (!tree.has_value()) return 1;
  for (int i = 3; i < argc; ++i) {
    const uint64_t key = std::strtoull(argv[i], nullptr, 0);
    if (auto v = tree->Find(key)) {
      std::printf("%llu -> %llu\n", static_cast<unsigned long long>(key),
                  static_cast<unsigned long long>(*v));
    } else {
      std::printf("%llu -> (absent)\n", static_cast<unsigned long long>(key));
    }
  }
  return 0;
}

int CmdLookupBatch(int argc, char** argv) {
  if (argc < 4) return Usage();
  int group = simdtree::kDefaultBatchGroup;
  int shards = 0;
  bool grouped = false;
  for (int i = 4; i < argc; ++i) {
    if (std::strncmp(argv[i], "--group=", 8) == 0) {
      group = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atoi(argv[i] + 9);
    } else if (std::strcmp(argv[i], "--grouped") == 0) {
      grouped = true;
    }
  }
  auto tree = LoadIndex(argv[2]);
  if (!tree.has_value()) return 1;
  std::vector<uint64_t> keys, unused;
  if (!ReadPairsFile(argv[3], &keys, &unused)) return 1;
  size_t hits = 0;
  if (shards > 0) {
    // Redistribute the loaded pairs into a range-partitioned
    // ShardedIndex (splitters at the stored keys' quantiles) and
    // resolve the batch with the shard-aware FindBatch.
    std::vector<uint64_t> stored_keys;
    stored_keys.reserve(tree->size());
    tree->ScanRange(0, ~0ULL,
                    [&stored_keys](uint64_t k, const uint64_t&) {
                      stored_keys.push_back(k);
                    },
                    /*hi_inclusive=*/true);
    simdtree::ShardedIndex<Tree> sharded(
        static_cast<size_t>(shards),
        simdtree::ShardedIndex<Tree>::SplittersFromSample(
            stored_keys.data(), stored_keys.size(),
            static_cast<size_t>(shards)));
    tree->ScanRange(0, ~0ULL,
                    [&sharded](uint64_t k, const uint64_t& v) {
                      sharded.Insert(k, v);
                    },
                    /*hi_inclusive=*/true);
    std::vector<std::optional<uint64_t>> results(keys.size());
    sharded.FindBatch(keys.data(), keys.size(), results.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (results[i].has_value()) {
        ++hits;
        std::printf("%llu -> %llu\n",
                    static_cast<unsigned long long>(keys[i]),
                    static_cast<unsigned long long>(*results[i]));
      } else {
        std::printf("%llu -> (absent)\n",
                    static_cast<unsigned long long>(keys[i]));
      }
    }
    std::printf("(%zu keys, %zu hits, %zu misses, group %d, %zu shards)\n",
                keys.size(), hits, keys.size() - hits, group,
                sharded.num_shards());
    return 0;
  }
  std::vector<const uint64_t*> results(keys.size());
  if (grouped) {
    // Grouped (level-wise) descent: the batch is sorted once and each
    // visited node is loaded once (btree/batch_descent.h).
    tree->FindBatchGrouped(keys.data(), keys.size(), results.data());
  } else {
    tree->FindBatch(keys.data(), keys.size(), results.data(), group);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    if (results[i] != nullptr) {
      ++hits;
      std::printf("%llu -> %llu\n",
                  static_cast<unsigned long long>(keys[i]),
                  static_cast<unsigned long long>(*results[i]));
    } else {
      std::printf("%llu -> (absent)\n",
                  static_cast<unsigned long long>(keys[i]));
    }
  }
  const std::string mode =
      grouped ? "grouped descent" : "group " + std::to_string(group);
  std::printf("(%zu keys, %zu hits, %zu misses, %s)\n", keys.size(),
              hits, keys.size() - hits, mode.c_str());
  return 0;
}

int CmdScan(int argc, char** argv) {
  if (argc != 5) return Usage();
  auto tree = LoadIndex(argv[2]);
  if (!tree.has_value()) return 1;
  const uint64_t lo = std::strtoull(argv[3], nullptr, 0);
  const uint64_t hi = std::strtoull(argv[4], nullptr, 0);
  size_t count = 0;
  tree->ScanRange(lo, hi, [&count](uint64_t k, const uint64_t& v) {
    std::printf("%llu -> %llu\n", static_cast<unsigned long long>(k),
                static_cast<unsigned long long>(v));
    ++count;
  });
  std::printf("(%zu pairs in [%llu, %llu))\n", count,
              static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi));
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc != 3) return Usage();
  const auto blob = ReadBlobFromFile(argv[2]);
  if (!blob.has_value()) return 1;
  const auto header = simdtree::io::ParseHeader<uint64_t, uint64_t>(
      blob->data(), blob->size());
  if (!header.has_value()) {
    std::fprintf(stderr, "malformed header\n");
    return 1;
  }
  std::printf("blob: %zu bytes, %llu pairs, key/value %u/%u bytes, "
              "capacity %llu\n",
              blob->size(), static_cast<unsigned long long>(header->count),
              header->key_bytes, header->value_bytes,
              static_cast<unsigned long long>(header->capacity));
  auto tree = LoadTree<Tree>(blob->data(), blob->size());
  if (!tree.has_value()) return 1;
  const auto stats = tree->Stats();
  std::printf("rebuilt Seg-Tree: height %d, %zu inner + %zu leaf nodes, "
              "%.1f KB, avg leaf fill %.0f%%\n",
              stats.height, stats.inner_nodes, stats.leaf_nodes,
              static_cast<double>(stats.memory_bytes) / 1024.0,
              stats.avg_leaf_fill * 100.0);
  return 0;
}

// Profiles the workload in argv[3] against the index in argv[2]: every
// lookup is timed into an obs::LogHistogram, the whole run is measured
// under an obs::PerfCounterGroup, and the index runs through the
// instrumented one-shard ShardedIndex so its registry metrics populate
// too.
int CmdProfile(int argc, char** argv) {
  if (argc < 4) return Usage();
  int passes = 3;
  bool json = false;
  bool continuous = false;
  int hz = 997;  // prime frequency, avoids lockstep with periodic work
  for (int i = 4; i < argc; ++i) {
    if (std::strncmp(argv[i], "--passes=", 9) == 0) {
      passes = std::atoi(argv[i] + 9);
      if (passes < 1) passes = 1;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--continuous") == 0) {
      continuous = true;
    } else if (std::strncmp(argv[i], "--hz=", 5) == 0) {
      hz = std::atoi(argv[i] + 5);
      if (hz < 1) hz = 1;
    }
  }
  auto tree = LoadIndex(argv[2]);
  if (!tree.has_value()) return 1;
  std::vector<uint64_t> probes, unused;
  if (!ReadPairsFile(argv[3], &probes, &unused)) return 1;
  if (probes.empty()) {
    std::fprintf(stderr, "no probe keys in %s\n", argv[3]);
    return 1;
  }

  simdtree::ShardedIndex<Tree> index(std::move(*tree));
  index.EnableMetrics("cli.profile");

  simdtree::obs::LogHistogram latency;
  const bool hw_available = simdtree::obs::PerfCounterGroup::Available();
  simdtree::obs::PerfCounterGroup group;  // degrades to no-ops when denied
  size_t hits = 0;

  auto& profiler = simdtree::obs::ContinuousProfiler::Global();
  if (continuous) {
    // Arm the sampling profiler over the measurement loop; a denied
    // PMU degrades to a comment line in the folded output, not a
    // failure.
    if (profiler.Start(hz)) profiler.RegisterCurrentThread();
  }

  group.Start();
  for (int pass = 0; pass < passes; ++pass) {
    for (const uint64_t key : probes) {
      const uint64_t start = simdtree::CycleTimer::Now();
      const auto v = index.Find(key);
      latency.Record(
          static_cast<uint64_t>(simdtree::CycleTimer::ToNanoseconds(
              simdtree::CycleTimer::Now() - start)));
      if (pass == 0 && v.has_value()) ++hits;
    }
  }
  const simdtree::obs::HwCounts hw = group.Stop();
  const double ops = static_cast<double>(probes.size()) *
                     static_cast<double>(passes);

  // Folded on-CPU stacks, drained after the loop so the whole run is
  // covered. Printed after the summary (or the JSON document — the
  // document stays line 1; folded lines never start with '{').
  std::string folded;
  if (continuous) {
    folded = profiler.Collect();
    const auto pstats = profiler.stats();
    profiler.Stop();
    std::fprintf(stderr, "continuous profile: %llu samples at %d Hz "
                 "(%llu lost, %llu threads)\n",
                 static_cast<unsigned long long>(pstats.samples), hz,
                 static_cast<unsigned long long>(pstats.lost),
                 static_cast<unsigned long long>(pstats.threads));
  }

  if (json) {
    std::printf("{\"index\":\"%s\",\"probes\":%zu,\"passes\":%d,"
                "\"hits\":%zu,",
                argv[2], probes.size(), passes, hits);
    std::printf("\"latency_ns\":{\"count\":%llu,\"mean\":%.17g,"
                "\"p50\":%llu,\"p95\":%llu,\"p99\":%llu,\"p999\":%llu,"
                "\"max\":%llu},",
                static_cast<unsigned long long>(latency.Count()),
                latency.Mean(),
                static_cast<unsigned long long>(latency.Percentile(0.50)),
                static_cast<unsigned long long>(latency.Percentile(0.95)),
                static_cast<unsigned long long>(latency.Percentile(0.99)),
                static_cast<unsigned long long>(latency.Percentile(0.999)),
                static_cast<unsigned long long>(latency.Max()));
    if (hw.valid) {
      std::printf("\"hw\":{\"instructions_per_op\":%.17g,"
                  "\"cycles_per_op\":%.17g,\"ipc\":%.17g,"
                  "\"llc_misses_per_op\":%.17g,"
                  "\"branch_misses_per_op\":%.17g,\"scale\":%.17g},",
                  hw.instructions / ops, hw.cycles / ops, hw.ipc(),
                  hw.llc_misses / ops, hw.branch_misses / ops, hw.scale);
    } else {
      std::printf("\"hw\":null,");
    }
    std::printf("\"registry\":%s}\n",
                simdtree::obs::MetricsRegistry::Global().ToJson().c_str());
    if (continuous) std::printf("%s", folded.c_str());
    return 0;
  }

  std::printf("profiled %zu probes x %d passes against %s "
              "(%zu hits, %zu misses)\n",
              probes.size(), passes, argv[2], hits, probes.size() - hits);
  std::printf("latency: p50 %llu ns  p95 %llu ns  p99 %llu ns  "
              "p99.9 %llu ns  mean %.0f ns  max %llu ns\n",
              static_cast<unsigned long long>(latency.Percentile(0.50)),
              static_cast<unsigned long long>(latency.Percentile(0.95)),
              static_cast<unsigned long long>(latency.Percentile(0.99)),
              static_cast<unsigned long long>(latency.Percentile(0.999)),
              latency.Mean(),
              static_cast<unsigned long long>(latency.Max()));
  if (hw.valid) {
    std::printf("hw: %.1f instr/op  %.1f cycles/op  IPC %.2f  "
                "%.3f LLC-miss/op  %.3f br-miss/op  (scale %.2f)\n",
                hw.instructions / ops, hw.cycles / ops, hw.ipc(),
                hw.llc_misses / ops, hw.branch_misses / ops, hw.scale);
  } else if (hw_available) {
    std::printf("hw: counter read failed\n");
  } else {
    std::printf("hw: unavailable (perf_event_open denied or "
                "SIMDTREE_DISABLE_PERF set)\n");
  }
  if (continuous) std::printf("%s", folded.c_str());
  return 0;
}

// Serves /metrics, /metrics.json, /tracez, and /healthz for a loaded
// index, optionally replaying a probe workload in the foreground so the
// endpoints show live traffic.
int CmdServe(int argc, char** argv) {
  if (argc < 3) return Usage();
  long port = 9100;
  uint64_t sample = 64;
  std::optional<uint64_t> slow_ns;
  long duration_s = 0;
  std::string bind_addr = "127.0.0.1";
  const char* probes_path = nullptr;
  for (int i = 3; i < argc; ++i) {
    if (std::strncmp(argv[i], "--port=", 7) == 0) {
      port = std::atol(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--bind=", 7) == 0) {
      bind_addr = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) {
      if (!ParseSampleRate(argv[i] + 15, &sample)) return Usage();
    } else if (std::strncmp(argv[i], "--slow-us=", 10) == 0) {
      if (!ParseSlowUs(argv[i] + 10, &slow_ns.emplace())) return Usage();
    } else if (std::strncmp(argv[i], "--probes=", 9) == 0) {
      probes_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--duration-s=", 13) == 0) {
      duration_s = std::atol(argv[i] + 13);
    } else {
      return Usage();
    }
  }
  if (port < 0 || port > 65535) return Usage();
  auto tree = LoadIndex(argv[2]);
  if (!tree.has_value()) return 1;
  std::vector<uint64_t> probes, unused;
  if (probes_path != nullptr && !ReadPairsFile(probes_path, &probes, &unused))
    return 1;

  simdtree::ShardedIndex<Tree> index(std::move(*tree));
  index.EnableMetrics("cli.serve");
  simdtree::obs::EnableTracing(static_cast<uint32_t>(sample));
  if (slow_ns) simdtree::obs::Tracer::Global().SetSlowThresholdNs(*slow_ns);

  simdtree::obs::StatsServer server;
  if (!server.Start(static_cast<uint16_t>(port), bind_addr)) {
    std::fprintf(stderr, "cannot start stats server: %s\n",
                 server.error().c_str());
    return 1;
  }
  std::printf("serving %s on http://%s:%u "
              "(/metrics /metrics.json /tracez /healthz), "
              "trace sample 1-in-%llu, %zu probe keys\n",
              argv[2], bind_addr.c_str(), server.port(),
              static_cast<unsigned long long>(sample), probes.size());
  std::fflush(stdout);

  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::seconds(duration_s);
  size_t lookups = 0;
  while (duration_s == 0 || std::chrono::steady_clock::now() < until) {
    if (!probes.empty()) {
      index.Find(probes[lookups % probes.size()]);
      ++lookups;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  server.Stop();
  std::printf("served %ld s, %zu probe lookups, %llu traces recorded "
              "(%llu slow)\n",
              duration_s, lookups,
              static_cast<unsigned long long>(
                  simdtree::obs::Tracer::Global().recorded()),
              static_cast<unsigned long long>(
                  simdtree::obs::Tracer::Global().slow_recorded()));
  return 0;
}

std::atomic<bool> g_serve_kv_stop{false};

void ServeKvSignalHandler(int /*signum*/) {
  g_serve_kv_stop.store(true, std::memory_order_relaxed);
}

// The end-to-end query service: the loaded index redistributed into a
// range-partitioned ShardedIndex, served over the pipelined binary KV
// protocol (net/server.h), with the observability HTTP surface running
// alongside. SIGINT/SIGTERM (or --duration-s) drains gracefully.
int CmdServeKv(int argc, char** argv) {
  if (argc < 3) return Usage();
  long port = 0;
  long threads = 2;
  long shards = 8;
  long stats_port = 9100;
  uint64_t sample = 64;
  std::optional<uint64_t> slow_ns;
  long duration_s = 0;
  uint64_t request_sample = 64;
  uint64_t request_slow_ns = 10'000'000;
  long profile_hz = 0;
  double slo_window_s = 60.0;
  double slo_availability = 0.999;
  double slo_latency_ms = 5.0;
  double slo_latency_target = 0.99;
  std::string bind_addr = "127.0.0.1";
  std::string stats_bind = "127.0.0.1";
  for (int i = 3; i < argc; ++i) {
    if (std::strncmp(argv[i], "--port=", 7) == 0) {
      port = std::atol(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atol(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atol(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--bind=", 7) == 0) {
      bind_addr = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--stats-port=", 13) == 0) {
      stats_port = std::atol(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--stats-bind=", 13) == 0) {
      stats_bind = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) {
      if (!ParseSampleRate(argv[i] + 15, &sample)) return Usage();
    } else if (std::strncmp(argv[i], "--slow-us=", 10) == 0) {
      if (!ParseSlowUs(argv[i] + 10, &slow_ns.emplace())) return Usage();
    } else if (std::strncmp(argv[i], "--duration-s=", 13) == 0) {
      duration_s = std::atol(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--request-sample=", 17) == 0) {
      if (!ParseSampleRate(argv[i] + 17, &request_sample)) return Usage();
    } else if (std::strncmp(argv[i], "--request-slow-us=", 18) == 0) {
      if (!ParseSlowUs(argv[i] + 18, &request_slow_ns)) return Usage();
    } else if (std::strncmp(argv[i], "--profile-hz=", 13) == 0) {
      profile_hz = std::atol(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--slo-window-s=", 15) == 0) {
      slo_window_s = std::atof(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--slo-availability=", 19) == 0) {
      slo_availability = std::atof(argv[i] + 19);
    } else if (std::strncmp(argv[i], "--slo-latency-ms=", 17) == 0) {
      slo_latency_ms = std::atof(argv[i] + 17);
    } else if (std::strncmp(argv[i], "--slo-latency-target=", 21) == 0) {
      slo_latency_target = std::atof(argv[i] + 21);
    } else {
      return Usage();
    }
  }
  if (port < 0 || port > 65535 || threads < 1 || shards < 1 ||
      stats_port > 65535 || profile_hz < 0 || slo_window_s <= 0) {
    return Usage();
  }
  auto tree = LoadIndex(argv[2]);
  if (!tree.has_value()) return 1;

  // Redistribute into a ShardedIndex with splitters at the stored keys'
  // quantiles, the same idiom as lookup-batch --shards.
  std::vector<uint64_t> stored_keys;
  stored_keys.reserve(tree->size());
  tree->ScanRange(0, ~0ULL,
                  [&stored_keys](uint64_t k, const uint64_t&) {
                    stored_keys.push_back(k);
                  },
                  /*hi_inclusive=*/true);
  simdtree::ShardedIndex<Tree> sharded(
      static_cast<size_t>(shards),
      simdtree::ShardedIndex<Tree>::SplittersFromSample(
          stored_keys.data(), stored_keys.size(),
          static_cast<size_t>(shards)));
  tree->ScanRange(0, ~0ULL,
                  [&sharded](uint64_t k, const uint64_t& v) {
                    sharded.Insert(k, v);
                  },
                  /*hi_inclusive=*/true);
  sharded.EnableMetrics("kv.index");

  simdtree::obs::EnableTracing(static_cast<uint32_t>(sample));
  if (slow_ns) simdtree::obs::Tracer::Global().SetSlowThresholdNs(*slow_ns);

  simdtree::net::ShardedKvBackend<Tree> backend(&sharded);
  simdtree::net::KvServer server(&backend);
  simdtree::net::KvServerOptions opts;
  opts.port = static_cast<uint16_t>(port);
  opts.bind_addr = bind_addr;
  opts.num_workers = static_cast<int>(threads);
  opts.request_sample = static_cast<uint32_t>(request_sample);
  opts.request_slow_ns = request_slow_ns;
  if (!server.Start(opts)) {
    std::fprintf(stderr, "cannot start kv server: %s\n",
                 server.error().c_str());
    return 1;
  }

  // The /slo window over the net.* serving metrics; scrapes of /slo
  // drive the ticks (no background thread needed for a CLI server).
  simdtree::obs::SloConfig slo_config;
  slo_config.availability_target = slo_availability;
  slo_config.latency_threshold_ns =
      static_cast<uint64_t>(slo_latency_ms * 1e6);
  slo_config.latency_target = slo_latency_target;
  slo_config.window_s = slo_window_s;
  simdtree::obs::SloMonitor::Global().Configure(slo_config);

  if (profile_hz > 0) {
    auto& profiler = simdtree::obs::ContinuousProfiler::Global();
    if (profiler.Start(static_cast<int>(profile_hz))) {
      // Workers self-register on their next epoll iteration.
      std::printf("continuous profiler armed at %ld Hz (/profilez)\n",
                  profile_hz);
    } else {
      std::fprintf(stderr, "continuous profiler unavailable: %s\n",
                   profiler.error().c_str());
    }
  }

  simdtree::obs::StatsServer stats;
  if (stats_port >= 0) {
    if (!stats.Start(static_cast<uint16_t>(stats_port), stats_bind)) {
      std::fprintf(stderr, "cannot start stats server: %s\n",
                   stats.error().c_str());
      server.Stop();
      return 1;
    }
  }

  std::printf("kv port: %u\n", server.port());
  std::printf("serving %s (%zu keys, %zu shards) on %s:%u with %ld "
              "worker threads",
              argv[2], stored_keys.size(), sharded.num_shards(),
              bind_addr.c_str(), server.port(), threads);
  if (stats_port >= 0) {
    std::printf("; metrics on http://%s:%u/metrics", stats_bind.c_str(),
                stats.port());
  }
  std::printf("\n");
  std::fflush(stdout);

  std::signal(SIGINT, ServeKvSignalHandler);
  std::signal(SIGTERM, ServeKvSignalHandler);
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::seconds(duration_s);
  while (!g_serve_kv_stop.load(std::memory_order_relaxed) &&
         (duration_s == 0 || std::chrono::steady_clock::now() < until)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  server.Stop();  // graceful drain: pipelines finish, replies flush
  stats.Stop();
  simdtree::obs::ContinuousProfiler::Global().Stop();
  auto& reg = simdtree::obs::MetricsRegistry::Global();
  auto& tracer = simdtree::obs::RequestTracer::Global();
  std::printf("drained: %llu connections accepted, %llu requests "
              "served, %llu request traces retained (%llu slow)\n",
              static_cast<unsigned long long>(
                  reg.GetCounter("net.accepted")->Get()),
              static_cast<unsigned long long>(
                  reg.GetCounter("net.requests")->Get()),
              static_cast<unsigned long long>(tracer.retained()),
              static_cast<unsigned long long>(tracer.slow_retained()));
  return 0;
}

// Offline twin of the /tracez endpoint: replay a key file with tracing
// on and dump the flight recorder as JSON.
int CmdTracez(int argc, char** argv) {
  if (argc < 4) return Usage();
  uint64_t sample = 1;
  std::optional<uint64_t> slow_ns;
  long max_traces = 32;
  for (int i = 4; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) {
      if (!ParseSampleRate(argv[i] + 15, &sample)) return Usage();
    } else if (std::strncmp(argv[i], "--slow-us=", 10) == 0) {
      if (!ParseSlowUs(argv[i] + 10, &slow_ns.emplace())) return Usage();
    } else if (std::strncmp(argv[i], "--max=", 6) == 0) {
      max_traces = std::atol(argv[i] + 6);
    } else {
      return Usage();
    }
  }
  if (sample < 1 || max_traces < 0) return Usage();
  auto tree = LoadIndex(argv[2]);
  if (!tree.has_value()) return 1;
  std::vector<uint64_t> probes, unused;
  if (!ReadPairsFile(argv[3], &probes, &unused)) return 1;

  simdtree::ShardedIndex<Tree> index(std::move(*tree));
  simdtree::obs::Tracer::Global().Reset();
  simdtree::obs::EnableTracing(static_cast<uint32_t>(sample));
  if (slow_ns) simdtree::obs::Tracer::Global().SetSlowThresholdNs(*slow_ns);
  for (const uint64_t key : probes) index.Find(key);
  // Rendered while tracing is still on, so "sample_rate" is the rate
  // that recorded these traces.
  const std::string json = simdtree::obs::RenderTracezJson(
      simdtree::obs::Tracer::Global(), static_cast<size_t>(max_traces));
  simdtree::obs::EnableTracing(0);
  std::printf("%s\n", json.c_str());
  return 0;
}

int CmdDispatch(int argc, char** argv) {
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  namespace simd = simdtree::simd;
  // ActiveDispatch() itself validates SIMDTREE_FORCE_BACKEND and exits 2
  // on an impossible override, so this command doubles as the probe.
  const simd::DispatchDecision& d = simd::ActiveDispatch();
  if (json) {
    std::printf(
        "{\"cpu_features\":\"%s\",\"backend\":\"%s\",\"register_bits\":%d,"
        "\"forced\":%s,\"native_128\":%s,\"native_256\":%s,"
        "\"native_512\":%s}\n",
        simd::CpuFeatureString().c_str(), simd::DispatchLevelName(d.level),
        d.register_bits, d.forced ? "true" : "false",
        simd::NativeKernelsCompiled(128) ? "true" : "false",
        simd::NativeKernelsCompiled(256) ? "true" : "false",
        simd::NativeKernelsCompiled(512) ? "true" : "false");
  } else {
    std::printf("cpu features:   %s\n", simd::CpuFeatureString().c_str());
    std::printf("backend:        %s%s\n", simd::DispatchLevelName(d.level),
                d.forced ? " (forced via SIMDTREE_FORCE_BACKEND)" : "");
    std::printf("register bits:  %d\n", d.register_bits);
    std::printf("native kernels: 128=%s 256=%s 512=%s\n",
                simd::NativeKernelsCompiled(128) ? "yes" : "no",
                simd::NativeKernelsCompiled(256) ? "yes" : "no",
                simd::NativeKernelsCompiled(512) ? "yes" : "no");
    std::printf("effective:      128-bit=%s 256-bit=%s 512-bit=%s\n",
                simd::EffectiveBackendName(128),
                simd::EffectiveBackendName(256),
                simd::EffectiveBackendName(512));
  }
  return 0;
}

int CmdSelfTest() {
  simdtree::Rng rng(1);
  Tree tree;
  for (int i = 0; i < 100000; ++i) {
    tree.Insert(rng.NextBounded(1u << 20), static_cast<uint64_t>(i));
  }
  const auto blob = Serialize<uint64_t, uint64_t>(tree, 242);
  auto loaded = LoadTree<Tree>(blob.data(), blob.size());
  if (!loaded.has_value() || !loaded->Validate() ||
      loaded->size() != tree.size()) {
    std::fprintf(stderr, "selftest FAILED\n");
    return 1;
  }
  size_t scanned = 0;
  loaded->ScanRange(0, 1u << 20,
                    [&scanned](uint64_t, const uint64_t&) { ++scanned; });
  if (scanned != loaded->size()) {
    std::fprintf(stderr, "selftest FAILED (scan %zu != %zu)\n", scanned,
                 loaded->size());
    return 1;
  }
  std::printf("selftest OK (%zu pairs, %zu-byte blob, cpu: %s)\n",
              tree.size(), blob.size(),
              simdtree::simd::CpuFeatureString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "build") return CmdBuild(argc, argv);
  if (cmd == "query") return CmdQuery(argc, argv);
  if (cmd == "lookup-batch") return CmdLookupBatch(argc, argv);
  if (cmd == "scan") return CmdScan(argc, argv);
  if (cmd == "stats") return CmdStats(argc, argv);
  if (cmd == "profile") return CmdProfile(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  if (cmd == "serve-kv") return CmdServeKv(argc, argv);
  if (cmd == "tracez") return CmdTracez(argc, argv);
  if (cmd == "dispatch") return CmdDispatch(argc, argv);
  if (cmd == "selftest") return CmdSelfTest();
  return Usage();
}
