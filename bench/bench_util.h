// Shared support for the paper-reproduction bench binaries.
//
// Measurement follows paper Section 5.1: build the structure with
// completely filled nodes, then search x = 10,000 keys drawn in random
// order from the data set and report the average cycles per search
// (RDTSC). A warm-up pass touches the probed paths before timing.

#ifndef SIMDTREE_BENCH_BENCH_UTIL_H_
#define SIMDTREE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "mem/arena.h"
#include "simd/cpu_features.h"
#include "simd/dispatch.h"
#include "util/cycle_timer.h"
#include "util/rng.h"

namespace simdtree::bench {

// --- machine-readable output ---------------------------------------------
//
// Every bench binary accepts --json: in addition to the human-readable
// table, each measured point is emitted as one JSON line
//
//   {"bench":"fig10_segtree","config":"bf/popcount/5MB","metric":"cycles_per_lookup","value":123.4}
//
// so sweeps can be collected with `./bench --json | grep '^{'` without
// scraping the tables.

inline bool& JsonEnabled() {
  static bool enabled = false;
  return enabled;
}

// Call at the top of main. Recognizes --json (enables the JSON lines) and
// leaves every other argument alone; returns true if --json was seen.
inline bool ParseBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) JsonEnabled() = true;
  }
  return JsonEnabled();
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// One-time machine-readable header, emitted before the first JSON data
// line of a --json run: the running CPU's full feature string
// (simd/cpu_features.h, including the AVX-512 subsets), whether the
// binary was built with the SIMDTREE_AVX2 backend, and the *runtime*
// dispatch decision (simd/dispatch.h) — backend name, its register
// width, whether SIMDTREE_FORCE_BACKEND pinned it, and which widths
// this binary carries native kernels for. Build flag and dispatch
// decision are deliberately separate fields: one binary produces
// different dispatch headers on different hosts (or under a force), and
// a collected sweep must say which kernels actually ran.
inline void EmitJsonHeader() {
  if (!JsonEnabled()) return;
  static bool emitted = false;
  if (emitted) return;
  emitted = true;
#if defined(SIMDTREE_AVX2)
  constexpr int kAvx2Build = 1;
#else
  constexpr int kAvx2Build = 0;
#endif
  const simd::DispatchDecision& d = simd::ActiveDispatch();
  std::printf(
      "{\"bench_header\":{\"cpu_features\":\"%s\",\"avx2_build\":%d,"
      "\"dispatch\":{\"backend\":\"%s\",\"register_bits\":%d,\"forced\":%d,"
      "\"native_128\":%d,\"native_256\":%d,\"native_512\":%d},"
      "\"tsc_ghz\":%.17g}}\n",
      JsonEscape(simd::CpuFeatureString()).c_str(), kAvx2Build,
      simd::DispatchLevelName(d.level), d.register_bits, d.forced ? 1 : 0,
      simd::NativeKernelsCompiled(128) ? 1 : 0,
      simd::NativeKernelsCompiled(256) ? 1 : 0,
      simd::NativeKernelsCompiled(512) ? 1 : 0,
      CycleTimer::CyclesPerSecond() / 1e9);
}

// One measurement point. No-op unless --json was passed.
inline void EmitJson(const std::string& bench, const std::string& config,
                     const std::string& metric, double value) {
  if (!JsonEnabled()) return;
  EmitJsonHeader();
  std::printf("{\"bench\":\"%s\",\"config\":\"%s\",\"metric\":\"%s\",\"value\":%.17g}\n",
              JsonEscape(bench).c_str(), JsonEscape(config).c_str(),
              JsonEscape(metric).c_str(), value);
}

// One arena-occupancy point (mem/arena.h) as a single JSON line with a
// `mem` object — the shape scripts/check_bench_json.py validates:
//
//   {"bench":"mem_footprint","config":"segtree/100MB",
//    "mem":{"arena_bytes":104857600,"utilization":0.93,"slab_count":50,
//           "live_blocks":12345,"free_list_blocks":0}}
//
// No-op unless --json.
inline void EmitMemJson(const std::string& bench, const std::string& config,
                        const mem::ArenaStats& s) {
  if (!JsonEnabled()) return;
  EmitJsonHeader();
  std::printf(
      "{\"bench\":\"%s\",\"config\":\"%s\",\"mem\":{"
      "\"arena_bytes\":%zu,\"utilization\":%.17g,\"slab_count\":%zu,"
      "\"live_blocks\":%zu,\"free_list_blocks\":%zu}}\n",
      JsonEscape(bench).c_str(), JsonEscape(config).c_str(),
      s.reserved_bytes, s.utilization(), s.slab_count, s.live_blocks,
      s.free_list_blocks);
}

inline constexpr size_t kProbeCount = 10000;  // the paper's x

// The paper's data-set size categories (Section 5.2): one node, ~5 MB,
// ~100 MB. Sizes here are byte budgets for the whole tree.
struct SizeCategory {
  const char* name;
  size_t bytes;  // 0 = single node
};

inline constexpr SizeCategory kSingle{"Single", 0};
inline constexpr SizeCategory k5MB{"5MB", 5u * 1000 * 1000};
inline constexpr SizeCategory k100MB{"100MB", 100u * 1000 * 1000};

// Average cycles for one call of `fn(probe)` over all probes, after one
// untimed warm-up pass. The accumulated return values are folded into a
// sink to keep the optimizer honest; the sink is returned via *checksum.
template <typename T, typename Fn>
double CyclesPerOp(const std::vector<T>& probes, Fn&& fn,
                   uint64_t* checksum = nullptr) {
  uint64_t sink = 0;
  for (const T& p : probes) sink += static_cast<uint64_t>(fn(p));
  const uint64_t start = CycleTimer::Now();
  for (const T& p : probes) sink += static_cast<uint64_t>(fn(p));
  const uint64_t cycles = CycleTimer::Now() - start;
  if (checksum != nullptr) *checksum = sink;
  // Defeat dead-code elimination without perturbing the timing.
  if (sink == 0xDEADBEEFDEADBEEFULL) std::fprintf(stderr, "\n");
  return static_cast<double>(cycles) / static_cast<double>(probes.size());
}

inline void PrintBenchHeader(const char* title) {
  std::printf("== %s ==\n", title);
  std::printf("cpu features: %s | tsc: %.2f GHz | probes per point: %zu\n\n",
              simd::CpuFeatureString().c_str(),
              CycleTimer::CyclesPerSecond() / 1e9, kProbeCount);
}

}  // namespace simdtree::bench

#endif  // SIMDTREE_BENCH_BENCH_UTIL_H_
