// bb_ladder: the repository's end-to-end benchmark and layer-cost ladder.
//
// One binary, three workloads, each built through public APIs and driven
// from this process by at most four threads plus connections:
//
//   kv-mix-d32       16M keys behind a self-hosted KvServer; 2
//                    connections, each sending closed-loop bursts of 32:
//                    85% GET, 5% MGET(8), 5% LOWER_BOUND, 5% PUT/DEL.
//                    Syscalls amortize 32x, so the coalesced
//                    ShardedIndex::FindBatch takes about half of each
//                    burst and the network path most of the rest.
//   embed-batch-16m  16M keys, 8 shards, in-process; 3 threads calling
//                    ShardedIndex::FindBatch on 4096 keys in runs of 16
//                    adjacent stored keys, 1 writer paced open-loop at
//                    20K writes/s. The only workload whose per-shard
//                    sub-batches clear UseGroupedDescent.
//   embed-rw-64k     64K keys (cache-resident), 1 shard; 3 threads doing
//                    uniform Find, 1 unthrottled writer: the paper's
//                    compute-bound regime, with writers on the hot nodes.
//
// Data: keys 2, 4, ..., 2N preloaded in ascending order through
// ShardedIndex::Insert with SplittersFromSample, value = key * 10. Reads
// probe only even keys, which are never written, so every answer must be
// key * 10. Writers insert uniformly drawn odd keys (value key * 10) and
// keep a FIFO of their last 1024 inserts, erasing the oldest once it is
// full, so the live set stays N + 1024 per writer. --seed derives every
// thread's and connection's stream.
//
// The serving workload self-hosts KvServer with serve-kv's defaults (2
// workers, 8 shards, EnableMetrics("kv.index"), descent sampling 1-in-64,
// request sampling 1-in-64, 10 ms slow threshold); embedded workloads use
// library defaults. Every loop is closed (callers wait for replies)
// except the paced writer.
//
// Placement is fixed, not left to chance: each load thread is pinned to
// its own CPU, the clients reconnect until each worker serves one
// connection (SO_REUSEPORT would otherwise stack both on one worker in
// half of all runs, a different server), and each worker is pinned to
// the CPU of the client it serves. A request and its reply then hand
// off on one CPU instead of waking another, idle one: on a virtual
// machine that wake-up was half of a lone GET's round trip and varied
// from run to run.
//
// Measurement: set-up (index build plus server start) is repeated and its
// median reported; then a warm-up, then the measured window, cut into
// 0.5 s slices. Throughputs and latency percentiles are computed per
// slice and the median over slices is reported, so a short burst of
// interference on the host moves a few slices, not the result. Latencies
// are TSC cycles converted to ns. Every answer is checked; a wrong answer
// or a failed validity check prints the reason and exits 3.
//
// --trace=FILE adds the per-layer view. The window alternates untraced
// and traced slices (trace_overhead_pct compares their read throughput).
// In traced slices the bench wraps each layer's public entry point in a
// span: client bursts and requests, the server's backend calls (through a
// bench-owned KvBackend forwarding to ShardedKvBackend), and embedded
// index calls. After the window, with writers stopped, the ladder
// replays the workload's own probe stream down L0 (one KaryArray node),
// L1 (tree Find), L2 (pipelined FindBatch), L3 (grouped FindBatchGrouped)
// and L4 (ShardedIndex), timing each rung. Spans are written to FILE as
// JSON lines at exit.
//
// Output: a human table per workload and, with --json, one line per
// metric in the repo's bench format,
//   {"bench":"bb_ladder","config":"<workload>","metric":"<m>","value":v}
// which scripts/compare_bench_json.py diffs.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include "btree/btree.h"
#include "core/batch.h"
#include "core/sharded.h"
#include "kary/kary_array.h"
#include "net/backend.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "segtree/segtree.h"
#include "util/cycle_timer.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using Tree = segtree::SegTree<uint64_t, uint64_t>;
using Index = ShardedIndex<Tree>;

constexpr size_t kChurnFifo = 1024;     // live odd keys per writer
constexpr size_t kMgetKeys = 8;
constexpr size_t kRunLength = 16;       // adjacent stored keys per run
constexpr size_t kSampleEvery = 16;     // latency sampling of tight loops
constexpr double kSliceSeconds = 0.5;
constexpr double kPacedWritesPerSec = 20000.0;
constexpr int kReplyTimeoutMs = 5000;
constexpr uint64_t kKeepOneIn = 64;     // full spans kept per bursts/ops
constexpr size_t kMaxKeptSpans = 1 << 14;  // per thread, bounds the file
constexpr int kExitInvalid = 3;
constexpr int kServerWorkers = 2;       // serve-kv's default

// --- workloads ---------------------------------------------------------------

enum class Kind { kKvMixD32, kEmbedBatch, kEmbedRw };

struct Workload {
  const char* name;
  Kind kind;
  size_t keys;      // N at full size (--smoke uses kSmokeKeys)
  size_t shards;
  int clients;      // connections (serving) or reader threads (embedded)
  size_t batch;     // nominal read batch: burst depth, FindBatch size, 1
  int setup_reps;   // set-ups timed per run; setup_s is their median
};

constexpr size_t k16M = size_t{1} << 24;
constexpr size_t k64K = size_t{1} << 16;
constexpr size_t kSmokeKeys = k64K;

constexpr Workload kWorkloads[] = {
    {"kv-mix-d32", Kind::kKvMixD32, k16M, 8, 2, 32, 3},
    {"embed-batch-16m", Kind::kEmbedBatch, k16M, 8, 3, 4096, 3},
    {"embed-rw-64k", Kind::kEmbedRw, k64K, 1, 3, 1, 100},
};

bool Serving(const Workload& w) { return w.kind == Kind::kKvMixD32; }

struct Options {
  uint64_t seed = 1;
  double seconds = 20.0;  // measured window
  double warmup = 3.0;    // load before the window (0.25 s under --smoke)
  bool smoke = false;
  bool json = false;
  std::string trace_path;  // empty: untraced run
  size_t ladder_probes = size_t{1} << 20;
  int ladder_rounds = 5;
  std::vector<const Workload*> workloads;
};

// Stream seeds: one independent xoshiro stream per (workload, role).
uint64_t StreamSeed(uint64_t seed, const Workload& w, uint64_t stream) {
  uint64_t h = seed * 0x9E3779B97F4A7C15ULL;
  for (const char* p = w.name; *p != '\0'; ++p) {
    h = (h ^ static_cast<uint8_t>(*p)) * 0x100000001B3ULL;
  }
  return h ^ ((stream + 1) * 0xBF58476D1CE4E5B9ULL);
}

uint64_t EvenKey(Rng& rng, size_t n) { return 2 * (1 + rng.NextBounded(n)); }
uint64_t OddKey(Rng& rng, size_t n) { return 2 * rng.NextBounded(n) + 1; }

// One writer's odd-key churn: fresh inserts until kChurnFifo are live,
// then alternating erase-oldest / insert.
class Churn {
 public:
  struct Op {
    bool insert;
    uint64_t key;
  };
  Op Next(Rng& rng, size_t n) {
    if (live_.size() >= kChurnFifo) {
      const uint64_t key = live_.front();
      live_.pop_front();
      return {false, key};
    }
    const uint64_t key = OddKey(rng, n);
    live_.push_back(key);
    return {true, key};
  }

 private:
  std::deque<uint64_t> live_;
};

enum class OpKind : uint8_t { kGet, kMget, kLowerBound, kPut, kDel };

struct KvOp {
  OpKind kind = OpKind::kGet;
  uint64_t key = 0;
  uint64_t mget[kMgetKeys] = {};
};

// One connection's request stream (also replayed by the ladder).
class KvOpStream {
 public:
  KvOpStream(uint64_t seed, size_t n) : rng_(seed), n_(n) {}

  void Next(KvOp* op) {
    const double r = rng_.NextDouble();
    if (r < 0.85) {
      op->kind = OpKind::kGet;
      op->key = EvenKey(rng_, n_);
    } else if (r < 0.90) {
      op->kind = OpKind::kMget;
      for (uint64_t& k : op->mget) k = EvenKey(rng_, n_);
    } else if (r < 0.95) {
      op->kind = OpKind::kLowerBound;
      op->key = OddKey(rng_, n_);
    } else {
      const Churn::Op w = churn_.Next(rng_, n_);
      op->kind = w.insert ? OpKind::kPut : OpKind::kDel;
      op->key = w.key;
    }
  }

 private:
  Rng rng_;
  size_t n_;
  Churn churn_;
};

// 4096 keys in runs of kRunLength adjacent stored (even) keys.
void FillClusteredBatch(Rng& rng, size_t n, uint64_t* keys, size_t count) {
  for (size_t i = 0; i < count; i += kRunLength) {
    const uint64_t first = 2 * (1 + rng.NextBounded(n - kRunLength + 1));
    for (size_t j = 0; j < kRunLength && i + j < count; ++j) {
      keys[i + j] = first + 2 * j;
    }
  }
}

// The read keys a workload's first reader issues, in order: what the
// ladder replays.
std::vector<uint64_t> ProbeStream(const Workload& w, uint64_t seed, size_t n,
                                  size_t count) {
  std::vector<uint64_t> probes;
  probes.reserve(count + kMgetKeys);
  const uint64_t s = StreamSeed(seed, w, 0);
  if (Serving(w)) {
    KvOpStream ops(s, n);
    KvOp op;
    while (probes.size() < count) {
      ops.Next(&op);
      if (op.kind == OpKind::kGet) probes.push_back(op.key);
      if (op.kind == OpKind::kMget) {
        probes.insert(probes.end(), op.mget, op.mget + kMgetKeys);
      }
    }
  } else {
    Rng rng(s);
    if (w.kind == Kind::kEmbedBatch) {
      probes.resize(count);
      FillClusteredBatch(rng, n, probes.data(), count);
    } else {
      while (probes.size() < count) probes.push_back(EvenKey(rng, n));
    }
  }
  probes.resize(count);
  return probes;
}

// --- timing ------------------------------------------------------------------

double CyclesPerSec() { return CycleTimer::CyclesPerSecond(); }

double CyclesToNs(double cycles) { return cycles / CyclesPerSec() * 1e9; }

uint32_t SaturateCycles(uint64_t c) {
  return c > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(c);
}

// The measured window on the TSC clock: [begin, end), cut into slices.
struct Window {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t slice = 1;
  size_t slices = 0;

  // Slice holding time t, or -1 outside the window (warm-up, overrun).
  int64_t SliceOf(uint64_t t) const {
    if (t < begin || t >= end) return -1;
    return static_cast<int64_t>((t - begin) / slice);
  }
};

// Completions of one role in one slice: operations (keys for reads) and
// the times of the first and last completion, so a rate is measured over
// the completions themselves rather than read off the slice grid.
struct SliceCount {
  uint64_t ops = 0;
  uint64_t first_ops = 0;  // carried by the first completion
  uint64_t first = 0;
  uint64_t last = 0;
};

// One role's samples, by slice: completion counts and latency samples
// (cycles).
struct Series {
  std::vector<SliceCount> count;
  std::vector<std::vector<uint32_t>> lat;

  explicit Series(size_t slices = 0) : count(slices), lat(slices) {}

  // n operations completed at time t (calls arrive in time order).
  void Count(int64_t slice, uint64_t n, uint64_t t) {
    if (slice < 0) return;
    SliceCount& c = count[static_cast<size_t>(slice)];
    if (c.ops == 0) {
      c.first = t;
      c.first_ops = n;
    }
    c.ops += n;
    c.last = t;
  }
  void Sample(int64_t slice, uint64_t cycles) {
    if (slice >= 0) lat[static_cast<size_t>(slice)].push_back(
        SaturateCycles(cycles));
  }
};

// Everything one load thread measured. Owned by the thread until join.
struct ThreadStats {
  Series reads, writes;
  uint64_t attempted = 0;  // operations finished or failed in the window
  uint64_t failed = 0;     // non-OK status, transport error or timeout
  uint64_t wrong = 0;      // oracle violations, anywhere in the run
  std::string why_wrong;
  std::string why_failed;

  explicit ThreadStats(size_t slices) : reads(slices), writes(slices) {}

  void Wrong(const std::string& why) {
    if (wrong++ == 0) why_wrong = why;
  }
  // Counted wherever it happens: a failure in warm-up still fails the run.
  void Failed(uint64_t n, const std::string& why) {
    attempted += n;
    failed += n;
    if (why_failed.empty()) why_failed = why;
  }
};

// --- placement -----------------------------------------------------------------
//
// Load threads are pinned one per CPU, so every run places the same work
// on the same cores instead of leaving it to the scheduler. Each server
// worker is pinned to the CPU of the one client it serves.

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void PinSelfTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Pins the calling thread to cpus[i] (wrapping). No-op when unknown.
void PinSelf(const std::vector<int>& cpus, size_t i) {
  if (!cpus.empty()) PinSelfTo(cpus[i % cpus.size()]);
}

// --- spans -------------------------------------------------------------------

enum SpanName : uint8_t {
  kSpanBurst,
  kSpanRequest,
  kSpanBackendFindBatch,
  kSpanBackendLowerBound,
  kSpanBackendPut,
  kSpanBackendDel,
  kSpanIndexFind,
  kSpanIndexFindBatch,
  kSpanIndexInsert,
  kSpanIndexErase,
  kSpanLadderL0,
  kSpanLadderL1,
  kSpanLadderL2,
  kSpanLadderL3,
  kSpanLadderL4,
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "burst",         "request",          "backend.find_batch",
    "backend.lower_bound", "backend.put", "backend.del",
    "index.find",    "index.find_batch", "index.insert",
    "index.erase",   "ladder.l0",        "ladder.l1",
    "ladder.l2",     "ladder.l3",        "ladder.l4",
};

struct Span {
  uint64_t trace = 0;   // burst / op id shared by a span tree
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: root
  uint64_t start = 0;   // TSC cycles
  uint64_t end = 0;
  uint8_t name = 0;
  uint16_t thread = 0;
};

// Per-thread span sink: a duration histogram (cycles) per span name for
// every span, plus the full spans of the 1-in-kKeepOneIn kept trees, up to
// kMaxKeptSpans.
struct SpanRecorder {
  uint16_t thread = 0;
  uint64_t next_id = 1;
  std::array<obs::LogHistogram, kNumSpanNames> duration;
  std::vector<Span> kept;

  uint64_t NewId() { return (static_cast<uint64_t>(thread) << 40) | next_id++; }
  bool Room(size_t spans) const { return kept.size() + spans <= kMaxKeptSpans; }
};

class Tracer {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool v) { on_.store(v, std::memory_order_relaxed); }

  // The calling thread's recorder (created on first use). The cache is
  // keyed by a process-unique generation, not the Tracer's address, which
  // a later Tracer may reuse.
  SpanRecorder& Local() {
    thread_local SpanRecorder* rec = nullptr;
    thread_local uint64_t rec_generation = 0;
    if (rec == nullptr || rec_generation != generation_) {
      std::lock_guard lock(mu_);
      recorders_.push_back(std::make_unique<SpanRecorder>());
      rec = recorders_.back().get();
      rec->thread = static_cast<uint16_t>(recorders_.size());
      rec_generation = generation_;
    }
    return *rec;
  }

  // Records one span's duration, and the span itself when `keep`.
  void Record(SpanName name, uint64_t trace, uint64_t parent, uint64_t start,
              uint64_t end, bool keep) {
    SpanRecorder& rec = Local();
    rec.duration[name].Record(end - start);
    if (!keep || !rec.Room(1)) return;
    Span s;
    s.trace = trace;
    s.id = rec.NewId();
    s.parent = parent;
    s.start = start;
    s.end = end;
    s.name = name;
    s.thread = rec.thread;
    rec.kept.push_back(s);
  }

  // Merges and clears every recorder. Call only once the threads that
  // recorded have been joined.
  void Harvest(std::vector<Span>* spans,
               std::array<obs::LogHistogram, kNumSpanNames>* hist) {
    std::lock_guard lock(mu_);
    for (auto& rec : recorders_) {
      spans->insert(spans->end(), rec->kept.begin(), rec->kept.end());
      for (size_t i = 0; i < kNumSpanNames; ++i) {
        (*hist)[i].Merge(rec->duration[i]);
      }
    }
    recorders_.clear();
    generation_ = NextGeneration();
  }

 private:
  static uint64_t NextGeneration() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<bool> on_{false};
  uint64_t generation_ = NextGeneration();
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanRecorder>> recorders_;
};

// In-flight bursts, one slot per connection, so a backend call can find
// the burst that holds its first key and parent its span there.
class BurstRegistry {
 public:
  explicit BurstRegistry(size_t conns) : slots_(conns) {}

  void Publish(size_t conn, uint64_t trace, uint64_t span,
               const std::vector<uint64_t>& keys) {
    Slot& s = slots_[conn];
    std::lock_guard lock(s.mu);
    s.trace = trace;
    s.span = span;
    s.keys = keys;
  }
  void Retire(size_t conn) {
    Slot& s = slots_[conn];
    std::lock_guard lock(s.mu);
    s.trace = 0;
  }
  // The (trace, kept burst span or 0) holding `key`, or {0, 0}.
  std::pair<uint64_t, uint64_t> Find(uint64_t key) {
    for (Slot& s : slots_) {
      std::lock_guard lock(s.mu);
      if (s.trace != 0 &&
          std::find(s.keys.begin(), s.keys.end(), key) != s.keys.end()) {
        return {s.trace, s.span};
      }
    }
    return {0, 0};
  }

 private:
  struct Slot {
    std::mutex mu;
    uint64_t trace = 0;
    uint64_t span = 0;
    std::vector<uint64_t> keys;
  };
  std::vector<Slot> slots_;
};

// Bench-owned backend in front of ShardedKvBackend: forwards every call
// the server workers make. While armed with a CPU, the worker making a
// call pins itself there (see "placement"). In traced slices it times
// each call as a backend.* span parented by the in-flight burst that
// holds its first key.
class TimedBackend final : public net::KvBackend {
 public:
  TimedBackend(net::KvBackend* inner, Tracer* tracer, BurstRegistry* bursts)
      : inner_(inner), tracer_(tracer), bursts_(bursts) {}

  // The CPU the next caller pins itself to; -1 disarms.
  void ArmPin(int cpu) { pin_cpu_.store(cpu, std::memory_order_relaxed); }

  void FindBatch(const uint64_t* keys, size_t n,
                 std::optional<uint64_t>* out) override {
    if (!Traced() || n == 0) {
      inner_->FindBatch(keys, n, out);
      return;
    }
    const uint64_t start = CycleTimer::Now();
    inner_->FindBatch(keys, n, out);
    Finish(kSpanBackendFindBatch, keys[0], start, n);
  }
  bool LowerBound(uint64_t key, uint64_t* out_key,
                  uint64_t* out_value) override {
    if (!Traced()) return inner_->LowerBound(key, out_key, out_value);
    const uint64_t start = CycleTimer::Now();
    const bool found = inner_->LowerBound(key, out_key, out_value);
    Finish(kSpanBackendLowerBound, key, start, 0);
    return found;
  }
  void Put(uint64_t key, uint64_t value) override {
    if (!Traced()) return inner_->Put(key, value);
    const uint64_t start = CycleTimer::Now();
    inner_->Put(key, value);
    Finish(kSpanBackendPut, key, start, 0);
  }
  bool Del(uint64_t key) override {
    if (!Traced()) return inner_->Del(key);
    const uint64_t start = CycleTimer::Now();
    const bool erased = inner_->Del(key);
    Finish(kSpanBackendDel, key, start, 0);
    return erased;
  }
  std::string StatsJson() override { return inner_->StatsJson(); }

  // Traced FindBatch calls, the keys they carried, and cycles spent in
  // every traced backend call.
  uint64_t find_calls() const { return find_calls_.load(); }
  uint64_t find_keys() const { return find_keys_.load(); }
  uint64_t busy_cycles() const { return busy_cycles_.load(); }

 private:
  // Pins the calling worker when armed, then reports whether this call
  // is traced.
  bool Traced() {
    const int cpu = pin_cpu_.load(std::memory_order_relaxed);
    if (cpu >= 0) PinSelfTo(cpu);
    return tracer_ != nullptr && tracer_->on();
  }

  void Finish(SpanName name, uint64_t first_key, uint64_t start,
              size_t find_keys) {
    const uint64_t end = CycleTimer::Now();
    if (name == kSpanBackendFindBatch) {
      find_calls_.fetch_add(1, std::memory_order_relaxed);
      find_keys_.fetch_add(find_keys, std::memory_order_relaxed);
    }
    busy_cycles_.fetch_add(end - start, std::memory_order_relaxed);
    // Kept exactly when the burst holding the first key was kept.
    const auto [trace, parent] = bursts_->Find(first_key);
    tracer_->Record(name, trace, parent, start, end, parent != 0);
  }

  net::KvBackend* inner_;
  Tracer* tracer_;
  BurstRegistry* bursts_;
  std::atomic<int> pin_cpu_{-1};
  std::atomic<uint64_t> find_calls_{0};
  std::atomic<uint64_t> find_keys_{0};
  std::atomic<uint64_t> busy_cycles_{0};
};

// --- statistics --------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank percentile (q in (0, 1]) of a sample, reordering it.
double Percentile(std::vector<uint32_t>* v, double q) {
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v->size())));
  const size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(k),
                   v->end());
  return static_cast<double>((*v)[k]);
}

// Per-slice medians of one role across threads, over the slices `use`
// selects: operations per second, p50 and p99 in ns.
struct RoleSummary {
  double ops_per_s = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  uint64_t samples = 0;
};

template <typename Select>
RoleSummary Summarize(const std::vector<const Series*>& parts,
                      const Window& win, Select use) {
  std::vector<double> rate, p50, p99;
  RoleSummary out;
  for (size_t s = 0; s < win.slices; ++s) {
    if (!use(s)) continue;
    // Rate over the slice's completions: operations after the earliest
    // completion, divided by the time from it to the latest.
    SliceCount all;
    std::vector<uint32_t> lat;
    for (const Series* p : parts) {
      const SliceCount& c = p->count[s];
      if (c.ops > 0) {
        if (all.ops == 0 || c.first < all.first) {
          all.first = c.first;
          all.first_ops = c.first_ops;
        }
        all.last = std::max(all.last, c.last);
        all.ops += c.ops;
      }
      lat.insert(lat.end(), p->lat[s].begin(), p->lat[s].end());
    }
    if (all.last > all.first) {
      rate.push_back(static_cast<double>(all.ops - all.first_ops) *
                     CyclesPerSec() / static_cast<double>(all.last - all.first));
    }
    out.samples += lat.size();
    if (lat.empty()) continue;
    p50.push_back(CyclesToNs(Percentile(&lat, 0.50)));
    p99.push_back(CyclesToNs(Percentile(&lat, 0.99)));
  }
  out.ops_per_s = Median(rate);
  out.p50_ns = Median(p50);
  out.p99_ns = Median(p99);
  return out;
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Report {
 public:
  Report(const Options& opt, const Workload& w) : opt_(opt), w_(w) {}

  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Invalid(const std::string& why) { invalid_.push_back(why); }
  bool valid() const { return invalid_.empty(); }

  void Print() const {
    std::printf("%-26s %18s  %s\n", "metric", "value", "unit");
    for (const Metric& m : metrics_) {
      std::printf("%-26s %18.4f  %s\n", m.name.c_str(), m.value, m.unit);
    }
    for (const std::string& why : invalid_) {
      std::printf("INVALID: %s\n", why.c_str());
      std::fprintf(stderr, "bb_ladder %s: %s\n", w_.name, why.c_str());
    }
    std::printf("\n");
    if (opt_.json) {
      for (const Metric& m : metrics_) {
        std::printf(
            "{\"bench\":\"bb_ladder\",\"config\":\"%s\",\"metric\":\"%s\","
            "\"value\":%.17g}\n",
            w_.name, m.name.c_str(), m.value);
      }
    }
    std::fflush(stdout);
  }

 private:
  const Options& opt_;
  const Workload& w_;
  std::vector<Metric> metrics_;
  std::vector<std::string> invalid_;
};

// --- set-up ------------------------------------------------------------------

std::unique_ptr<Index> BuildIndex(size_t n, size_t shards) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = 2 * (i + 1);
  auto index = std::make_unique<Index>(
      shards, Index::SplittersFromSample(keys.data(), n, shards));
  for (const uint64_t k : keys) index->Insert(k, k * 10);
  return index;
}

// The serving stack: index, ShardedKvBackend, the TimedBackend in front
// of it, and the server.
struct ServingStack {
  std::unique_ptr<Index> index;
  std::unique_ptr<net::ShardedKvBackend<Tree>> backend;
  std::unique_ptr<TimedBackend> timed;
  std::unique_ptr<net::KvServer> server;

  ~ServingStack() {
    if (server) server->Stop();
  }
};

bool StartServing(size_t n, size_t shards, Tracer* tracer,
                  BurstRegistry* bursts, ServingStack* st) {
  st->index = BuildIndex(n, shards);
  st->index->EnableMetrics("kv.index");
  st->backend = std::make_unique<net::ShardedKvBackend<Tree>>(st->index.get());
  st->timed = std::make_unique<TimedBackend>(st->backend.get(), tracer, bursts);
  st->server = std::make_unique<net::KvServer>(st->timed.get());
  net::KvServerOptions opts;
  opts.num_workers = kServerWorkers;
  opts.request_sample = 64;
  opts.request_slow_ns = 10ull * 1000 * 1000;
  if (!st->server->Start(opts)) {
    std::fprintf(stderr, "bb_ladder: cannot start server: %s\n",
                 st->server->error().c_str());
    return false;
  }
  return true;
}

// --- load: serving -----------------------------------------------------------

struct RunShared {
  const Options* opt;
  const Workload* w;
  size_t n;
  Window win;
  Tracer* tracer = nullptr;  // non-null in traced runs
  BurstRegistry* bursts = nullptr;
  std::vector<std::unique_ptr<net::KvClient>> clients;  // serving only
  Index* index = nullptr;
};

// Whether connections a and b are served by the same worker. SO_REUSEPORT
// hashes each connection to one worker, so two connections share one in
// half of all runs. a is given ~10^5 keys of MGET work; a GET on b sent
// meanwhile returns quickly only if b has a worker of its own.
bool SameWorker(net::KvClient& a, net::KvClient& b) {
  constexpr uint32_t kProbeKeys = 32768;
  constexpr int kProbeFrames = 4;
  std::vector<uint64_t> keys(kProbeKeys);
  for (uint32_t i = 0; i < kProbeKeys; ++i) keys[i] = 2 * (i + 1);
  for (int f = 0; f < kProbeFrames; ++f) a.EnqueueMget(keys.data(), kProbeKeys);
  const auto t0 = std::chrono::steady_clock::now();
  a.Flush();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  b.EnqueueGet(2);
  b.Flush();
  net::Response r;
  b.ReadReply(&r, kReplyTimeoutMs);
  const double b_done = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  for (int f = 0; f < kProbeFrames; ++f) a.ReadReply(&r, kReplyTimeoutMs);
  const double a_done = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  return b_done > 0.5 * a_done;
}

// Connects `conns` clients, reconnecting until the first `workers` of
// them sit on distinct workers, so every run measures the same balanced
// server rather than whichever placement the hash gave.
bool ConnectBalanced(uint16_t port, int conns, int workers,
                     std::vector<std::unique_ptr<net::KvClient>>* out) {
  constexpr int kMaxReconnects = 32;
  int reconnects = 0;
  for (int i = 0; i < conns; ++i) {
    auto c = std::make_unique<net::KvClient>();
    if (!c->Connect("127.0.0.1", port)) {
      std::fprintf(stderr, "bb_ladder: connect: %s\n", c->error().c_str());
      return false;
    }
    bool shares = false;
    for (int j = 0; j < i && i < workers && !shares; ++j) {
      shares = SameWorker(*(*out)[static_cast<size_t>(j)], *c);
    }
    if (shares && reconnects++ < kMaxReconnects) {
      --i;
      continue;
    }
    out->push_back(std::move(c));
  }
  std::printf("connections: %d on distinct workers after %d reconnect(s)\n",
              std::min(conns, workers), reconnects);
  return true;
}

// Checks one reply against the oracle; returns "" when it is right.
std::string CheckReply(const KvOp& op, const net::Response& r) {
  char buf[160];
  auto fail = [&](const char* what, uint64_t key) {
    std::snprintf(buf, sizeof(buf), "%s key %llu: %s", net::OpName(r.opcode),
                  static_cast<unsigned long long>(key), what);
    return std::string(buf);
  };
  switch (op.kind) {
    case OpKind::kGet:
      if (r.opcode != net::kOpGet) return fail("wrong opcode", op.key);
      if (!r.found || r.value != op.key * 10) {
        return fail("missing or wrong value", op.key);
      }
      return "";
    case OpKind::kMget:
      if (r.opcode != net::kOpMget || r.entries.size() != kMgetKeys) {
        return fail("wrong shape", op.mget[0]);
      }
      for (size_t i = 0; i < kMgetKeys; ++i) {
        if (!r.entries[i].found || r.entries[i].value != op.mget[i] * 10) {
          return fail("missing or wrong value", op.mget[i]);
        }
      }
      return "";
    case OpKind::kLowerBound:
      if (r.opcode != net::kOpLowerBound || !r.found ||
          (r.key != op.key && r.key != op.key + 1) || r.value != r.key * 10) {
        return fail("lower bound is neither p nor p+1 with value key*10",
                    op.key);
      }
      return "";
    case OpKind::kPut:
      if (r.opcode != net::kOpPut) return fail("wrong opcode", op.key);
      return "";
    case OpKind::kDel:
      if (r.opcode != net::kOpDel || !r.found) {
        return fail("erase of a live key erased nothing", op.key);
      }
      return "";
  }
  return "";
}

void RunConnection(const RunShared& rs, size_t conn, ThreadStats* st) {
  const Window& win = rs.win;
  net::KvClient& client = *rs.clients[conn];
  KvOpStream stream(StreamSeed(rs.opt->seed, *rs.w, conn), rs.n);
  std::vector<KvOp> burst(rs.w->batch);
  std::vector<uint64_t> burst_keys;
  uint64_t seq = 0;
  net::Response resp;
  while (true) {
    if (CycleTimer::Now() >= win.end) break;
    const bool traced = rs.tracer != nullptr && rs.tracer->on();
    burst_keys.clear();
    for (KvOp& op : burst) {
      stream.Next(&op);
      switch (op.kind) {
        case OpKind::kGet: client.EnqueueGet(op.key); break;
        case OpKind::kMget:
          client.EnqueueMget(op.mget, static_cast<uint32_t>(kMgetKeys));
          break;
        case OpKind::kLowerBound: client.EnqueueLowerBound(op.key); break;
        case OpKind::kPut: client.EnqueuePut(op.key, op.key * 10); break;
        case OpKind::kDel: client.EnqueueDel(op.key); break;
      }
      if (traced) {
        if (op.kind == OpKind::kMget) {
          burst_keys.insert(burst_keys.end(), op.mget, op.mget + kMgetKeys);
        } else {
          burst_keys.push_back(op.key);
        }
      }
    }
    // Burst trace ids: connection in the top bits, never 0. A kept burst
    // publishes its span id, which its backend spans take as parent.
    const uint64_t trace = (static_cast<uint64_t>(conn + 1) << 48) | ++seq;
    const bool keep = traced && trace % kKeepOneIn == 0 &&
                      rs.tracer->Local().Room(burst.size() + 1);
    uint64_t burst_span = 0;
    if (traced) {
      if (keep) burst_span = rs.tracer->Local().NewId();
      rs.bursts->Publish(conn, trace, burst_span, burst_keys);
    }
    const uint64_t sent = CycleTimer::Now();
    if (!client.Flush()) {
      st->Failed(burst.size(), "send: " + client.error());
      return;
    }
    uint64_t done = sent;
    for (size_t i = 0; i < burst.size(); ++i) {
      if (!client.ReadReply(&resp, kReplyTimeoutMs)) {
        st->Failed(burst.size() - i, "reply: " + client.error());
        return;
      }
      done = CycleTimer::Now();
      const KvOp& op = burst[i];
      const int64_t slice = win.SliceOf(done);
      if (slice >= 0) ++st->attempted;
      if (resp.status != net::kStatusOk) {
        if (slice >= 0) ++st->failed;
        if (st->why_failed.empty()) {
          st->why_failed = std::string("status ") +
                           net::StatusName(resp.status);
        }
        continue;
      }
      const std::string why = CheckReply(op, resp);
      if (!why.empty()) st->Wrong(why);
      const bool is_write = op.kind == OpKind::kPut || op.kind == OpKind::kDel;
      Series& series = is_write ? st->writes : st->reads;
      series.Count(slice, op.kind == OpKind::kMget ? kMgetKeys : 1, done);
      series.Sample(slice, done - sent);
      if (keep) {
        rs.tracer->Record(kSpanRequest, trace, burst_span, sent, done, true);
      } else if (traced) {
        rs.tracer->Record(kSpanRequest, trace, 0, sent, done, false);
      }
    }
    if (traced) {
      rs.bursts->Retire(conn);
      SpanRecorder& rec = rs.tracer->Local();
      rec.duration[kSpanBurst].Record(done - sent);
      if (keep) {
        Span s;
        s.trace = trace;
        s.id = burst_span;
        s.start = sent;
        s.end = done;
        s.name = kSpanBurst;
        s.thread = rec.thread;
        rec.kept.push_back(s);
      }
    }
  }
}

// --- load: embedded ----------------------------------------------------------

// Applies one churn op; false when an erase of a live key erased nothing.
bool ApplyWrite(Index& index, const Churn::Op& w) {
  if (w.insert) {
    index.Insert(w.key, w.key * 10);
    return true;
  }
  return index.Erase(w.key);
}

void RunBatchReader(const RunShared& rs, size_t t, ThreadStats* st) {
  const Window& win = rs.win;
  Rng rng(StreamSeed(rs.opt->seed, *rs.w, t));
  const size_t b = rs.w->batch;
  std::vector<uint64_t> keys(b);
  std::vector<std::optional<uint64_t>> out(b);
  uint64_t seq = 0;
  while (true) {
    FillClusteredBatch(rng, rs.n, keys.data(), b);
    const uint64_t start = CycleTimer::Now();
    if (start >= win.end) break;
    const bool traced = rs.tracer != nullptr && rs.tracer->on();
    rs.index->FindBatch(keys.data(), b, out.data());
    const uint64_t done = CycleTimer::Now();
    for (size_t i = 0; i < b; ++i) {
      if (!out[i].has_value() || *out[i] != keys[i] * 10) {
        st->Wrong("FindBatch key " + std::to_string(keys[i]) +
                  ": missing or wrong value");
        break;
      }
    }
    const int64_t slice = win.SliceOf(done);
    if (slice >= 0) ++st->attempted;
    st->reads.Count(slice, b, done);
    st->reads.Sample(slice, done - start);
    if (traced) {
      const uint64_t trace = (static_cast<uint64_t>(t + 1) << 48) | ++seq;
      rs.tracer->Record(kSpanIndexFindBatch, trace, 0, start, done,
                        trace % kKeepOneIn == 0);
    }
  }
}

void RunPointReader(const RunShared& rs, size_t t, ThreadStats* st) {
  const Window& win = rs.win;
  Rng rng(StreamSeed(rs.opt->seed, *rs.w, t));
  uint64_t seq = 0;
  while (true) {
    const uint64_t chunk_start = CycleTimer::Now();
    if (chunk_start >= win.end) break;
    const bool traced = rs.tracer != nullptr && rs.tracer->on();
    uint64_t sample = 0;
    for (size_t i = 0; i < kSampleEvery; ++i) {
      const uint64_t key = EvenKey(rng, rs.n);
      const bool timed = traced || i == 0;
      const uint64_t start = timed ? CycleTimer::Now() : 0;
      const std::optional<uint64_t> v = rs.index->Find(key);
      if (timed) {
        const uint64_t end = CycleTimer::Now();
        if (i == 0) sample = end - start;
        if (traced) {
          const uint64_t trace = (static_cast<uint64_t>(t + 1) << 48) | ++seq;
          rs.tracer->Record(kSpanIndexFind, trace, 0, start, end,
                            trace % kKeepOneIn == 0);
        }
      }
      if (!v.has_value() || *v != key * 10) {
        st->Wrong("Find key " + std::to_string(key) +
                  ": missing or wrong value");
      }
    }
    const uint64_t done = CycleTimer::Now();
    const int64_t slice = win.SliceOf(done);
    if (slice >= 0) st->attempted += kSampleEvery;
    st->reads.Count(slice, kSampleEvery, done);
    st->reads.Sample(slice, sample);
  }
}

// Embedded writer. Paced (embed-batch-16m): one op every 1/20000 s, so
// the readers see a fixed write rate; each op is timed from its actual
// start, because timed from its schedule the p99 measures how long the
// host preempts the spinning writer rather than the write. Unthrottled
// (embed-rw-64k): back to back, one op in kSampleEvery timed.
void RunWriter(const RunShared& rs, size_t t, bool paced, ThreadStats* st) {
  const Window& win = rs.win;
  Rng rng(StreamSeed(rs.opt->seed, *rs.w, t));
  Churn churn;
  uint64_t seq = 0;
  const uint64_t gap =
      static_cast<uint64_t>(CyclesPerSec() / kPacedWritesPerSec);
  uint64_t due = CycleTimer::Now();
  auto one = [&](uint64_t start, bool traced, bool sample) {
    const Churn::Op w = churn.Next(rng, rs.n);
    if (!ApplyWrite(*rs.index, w)) {
      st->Wrong("Erase of live key " + std::to_string(w.key) +
                " erased nothing");
    }
    const uint64_t done = CycleTimer::Now();
    const int64_t slice = win.SliceOf(done);
    if (slice >= 0) ++st->attempted;
    st->writes.Count(slice, 1, done);
    if (sample) st->writes.Sample(slice, done - start);
    if (traced) {
      const uint64_t trace = (static_cast<uint64_t>(t + 1) << 48) | ++seq;
      rs.tracer->Record(w.insert ? kSpanIndexInsert : kSpanIndexErase, trace,
                        0, start, done, trace % kKeepOneIn == 0);
    }
  };
  while (true) {
    const bool traced = rs.tracer != nullptr && rs.tracer->on();
    if (paced) {
      due += gap;
      while (CycleTimer::Now() < due) __builtin_ia32_pause();
      if (due >= win.end) break;
      one(CycleTimer::Now(), traced, true);
    } else {
      if (CycleTimer::Now() >= win.end) break;
      for (size_t i = 0; i < kSampleEvery; ++i) {
        const bool timed = traced || i == 0;
        one(timed ? CycleTimer::Now() : 0, traced, i == 0);
      }
    }
  }
}

// --- ladder ------------------------------------------------------------------

// Probes of one batch of b that land on one shard, in stream order.
struct SubBatch {
  size_t shard;
  size_t off;  // into Ladder::by_shard
  size_t len;
};

struct LadderResult {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0, l4 = 0, l4_self = 0;
  double l1_nodes_per_key = 0, l3_loaded_per_key = 0;
  double grouped_engaged_frac = 0;
  std::string wrong;
};

// Per-shard sub-batches of the probe stream at batch size b (partitioned
// by ShardOf, outside any timer) and the share of them that clear
// UseGroupedDescent on their shard's tree.
struct Partition {
  std::vector<uint64_t> by_shard;
  std::vector<uint32_t> shard_of;  // per probe, for L1
  std::vector<SubBatch> subs;
  size_t max_len = 0;
};

Partition PartitionProbes(const Index& index,
                          const std::vector<uint64_t>& probes, size_t b) {
  Partition p;
  p.by_shard.reserve(probes.size());
  p.shard_of.resize(probes.size());
  const size_t shards = index.num_shards();
  std::vector<std::vector<uint64_t>> bucket(shards);
  for (size_t i = 0; i < probes.size(); i += b) {
    const size_t hi = std::min(probes.size(), i + b);
    for (size_t j = i; j < hi; ++j) {
      const size_t s = index.ShardOf(probes[j]);
      p.shard_of[j] = static_cast<uint32_t>(s);
      bucket[s].push_back(probes[j]);
    }
    for (size_t s = 0; s < shards; ++s) {
      if (bucket[s].empty()) continue;
      p.subs.push_back({s, p.by_shard.size(), bucket[s].size()});
      p.max_len = std::max(p.max_len, bucket[s].size());
      p.by_shard.insert(p.by_shard.end(), bucket[s].begin(), bucket[s].end());
      bucket[s].clear();
    }
  }
  return p;
}

double GroupedEngagedFrac(const Index& index, const Partition& p) {
  std::vector<int> levels(index.num_shards());
  for (size_t s = 0; s < levels.size(); ++s) {
    levels[s] = index.WithShardRead(
        s, [](const Tree& t) { return BatchLevels(t); });
  }
  size_t engaged = 0;
  for (const SubBatch& sb : p.subs) {
    if (UseGroupedDescent(sb.len, levels[sb.shard])) ++engaged;
  }
  return p.subs.empty() ? 0.0
                        : static_cast<double>(engaged) /
                              static_cast<double>(p.subs.size());
}

LadderResult RunLadder(const Options& opt, const Workload& w,
                       const Index& index, size_t n, Tracer* tracer) {
  LadderResult r;
  const std::vector<uint64_t> probes =
      ProbeStream(w, opt.seed, n, opt.ladder_probes);
  const size_t b = w.batch;
  const Partition p = PartitionProbes(index, probes, b);
  r.grouped_engaged_frac = GroupedEngagedFrac(index, p);
  const double keys = static_cast<double>(probes.size());

  // L0 node: PaperNodeCapacity(8) stored keys spread over the domain.
  const size_t cap = static_cast<size_t>(btree::PaperNodeCapacity(8));
  std::vector<uint64_t> node_keys(cap);
  for (size_t i = 0; i < cap; ++i) node_keys[i] = 2 * (1 + i * (n / cap));
  const kary::KaryArray<uint64_t> node(node_keys, kary::Layout::kBreadthFirst);

  auto check = [&r](bool ok, uint64_t key, const char* rung) {
    if (!ok && r.wrong.empty()) {
      r.wrong = std::string(rung) + " key " + std::to_string(key) +
                ": missing or wrong value";
    }
  };
  std::vector<const uint64_t*> ptrs(std::max<size_t>(p.max_len, 256));
  std::vector<std::optional<uint64_t>> out(b);
  uint64_t sink = 0;

  auto l0 = [&] {
    for (const uint64_t k : probes) {
      const int64_t ub = node.UpperBound(k);
      sink += static_cast<uint64_t>(ub);
    }
  };
  auto l1 = [&] {
    for (size_t i = 0; i < probes.size(); ++i) {
      const uint64_t k = probes[i];
      const std::optional<uint64_t> v = index.WithShardRead(
          p.shard_of[i], [k](const Tree& t) { return t.Find(k); });
      check(v.has_value() && *v == k * 10, k, "L1");
    }
  };
  auto l2 = [&] {
    for (const SubBatch& sb : p.subs) {
      index.WithShardRead(sb.shard, [&](const Tree& t) {
        const uint64_t* keys_in = p.by_shard.data() + sb.off;
        for (size_t off = 0; off < sb.len; off += 256) {
          const size_t g = std::min<size_t>(256, sb.len - off);
          t.FindBatch(keys_in + off, g, ptrs.data());
          for (size_t j = 0; j < g; ++j) {
            check(ptrs[j] != nullptr && *ptrs[j] == keys_in[off + j] * 10,
                  keys_in[off + j], "L2");
          }
        }
      });
    }
  };
  auto l3 = [&](SearchCounters* counters) {
    for (const SubBatch& sb : p.subs) {
      index.WithShardRead(sb.shard, [&](const Tree& t) {
        const uint64_t* keys_in = p.by_shard.data() + sb.off;
        t.FindBatchGrouped(keys_in, sb.len, ptrs.data(), counters);
        for (size_t j = 0; j < sb.len; ++j) {
          check(ptrs[j] != nullptr && *ptrs[j] == keys_in[j] * 10, keys_in[j],
                "L3");
        }
      });
    }
  };
  auto l4 = [&] {
    if (b == 1) {
      for (const uint64_t k : probes) {
        const std::optional<uint64_t> v = index.Find(k);
        check(v.has_value() && *v == k * 10, k, "L4");
      }
      return;
    }
    for (size_t i = 0; i < probes.size(); i += b) {
      const size_t m = std::min(b, probes.size() - i);
      index.FindBatch(probes.data() + i, m, out.data());
      for (size_t j = 0; j < m; ++j) {
        check(out[j].has_value() && *out[j] == probes[i + j] * 10,
              probes[i + j], "L4");
      }
    }
  };

  // L0 answers against std::upper_bound (untimed).
  for (const uint64_t k : probes) {
    const int64_t want =
        std::upper_bound(node_keys.begin(), node_keys.end(), k) -
        node_keys.begin();
    if (node.UpperBound(k) != want && r.wrong.empty()) {
      r.wrong = "L0 key " + std::to_string(k) + ": wrong upper bound";
    }
  }
  // Work counts (untimed): nodes per key on L1, physical loads on L3.
  {
    SearchCounters c1;
    for (size_t i = 0; i < probes.size(); ++i) {
      const uint64_t k = probes[i];
      index.WithShardRead(p.shard_of[i], [&](const Tree& t) {
        return t.FindCounted(k, &c1);
      });
    }
    r.l1_nodes_per_key = static_cast<double>(c1.nodes_visited) / keys;
    SearchCounters c3;
    l3(&c3);
    r.l3_loaded_per_key = static_cast<double>(c3.nodes_loaded) / keys;
  }

  // Rounds interleave the rungs so drift on the host spreads over all.
  std::vector<double> ns[5];
  const uint64_t ladder_trace = 1;
  for (int round = 0; round < opt.ladder_rounds; ++round) {
    for (int rung = 0; rung < 5; ++rung) {
      const uint64_t start = CycleTimer::Now();
      switch (rung) {
        case 0: l0(); break;
        case 1: l1(); break;
        case 2: l2(); break;
        case 3: l3(nullptr); break;
        case 4: l4(); break;
      }
      const uint64_t end = CycleTimer::Now();
      ns[rung].push_back(CyclesToNs(static_cast<double>(end - start)) / keys);
      if (tracer != nullptr) {
        tracer->Record(static_cast<SpanName>(kSpanLadderL0 + rung),
                       ladder_trace, 0, start, end, true);
      }
    }
  }
  if (sink == 0xFFFFFFFFFFFFFFFFULL) std::fprintf(stderr, "\n");
  r.l0 = Median(ns[0]);
  r.l1 = Median(ns[1]);
  r.l2 = Median(ns[2]);
  r.l3 = Median(ns[3]);
  r.l4 = Median(ns[4]);
  // The rung the wrapper dispatches to: single Find at b = 1, the grouped
  // engine when most sub-batches clear the heuristic, else pipelined.
  const double below = b == 1 ? r.l1
                       : r.grouped_engaged_frac >= 0.5 ? r.l3
                                                       : r.l2;
  r.l4_self = r.l4 - below;
  return r;
}

// --- trace post-processing ---------------------------------------------------

// Self time of each kept span: its duration minus the union of its
// children's intervals (clipped to it). Children are filtered by `child`.
template <typename ChildFilter>
std::vector<std::pair<const Span*, uint64_t>> SelfTimes(
    const std::vector<Span>& spans, uint8_t name, ChildFilter child) {
  std::vector<std::pair<const Span*, uint64_t>> out;
  std::vector<const Span*> parents;
  for (const Span& s : spans) {
    if (s.name == name) parents.push_back(&s);
  }
  std::sort(parents.begin(), parents.end(),
            [](const Span* a, const Span* b) { return a->id < b->id; });
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(parents.size());
  for (const Span& s : spans) {
    if (s.parent == 0 || !child(s)) continue;
    auto it = std::lower_bound(
        parents.begin(), parents.end(), s.parent,
        [](const Span* a, uint64_t id) { return a->id < id; });
    if (it == parents.end() || (*it)->id != s.parent) continue;
    kids[static_cast<size_t>(it - parents.begin())].push_back(
        {s.start, s.end});
  }
  for (size_t i = 0; i < parents.size(); ++i) {
    const Span& p = *parents[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start);
      hi = std::min(hi, p.end);
      if (lo >= hi) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out.push_back({&p, (p.end - p.start) - covered});
  }
  return out;
}

bool IsBackend(const Span& s) {
  return s.name >= kSpanBackendFindBatch && s.name <= kSpanBackendDel;
}

struct TraceOutput {
  std::string workload;
  std::vector<Span> spans;
  std::array<obs::LogHistogram, kNumSpanNames> hist;  // cycles
};

void WriteTraceFile(const std::string& path,
                    const std::vector<std::unique_ptr<TraceOutput>>& runs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bb_ladder: cannot write %s\n", path.c_str());
    return;
  }
  for (const auto& run : runs) {
    const char* w = run->workload.c_str();
    for (const Span& s : run->spans) {
      std::fprintf(
          f,
          "{\"workload\":\"%s\",\"name\":\"%s\",\"trace\":%llu,\"span\":%llu,"
          "\"parent\":%llu,\"thread\":%u,\"start_ns\":%.1f,\"end_ns\":%.1f}\n",
          w, kSpanNames[s.name], static_cast<unsigned long long>(s.trace),
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent), s.thread,
          CyclesToNs(static_cast<double>(s.start)),
          CyclesToNs(static_cast<double>(s.end)));
    }
    for (size_t i = 0; i < kNumSpanNames; ++i) {
      const obs::LogHistogram& h = run->hist[i];
      if (h.Count() == 0) continue;
      const auto self = SelfTimes(run->spans, static_cast<uint8_t>(i),
                                  [](const Span&) { return true; });
      double self_sum = 0;
      for (const auto& [span, cycles] : self) {
        self_sum += CyclesToNs(static_cast<double>(cycles));
      }
      std::fprintf(
          f,
          "{\"workload\":\"%s\",\"histogram\":\"%s\",\"count\":%llu,"
          "\"mean_ns\":%.1f,\"p50_ns\":%.1f,\"p99_ns\":%.1f,"
          "\"kept\":%zu,\"self_mean_ns\":%.1f}\n",
          w, kSpanNames[i], static_cast<unsigned long long>(h.Count()),
          CyclesToNs(h.Mean()),
          CyclesToNs(static_cast<double>(h.Percentile(0.50))),
          CyclesToNs(static_cast<double>(h.Percentile(0.99))), self.size(),
          self.empty() ? 0.0 : self_sum / static_cast<double>(self.size()));
    }
  }
  std::fclose(f);
}

// --- one workload --------------------------------------------------------------

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Get();
}

double LlcBytes() {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return llc > 0 ? static_cast<double>(llc) : 0.0;
}

int RunWorkload(const Options& opt, const Workload& w,
                std::vector<std::unique_ptr<TraceOutput>>* traces) {
  const bool traced = !opt.trace_path.empty();
  const size_t n = opt.smoke ? kSmokeKeys : w.keys;
  const bool serving = Serving(w);
  std::printf("== %s: %zu keys, %zu shard(s), %d %s, batch %zu, seed %llu, "
              "%.1f s window%s ==\n",
              w.name, n, w.shards, w.clients,
              serving ? "connections" : "readers + 1 writer", w.batch,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              traced ? ", traced" : "");
  std::fflush(stdout);

  Tracer tracer;
  BurstRegistry bursts(static_cast<size_t>(w.clients));
  Tracer* tr = traced ? &tracer : nullptr;

  // Set-up, repeated; the last one stays up for the run.
  if (serving) {
    obs::EnableTracing(64);
  }
  const std::vector<int> allowed = AllowedCpus();
  std::vector<double> setup_s;
  std::unique_ptr<ServingStack> stack;
  std::unique_ptr<Index> embedded;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    stack.reset();
    embedded.reset();
    const auto t0 = std::chrono::steady_clock::now();
    if (serving) {
      stack = std::make_unique<ServingStack>();
      if (!StartServing(n, w.shards, tr, &bursts, stack.get())) return 1;
    } else {
      embedded = BuildIndex(n, w.shards);
    }
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  Index& index = serving ? *stack->index : *embedded;

  RunShared rs;
  rs.opt = &opt;
  rs.w = &w;
  rs.n = n;
  rs.tracer = tr;
  rs.bursts = &bursts;
  rs.index = &index;
  if (serving) {
    if (!ConnectBalanced(stack->server->port(), w.clients, kServerWorkers,
                         &rs.clients)) {
      return 1;
    }
    // One GET per connection, one at a time, pins the worker serving it
    // to the CPU its client thread will run on.
    for (size_t c = 0; c < rs.clients.size() && !allowed.empty(); ++c) {
      stack->timed->ArmPin(allowed[c % allowed.size()]);
      if (rs.clients[c]->Get(2) != std::optional<uint64_t>(20)) {
        std::fprintf(stderr, "bb_ladder: get: %s\n",
                     rs.clients[c]->error().c_str());
        return 1;
      }
    }
    stack->timed->ArmPin(-1);
  }
  const double cps = CyclesPerSec();
  const uint64_t now = CycleTimer::Now();
  rs.win.slice = static_cast<uint64_t>(kSliceSeconds * cps);
  rs.win.slices = std::max<size_t>(
      1, static_cast<size_t>(std::llround(opt.seconds / kSliceSeconds)));
  rs.win.begin = now + static_cast<uint64_t>(opt.warmup * cps);
  rs.win.end = rs.win.begin + rs.win.slice * rs.win.slices;

  obs::LogHistogram* coalesced =
      obs::MetricsRegistry::Global().GetHistogram("net.coalesced_batch");

  std::vector<std::unique_ptr<ThreadStats>> stats;
  std::vector<std::thread> threads;
  auto spawn = [&](auto fn) {
    stats.push_back(std::make_unique<ThreadStats>(rs.win.slices));
    ThreadStats* st = stats.back().get();
    const size_t id = stats.size() - 1;
    threads.emplace_back([&rs, &allowed, fn, id, st] {
      PinSelf(allowed, id);
      fn(rs, id, st);
    });
  };
  for (int c = 0; c < w.clients; ++c) {
    if (serving) {
      spawn(RunConnection);
    } else if (w.kind == Kind::kEmbedBatch) {
      spawn(RunBatchReader);
    } else {
      spawn(RunPointReader);
    }
  }
  if (!serving) {
    const bool paced = w.kind == Kind::kEmbedBatch;
    spawn([paced](const RunShared& r, size_t id, ThreadStats* st) {
      RunWriter(r, id, paced, st);
    });
  }

  // Traced runs alternate untraced and traced slices; the window's
  // counters are snapshotted at its edges.
  auto wait_until = [](uint64_t t) {
    while (true) {
      const uint64_t c = CycleTimer::Now();
      if (c >= t) return;
      const double s = static_cast<double>(t - c) / CyclesPerSec();
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(s, 0.05)));
    }
  };
  wait_until(rs.win.begin);
  const uint64_t coalesced_count0 = coalesced->Count();
  const uint64_t coalesced_sum0 = coalesced->Sum();
  const uint64_t retries0 = CounterValue("olc.read_retries");
  const uint64_t fallbacks0 = CounterValue("olc.fallback_acquisitions");
  const uint64_t pauses0 = CounterValue("net.backpressure_pauses");
  for (size_t s = 0; s < rs.win.slices; ++s) {
    if (traced) tracer.set_on(s % 2 == 1);
    wait_until(rs.win.begin + rs.win.slice * (s + 1));
  }
  tracer.set_on(false);
  const uint64_t coalesced_calls = coalesced->Count() - coalesced_count0;
  const uint64_t coalesced_keys = coalesced->Sum() - coalesced_sum0;
  const uint64_t retries = CounterValue("olc.read_retries") - retries0;
  const uint64_t fallbacks =
      CounterValue("olc.fallback_acquisitions") - fallbacks0;
  const uint64_t pauses = CounterValue("net.backpressure_pauses") - pauses0;
  for (std::thread& t : threads) t.join();
  if (serving) {
    stack->server->Stop();
    obs::EnableTracing(0);
    obs::RequestTracer::Global().Configure(0, 0);
  }
  obs::PublishEpochStats();
  const double deferred_blocks =
      obs::MetricsRegistry::Global().GetGauge("epoch.deferred_blocks")->Get();

  // Aggregate.
  std::vector<const Series*> reads, writes;
  uint64_t attempted = 0, failed = 0, wrong = 0, read_keys = 0;
  std::string why_wrong, why_failed;
  for (const auto& st : stats) {
    reads.push_back(&st->reads);
    writes.push_back(&st->writes);
    attempted += st->attempted;
    failed += st->failed;
    wrong += st->wrong;
    for (const SliceCount& c : st->reads.count) read_keys += c.ops;
    if (why_wrong.empty()) why_wrong = st->why_wrong;
    if (why_failed.empty()) why_failed = st->why_failed;
  }
  auto off = [traced](size_t s) { return !traced || s % 2 == 0; };
  auto on = [](size_t s) { return s % 2 == 1; };
  const RoleSummary rd = Summarize(reads, rs.win, off);
  const RoleSummary wr = Summarize(writes, rs.win, off);
  const mem::ArenaStats mem = index.MemStats();
  const size_t live = index.size();
  const double bytes_per_key =
      live > 0 ? static_cast<double>(mem.reserved_bytes) /
                     static_cast<double>(live)
               : 0.0;

  Report rep(opt, w);
  rep.Add("setup_s", Median(setup_s), "s");
  rep.Add("read_ops_per_s", rd.ops_per_s, "keys/s");
  rep.Add("write_ops_per_s", wr.ops_per_s, "ops/s");
  rep.Add("read_p50_ns", rd.p50_ns, "ns");
  rep.Add("read_p99_ns", rd.p99_ns, "ns");
  rep.Add("write_p50_ns", wr.p50_ns, "ns");
  rep.Add("write_p99_ns", wr.p99_ns, "ns");
  rep.Add("fail_frac",
          attempted > 0 ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 1.0,
          "fraction");
  rep.Add("bytes_per_key", bytes_per_key, "bytes");
  rep.Add("attempted", static_cast<double>(attempted), "count");
  rep.Add("failed", static_cast<double>(failed), "count");
  rep.Add("wrong", static_cast<double>(wrong), "count");
  rep.Add("read_samples", static_cast<double>(rd.samples), "count");
  rep.Add("write_samples", static_cast<double>(wr.samples), "count");

  // Validity checks that hold in every run.
  if (wrong > 0) {
    rep.Invalid(std::to_string(wrong) + " wrong answer(s), first: " +
                why_wrong);
  }
  if (failed > 0) {
    rep.Invalid(std::to_string(failed) + " failed operation(s), first: " +
                why_failed);
  }
  if (attempted == 0) rep.Invalid("no operation completed in the window");
  if (serving) {
    const double kpc = coalesced_calls > 0
                           ? static_cast<double>(coalesced_keys) /
                                 static_cast<double>(coalesced_calls)
                           : 0.0;
    if (kpc < 6.0) {
      rep.Invalid("keys per backend FindBatch call " + std::to_string(kpc) +
                  " < 6 at depth 32");
    }
  }
  if (w.kind == Kind::kEmbedRw) {
    const double llc = LlcBytes();
    if (llc > 0 && static_cast<double>(mem.reserved_bytes) >= llc) {
      rep.Invalid("reserved bytes " + std::to_string(mem.reserved_bytes) +
                  " not below the LLC size " + std::to_string(llc));
    }
  }
  {
    // The grouped engine must engage on embed-batch-16m's sub-batches and
    // nowhere else; checked on a sample of the workload's own stream.
    const size_t sample = std::min<size_t>(n, size_t{1} << 16);
    const Partition p =
        PartitionProbes(index, ProbeStream(w, opt.seed, n, sample), w.batch);
    const double frac = GroupedEngagedFrac(index, p);
    if (w.kind == Kind::kEmbedBatch ? frac < 0.9 : frac != 0.0) {
      rep.Invalid("grouped_engaged_frac " + std::to_string(frac) +
                  (w.kind == Kind::kEmbedBatch ? " < 0.9" : " != 0"));
    }
  }

  if (traced) {
    const RoleSummary rd_on = Summarize(reads, rs.win, on);
    const double read_mkeys = static_cast<double>(read_keys) / 1e6;
    rep.Add("trace_overhead_pct",
            rd_on.ops_per_s > 0 ? (rd.ops_per_s / rd_on.ops_per_s - 1.0) * 100
                                : 0.0,
            "%");
    rep.Add("olc_retries_per_mread",
            read_mkeys > 0 ? static_cast<double>(retries) / read_mkeys : 0.0,
            "count");
    rep.Add("olc_fallbacks_per_mread",
            read_mkeys > 0 ? static_cast<double>(fallbacks) / read_mkeys : 0.0,
            "count");
    rep.Add("epoch_deferred_blocks", deferred_blocks, "count");
    rep.Add("backpressure_pauses", static_cast<double>(pauses), "count");

    const LadderResult lr = RunLadder(opt, w, index, n, tr);
    if (!lr.wrong.empty()) rep.Invalid("ladder: " + lr.wrong);
    rep.Add("l0_node_search_ns", lr.l0, "ns");
    rep.Add("l1_find_ns", lr.l1, "ns");
    rep.Add("l1_nodes_per_key", lr.l1_nodes_per_key, "count");
    rep.Add("l2_pipelined_ns", lr.l2, "ns");
    rep.Add("l3_grouped_ns", lr.l3, "ns");
    rep.Add("l3_nodes_loaded_per_key", lr.l3_loaded_per_key, "count");
    rep.Add("l4_sharded_ns", lr.l4, "ns");
    rep.Add("l4_self_ns", lr.l4_self, "ns");
    rep.Add("grouped_engaged_frac", lr.grouped_engaged_frac, "fraction");

    auto out = std::make_unique<TraceOutput>();
    out->workload = w.name;
    tracer.Harvest(&out->spans, &out->hist);
    if (serving) {
      // Keys per backend FindBatch call and backend time per wire
      // request, from the bench-owned backend (traced slices only).
      uint64_t on_requests = 0;
      for (const auto& st : stats) {
        for (size_t s = 0; s < rs.win.slices; ++s) {
          if (on(s)) on_requests += st->reads.lat[s].size() +
                                    st->writes.lat[s].size();
        }
      }
      const TimedBackend& tb = *stack->timed;
      rep.Add("keys_per_backend_call",
              tb.find_calls() > 0 ? static_cast<double>(tb.find_keys()) /
                                        static_cast<double>(tb.find_calls())
                                  : 0.0,
              "keys");
      rep.Add("backend_ns_per_req",
              on_requests > 0
                  ? CyclesToNs(static_cast<double>(tb.busy_cycles())) /
                        static_cast<double>(on_requests)
                  : 0.0,
              "ns");
      const auto self = SelfTimes(out->spans, kSpanBurst, IsBackend);
      double sum = 0;
      for (const auto& [span, cycles] : self) {
        sum += CyclesToNs(static_cast<double>(cycles));
      }
      rep.Add("net_self_ns_per_burst",
              self.empty() ? 0.0 : sum / static_cast<double>(self.size()),
              "ns");
    } else {
      // In-process: the index call plays the backend's role and there is
      // no network layer.
      const obs::LogHistogram& h = out->hist[w.kind == Kind::kEmbedBatch
                                                 ? kSpanIndexFindBatch
                                                 : kSpanIndexFind];
      rep.Add("keys_per_backend_call", static_cast<double>(w.batch), "keys");
      rep.Add("backend_ns_per_req", CyclesToNs(h.Mean()), "ns");
      rep.Add("net_self_ns_per_burst", 0.0, "ns");
    }
    traces->push_back(std::move(out));
  }

  rep.Print();
  return rep.valid() ? 0 : kExitInvalid;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: bb_ladder [--workload=NAME]... [--seed=N] [--seconds=S]\n"
      "                 [--json] [--trace=FILE] [--smoke]\n"
      "workloads: kv-mix-d32 embed-batch-16m embed-rw-64k "
      "(default: all)\n");
  return 2;
}

}  // namespace
}  // namespace simdtree

int main(int argc, char** argv) {
  using namespace simdtree;
  Options opt;
  bool seconds_set = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--json") == 0) {
      opt.json = true;
    } else if (std::strcmp(a, "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      opt.seed = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--seconds=", 10) == 0) {
      opt.seconds = std::atof(a + 10);
      seconds_set = true;
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      opt.trace_path = a + 8;
      if (opt.trace_path.empty()) return Usage();
    } else if (std::strncmp(a, "--workload=", 11) == 0) {
      const Workload* found = nullptr;
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, a + 11) == 0) found = &w;
      }
      if (found == nullptr) return Usage();
      opt.workloads.push_back(found);
    } else {
      return Usage();
    }
  }
  if (opt.smoke) {
    if (!seconds_set) opt.seconds = 1.0;
    opt.warmup = 0.25;
    opt.ladder_probes = size_t{1} << 16;
    opt.ladder_rounds = 3;
  }
  if (!(opt.seconds >= kSliceSeconds)) return Usage();
  if (opt.workloads.empty()) {
    for (const Workload& w : kWorkloads) opt.workloads.push_back(&w);
  }
  CycleTimer::CyclesPerSecond();  // calibrate before any timed region

  std::vector<std::unique_ptr<TraceOutput>> traces;
  int rc = 0;
  for (const Workload* w : opt.workloads) {
    const int r = RunWorkload(opt, *w, &traces);
    if (r == 1) return 1;
    if (r != 0) rc = r;
  }
  if (!opt.trace_path.empty()) WriteTraceFile(opt.trace_path, traces);
  return rc;
}
