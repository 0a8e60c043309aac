// Open-loop load generator for the KV serving path (src/net/): drives a
// live server through KvClient connections on a target-QPS arrival
// schedule and reports SLO latencies.
//
// Open loop means arrivals are scheduled by the clock, not by reply
// receipt: each connection draws exponential inter-arrival gaps (a
// Poisson process at its share of --qps) and a request's latency is
// measured from its SCHEDULED arrival to its reply — so queueing delay
// that a closed-loop generator would hide (coordinated omission) is
// charged to the server. The only concession is the pipeline cap: at
// most --pipeline requests per connection are in flight, and arrivals
// due while the pipeline is full are sent late (their latency still
// counts from the schedule). The pipeline depth is also the lever that
// drives the server's read-run coalescing into FindBatch.
//
// Workload: reads are GETs (a --mget-frac slice becomes 8-key MGETs, a
// --lb-frac slice becomes LOWER_BOUNDs); a --write-frac slice of
// requests are writes, alternating PUT / DEL. Keys are skewed: with
// probability --hot-frac a key is drawn from the hottest 1% of the
// keyspace, else uniformly.
//
// Against an external server: bb_serve --port=N [--host=A]. With no
// --port, the bench self-hosts: it builds a SegTree-backed ShardedIndex
// of --keys pairs in-process, starts a KvServer on an ephemeral
// loopback port, and tears it down afterwards.
//
// --json emits the standard bench lines plus one SLO object line:
//   {"bench":"bb_serve","config":...,"slo":{"target_qps":..,
//    "achieved_qps":..,"requests":..,"replies":..,"errors":..,
//    "p50_ns":..,"p99_ns":..,"p999_ns":..,"max_ns":..},"ops":{
//    "get":{"replies":..,"p50_ns":..,"p99_ns":..,"p999_ns":..},...}}
// which scripts/check_bench_json.py --require-slo gates in CI. The
// "ops" object breaks the latency percentiles down per opcode.
// --smoke shrinks everything for CI (2 s, small index, low QPS).
//
// --slo-target=F additionally evaluates the run against the SLO math
// the serving monitor uses (obs/slo.h EvaluateSlo): availability
// target F, latency objective --slo-latency-ms at --slo-latency-target,
// window = the whole run. Any burn rate above 1.0 (the error budget
// consumed faster than it accrues) exits non-zero — the CI hook for
// "this build cannot hold its SLO".
//
// --ab-spans switches to the span-overhead A/B: a closed-loop burst of
// pipelined GETs against the self-hosted server, measured with the
// request tracer disarmed vs armed (head sampling + a slow threshold no
// request breaches — the tail-sampling steady state). Modes interleave
// for --reps rounds, the first mode alternating from round to round,
// and each mode's fastest round counts
// (min-of-rounds, like bb_trace_overhead), emitting span_overhead_pct —
// the number EXPERIMENTS.md records against the <= 2% bar.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/sharded.h"
#include "net/backend.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/histogram.h"
#include "obs/request_trace.h"
#include "obs/slo.h"
#include "segtree/segtree.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using Tree = segtree::SegTree<uint64_t, uint64_t>;
using Clock = std::chrono::steady_clock;

// Per-opcode latency attribution: indices into ConnStats::op.
enum OpKind : uint8_t {
  kKindGet = 0,
  kKindMget,
  kKindLowerBound,
  kKindPut,
  kKindDel,
  kNumOpKinds,
};
constexpr const char* kOpKindNames[kNumOpKinds] = {"get", "mget",
                                                   "lower_bound", "put",
                                                   "del"};

struct Config {
  std::string host = "127.0.0.1";
  int port = 0;          // 0 = self-host an in-process server
  double qps = 20000.0;  // aggregate target across all connections
  int conns = 4;
  int pipeline = 16;
  double write_frac = 0.10;
  double mget_frac = 0.05;  // fraction of reads sent as 8-key MGETs
  double lb_frac = 0.05;    // fraction of reads sent as LOWER_BOUNDs
  double hot_frac = 0.50;   // fraction of keys drawn from the hot 1%
  size_t keys = size_t{1} << 20;  // self-hosted index size
  int server_threads = 2;         // self-hosted worker count
  int shards = 8;
  int duration_s = 10;
  bool smoke = false;

  // --slo-target: evaluate the run through obs::EvaluateSlo and exit
  // non-zero on a burn rate above 1. Negative = disabled.
  double slo_target = -1.0;
  double slo_latency_ms = 5.0;
  double slo_latency_target = 0.99;

  // --ab-spans: request-span overhead A/B instead of the open loop.
  bool ab_spans = false;
  int reps = 7;
  uint64_t ab_requests = 200000;  // closed-loop GETs per round
};

struct ConnStats {
  uint64_t requests = 0;
  uint64_t replies = 0;
  uint64_t errors = 0;  // non-OK statuses or transport failures
  obs::LogHistogram latency_ns;
  obs::LogHistogram op_latency_ns[kNumOpKinds];
};

uint64_t NowNs(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           t0)
          .count());
}

// One connection's open-loop driver. Runs until `deadline_ns` on the
// shared epoch clock, then drains its pipeline.
void RunConn(const Config& cfg, int conn_index, Clock::time_point epoch,
             uint64_t deadline_ns, ConnStats* stats) {
  net::KvClient client;
  if (!client.Connect(cfg.host, static_cast<uint16_t>(cfg.port))) {
    std::fprintf(stderr, "conn %d: %s\n", conn_index,
                 client.error().c_str());
    ++stats->errors;
    return;
  }

  Rng rng(0xB0B5E12FULL + static_cast<uint64_t>(conn_index) * 7919);
  const double conn_qps = cfg.qps / cfg.conns;
  const double mean_gap_ns = 1e9 / conn_qps;
  const uint64_t hot_span =
      cfg.keys / 100 > 0 ? cfg.keys / 100 : uint64_t{1};

  // Scheduled-arrival timestamps and opcodes of in-flight requests, in
  // request order (the server's reply order).
  std::deque<uint64_t> sched;
  std::deque<uint8_t> sched_op;
  uint64_t next_arrival_ns = 0;
  uint64_t write_toggle = 0;
  uint64_t mget_keys[8];

  auto draw_key = [&]() -> uint64_t {
    if (rng.NextDouble() < cfg.hot_frac) return 1 + rng.NextBounded(hot_span);
    return 1 + rng.NextBounded(cfg.keys);
  };

  auto enqueue_one = [&]() {
    uint8_t kind;
    if (rng.NextDouble() < cfg.write_frac) {
      if (write_toggle++ & 1) {
        client.EnqueueDel(draw_key());
        kind = kKindDel;
      } else {
        client.EnqueuePut(draw_key(), rng.Next());
        kind = kKindPut;
      }
    } else if (rng.NextDouble() < cfg.mget_frac) {
      for (auto& k : mget_keys) k = draw_key();
      client.EnqueueMget(mget_keys, 8);
      kind = kKindMget;
    } else if (rng.NextDouble() < cfg.lb_frac) {
      client.EnqueueLowerBound(draw_key());
      kind = kKindLowerBound;
    } else {
      client.EnqueueGet(draw_key());
      kind = kKindGet;
    }
    sched_op.push_back(kind);
    ++stats->requests;
  };

  auto record_reply = [&](uint64_t done_ns) {
    const uint64_t lat = done_ns - sched.front();
    stats->latency_ns.Record(lat);
    stats->op_latency_ns[sched_op.front()].Record(lat);
    sched.pop_front();
    sched_op.pop_front();
    ++stats->replies;
  };

  net::Response resp;
  while (true) {
    const uint64_t now_ns = NowNs(epoch);
    if (now_ns >= deadline_ns) break;

    // Send every arrival that is due, up to the pipeline cap. A full
    // pipeline leaves the overdue arrival pending; it is sent as soon
    // as a slot frees, with its latency still measured from schedule.
    bool sent = false;
    while (next_arrival_ns <= now_ns &&
           sched.size() < static_cast<size_t>(cfg.pipeline)) {
      enqueue_one();
      sched.push_back(next_arrival_ns);
      next_arrival_ns += static_cast<uint64_t>(
          -mean_gap_ns * std::log(1.0 - rng.NextDouble()));
      sent = true;
    }
    if (sent && !client.Flush()) {
      stats->errors += sched.size();
      return;
    }

    if (sched.empty()) {
      // Idle: sleep to the next arrival (capped so the deadline is
      // honored promptly).
      const uint64_t target =
          next_arrival_ns < deadline_ns ? next_arrival_ns : deadline_ns;
      const uint64_t now2 = NowNs(epoch);
      if (target > now2) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(target - now2));
      }
      continue;
    }

    // Wait for a reply, but never past the next arrival (ms floor of 1
    // keeps poll() from busy-spinning at high QPS).
    int timeout_ms = 1;
    if (sched.size() >= static_cast<size_t>(cfg.pipeline)) {
      timeout_ms = 100;  // pipeline full: nothing to send anyway
    }
    if (client.ReadReply(&resp, timeout_ms)) {
      record_reply(NowNs(epoch));
      if (resp.status != net::kStatusOk) ++stats->errors;
      // Drain whatever else is already buffered without blocking.
      while (!sched.empty() && client.ReadReply(&resp, 0)) {
        record_reply(NowNs(epoch));
        if (resp.status != net::kStatusOk) ++stats->errors;
      }
      if (!client.connected()) {
        stats->errors += sched.size();
        return;
      }
    } else if (!client.connected()) {
      stats->errors += sched.size();
      return;
    }
  }

  // Drain the tail of the pipeline.
  while (!sched.empty() && client.ReadReply(&resp, 2000)) {
    record_reply(NowNs(epoch));
    if (resp.status != net::kStatusOk) ++stats->errors;
  }
  stats->errors += sched.size();
}

// Builds the self-hosted index + server shared by the open loop and
// the --ab-spans A/B. Start() fills cfg->port with the bound port.
struct SelfHost {
  std::unique_ptr<ShardedIndex<Tree>> index;
  std::unique_ptr<net::ShardedKvBackend<Tree>> backend;
  std::unique_ptr<net::KvServer> server;

  bool Start(Config* cfg) {
    std::vector<uint64_t> all_keys(cfg->keys);
    for (size_t i = 0; i < cfg->keys; ++i) all_keys[i] = i + 1;
    index = std::make_unique<ShardedIndex<Tree>>(
        static_cast<size_t>(cfg->shards),
        ShardedIndex<Tree>::SplittersFromSample(
            all_keys.data(), all_keys.size(),
            static_cast<size_t>(cfg->shards)));
    for (uint64_t k : all_keys) index->Insert(k, k * 10);
    backend = std::make_unique<net::ShardedKvBackend<Tree>>(index.get());
    server = std::make_unique<net::KvServer>(backend.get());
    net::KvServerOptions opts;
    opts.num_workers = cfg->server_threads;
    if (!server->Start(opts)) {
      std::fprintf(stderr, "cannot start server: %s\n",
                   server->error().c_str());
      return false;
    }
    cfg->port = server->port();
    return true;
  }
};

// One closed-loop round of the span-overhead A/B: `total` pipelined
// GETs over one connection, returning the elapsed nanoseconds (or 0 on
// transport failure).
uint64_t AbSpansRound(const Config& cfg, uint64_t total) {
  net::KvClient client;
  if (!client.Connect(cfg.host, static_cast<uint16_t>(cfg.port))) {
    std::fprintf(stderr, "ab-spans: %s\n", client.error().c_str());
    return 0;
  }
  Rng rng(0xAB5A25ULL);
  const size_t depth = static_cast<size_t>(cfg.pipeline);
  uint64_t sent = 0, got = 0;
  net::Response resp;
  const Clock::time_point t0 = Clock::now();
  while (sent < total && sent < depth) {
    client.EnqueueGet(1 + rng.NextBounded(cfg.keys));
    ++sent;
  }
  if (!client.Flush()) return 0;
  while (got < total) {
    if (!client.ReadReply(&resp, 2000)) return 0;
    ++got;
    if (sent < total) {
      client.EnqueueGet(1 + rng.NextBounded(cfg.keys));
      ++sent;
      if (!client.Flush()) return 0;
    }
  }
  return NowNs(t0);
}

// Interleaved min-of-rounds A/B: request tracer disarmed vs armed with
// head sampling plus a slow threshold nothing breaches — the steady
// state of tail sampling, where every request pays the span bookkeeping
// but (almost) none is retained.
int RunAbSpans(Config cfg) {
  if (cfg.port != 0) {
    std::fprintf(stderr, "--ab-spans self-hosts; drop --port\n");
    return 2;
  }
  SelfHost host;
  if (!host.Start(&cfg)) return 1;
  std::printf("span-overhead A/B: %llu GETs/round, pipeline %d, "
              "%d rounds, port %d\n",
              static_cast<unsigned long long>(cfg.ab_requests),
              cfg.pipeline, cfg.reps, cfg.port);
  std::fflush(stdout);

  struct Mode {
    const char* name;
    uint32_t head_rate;
    uint64_t slow_ns;
  };
  // 1-in-128 head sampling; slow threshold 100 s => never breached.
  const Mode modes[] = {
      {"spans_off", 0, 0},
      {"spans_armed", 128, 100ULL * 1000 * 1000 * 1000},
  };
  constexpr size_t kModes = sizeof(modes) / sizeof(modes[0]);
  uint64_t best_ns[kModes] = {};
  auto& tracer = obs::RequestTracer::Global();
  for (int r = 0; r < cfg.reps; ++r) {
    // Even rounds run off then armed, odd rounds armed then off, so an
    // order or warm-up bias lands on both modes alike.
    for (size_t i = 0; i < kModes; ++i) {
      const size_t m = r % 2 == 0 ? i : kModes - 1 - i;
      tracer.Configure(modes[m].head_rate, modes[m].slow_ns);
      const uint64_t ns = AbSpansRound(cfg, cfg.ab_requests);
      tracer.Configure(0, 0);
      if (ns == 0) {
        std::fprintf(stderr, "ab-spans round failed\n");
        host.server->Stop();
        return 1;
      }
      if (r == 0 || ns < best_ns[m]) best_ns[m] = ns;
    }
  }
  host.server->Stop();

  std::printf("%-12s %14s %12s\n", "mode", "qps", "vs off");
  for (size_t m = 0; m < kModes; ++m) {
    const double qps = 1e9 * static_cast<double>(cfg.ab_requests) /
                       static_cast<double>(best_ns[m]);
    const double overhead =
        (static_cast<double>(best_ns[m]) /
             static_cast<double>(best_ns[0]) -
         1.0) *
        100.0;
    std::printf("%-12s %14.0f %+11.2f%%\n", modes[m].name, qps, overhead);
    bench::EmitJson("bb_serve", modes[m].name, "qps", qps);
    if (m > 0) {
      bench::EmitJson("bb_serve", modes[m].name, "span_overhead_pct",
                      overhead);
    }
  }
  std::printf("\nspans: %llu completed, %llu retained (%llu slow)\n",
              static_cast<unsigned long long>(tracer.completed()),
              static_cast<unsigned long long>(tracer.retained()),
              static_cast<unsigned long long>(tracer.slow_retained()));
  return 0;
}

int Run(const Config& cfg_in) {
  Config cfg = cfg_in;

  // Self-host when no external server was named: an in-process
  // ShardedIndex + KvServer on an ephemeral loopback port.
  SelfHost host;
  if (cfg.port == 0) {
    if (!host.Start(&cfg)) return 1;
    std::printf("self-hosted server: %zu keys, %d shards, %d workers, "
                "port %d\n",
                cfg.keys, cfg.shards, cfg.server_threads, cfg.port);
  }

  std::printf("open-loop: target %.0f qps over %d conns, pipeline %d, "
              "write %.2f, mget %.2f, hot %.2f, %d s\n",
              cfg.qps, cfg.conns, cfg.pipeline, cfg.write_frac,
              cfg.mget_frac, cfg.hot_frac, cfg.duration_s);
  std::fflush(stdout);

  std::vector<ConnStats> stats(static_cast<size_t>(cfg.conns));
  const Clock::time_point epoch = Clock::now();
  const uint64_t deadline_ns =
      static_cast<uint64_t>(cfg.duration_s) * 1000000000ULL;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(cfg.conns));
  for (int i = 0; i < cfg.conns; ++i) {
    threads.emplace_back(RunConn, std::cref(cfg), i, epoch, deadline_ns,
                         &stats[static_cast<size_t>(i)]);
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      static_cast<double>(NowNs(epoch)) / 1e9;

  ConnStats total;
  for (const ConnStats& s : stats) {
    total.requests += s.requests;
    total.replies += s.replies;
    total.errors += s.errors;
    total.latency_ns.Merge(s.latency_ns);
    for (int k = 0; k < kNumOpKinds; ++k) {
      total.op_latency_ns[k].Merge(s.op_latency_ns[k]);
    }
  }
  if (host.server != nullptr) host.server->Stop();

  const double achieved_qps =
      elapsed_s > 0 ? static_cast<double>(total.replies) / elapsed_s : 0;
  const uint64_t p50 = total.latency_ns.Percentile(0.50);
  const uint64_t p99 = total.latency_ns.Percentile(0.99);
  const uint64_t p999 = total.latency_ns.Percentile(0.999);
  const uint64_t max_ns = total.latency_ns.Max();

  std::printf("\n%-14s %12s %12s %10s\n", "", "requests", "replies",
              "errors");
  std::printf("%-14s %12llu %12llu %10llu\n", "totals",
              static_cast<unsigned long long>(total.requests),
              static_cast<unsigned long long>(total.replies),
              static_cast<unsigned long long>(total.errors));
  std::printf("\nachieved %.0f qps (target %.0f) over %.2f s\n",
              achieved_qps, cfg.qps, elapsed_s);
  std::printf("latency from scheduled arrival: p50 %.1f us, p99 %.1f us, "
              "p99.9 %.1f us, max %.1f us\n",
              static_cast<double>(p50) / 1e3,
              static_cast<double>(p99) / 1e3,
              static_cast<double>(p999) / 1e3,
              static_cast<double>(max_ns) / 1e3);

  // Per-opcode breakdown: a p999 regression confined to PUTs (write
  // barriers breaking coalesced runs) looks totally different from one
  // confined to MGETs (batch sizing), and the blended histogram hides
  // which it is.
  std::printf("\n%-12s %10s %10s %10s %10s\n", "op", "replies",
              "p50_us", "p99_us", "p999_us");
  for (int k = 0; k < kNumOpKinds; ++k) {
    const obs::LogHistogram& h = total.op_latency_ns[k];
    if (h.Count() == 0) continue;
    std::printf("%-12s %10llu %10.1f %10.1f %10.1f\n", kOpKindNames[k],
                static_cast<unsigned long long>(h.Count()),
                static_cast<double>(h.Percentile(0.50)) / 1e3,
                static_cast<double>(h.Percentile(0.99)) / 1e3,
                static_cast<double>(h.Percentile(0.999)) / 1e3);
  }

  char config[160];
  std::snprintf(config, sizeof(config),
                "qps%.0f/conns%d/depth%d/wf%.2f/hot%.2f", cfg.qps,
                cfg.conns, cfg.pipeline, cfg.write_frac, cfg.hot_frac);
  bench::EmitJson("bb_serve", config, "achieved_qps", achieved_qps);
  bench::EmitJson("bb_serve", config, "p50_ns",
                  static_cast<double>(p50));
  bench::EmitJson("bb_serve", config, "p99_ns",
                  static_cast<double>(p99));
  bench::EmitJson("bb_serve", config, "p999_ns",
                  static_cast<double>(p999));
  if (bench::JsonEnabled()) {
    std::string ops_json = "{";
    bool first = true;
    for (int k = 0; k < kNumOpKinds; ++k) {
      const obs::LogHistogram& h = total.op_latency_ns[k];
      if (h.Count() == 0) continue;
      char buf[256];
      std::snprintf(
          buf, sizeof(buf),
          "%s\"%s\":{\"replies\":%llu,\"p50_ns\":%llu,\"p99_ns\":%llu,"
          "\"p999_ns\":%llu}",
          first ? "" : ",", kOpKindNames[k],
          static_cast<unsigned long long>(h.Count()),
          static_cast<unsigned long long>(h.Percentile(0.50)),
          static_cast<unsigned long long>(h.Percentile(0.99)),
          static_cast<unsigned long long>(h.Percentile(0.999)));
      first = false;
      ops_json += buf;
    }
    ops_json += "}";
    std::printf(
        "{\"bench\":\"bb_serve\",\"config\":\"%s\",\"slo\":{"
        "\"target_qps\":%.17g,\"achieved_qps\":%.17g,\"requests\":%llu,"
        "\"replies\":%llu,\"errors\":%llu,\"p50_ns\":%llu,"
        "\"p99_ns\":%llu,\"p999_ns\":%llu,\"max_ns\":%llu},"
        "\"ops\":%s}\n",
        bench::JsonEscape(config).c_str(), cfg.qps, achieved_qps,
        static_cast<unsigned long long>(total.requests),
        static_cast<unsigned long long>(total.replies),
        static_cast<unsigned long long>(total.errors),
        static_cast<unsigned long long>(p50),
        static_cast<unsigned long long>(p99),
        static_cast<unsigned long long>(p999),
        static_cast<unsigned long long>(max_ns), ops_json.c_str());
  }

  // --slo-target: run the monitor's burn-rate math over the whole run.
  // Burn > 1 means the error budget was consumed faster than it
  // accrues, i.e. this build cannot hold the stated SLO at this load.
  if (cfg.slo_target > 0) {
    obs::SloConfig sc;
    sc.availability_target = cfg.slo_target;
    sc.latency_threshold_ns =
        static_cast<uint64_t>(cfg.slo_latency_ms * 1e6);
    sc.latency_target = cfg.slo_latency_target;
    sc.window_s = elapsed_s;
    obs::SloWindowDelta delta;
    delta.requests = total.requests;
    delta.errors =
        total.errors + (total.requests - total.replies);  // lost = error
    delta.latency_samples = total.latency_ns.Count();
    delta.under_threshold =
        total.latency_ns.CountBelow(sc.latency_threshold_ns);
    delta.seconds = elapsed_s;
    const obs::SloReport rep = obs::EvaluateSlo(sc, delta);
    std::printf("\nSLO check: availability %.5f (target %.5f, burn "
                "%.2f), latency-ok %.5f (target %.5f at %.1f ms, burn "
                "%.2f)\n",
                rep.availability, sc.availability_target,
                rep.availability_burn, rep.latency_ok_fraction,
                sc.latency_target, cfg.slo_latency_ms, rep.latency_burn);
    bench::EmitJson("bb_serve", config, "availability_burn_rate",
                    rep.availability_burn);
    bench::EmitJson("bb_serve", config, "latency_burn_rate",
                    rep.latency_burn);
    if (rep.max_burn() > 1.0) {
      std::fprintf(stderr,
                   "SLO burn breach: max burn %.2f > 1.0 — failing\n",
                   rep.max_burn());
      return 1;
    }
  }

  // A run that produced no replies (server down, total stall) is a
  // failure even if nothing errored outright.
  return total.replies > 0 ? 0 : 1;
}

}  // namespace
}  // namespace simdtree

int main(int argc, char** argv) {
  simdtree::bench::ParseBenchArgs(argc, argv);
  simdtree::Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (std::strncmp(argv[i], "--host=", 7) == 0) {
      cfg.host = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--port=", 7) == 0) {
      cfg.port = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--qps=", 6) == 0) {
      cfg.qps = std::atof(argv[i] + 6);
    } else if (std::strncmp(argv[i], "--conns=", 8) == 0) {
      cfg.conns = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--pipeline=", 11) == 0) {
      cfg.pipeline = std::atoi(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--write-frac=", 13) == 0) {
      cfg.write_frac = std::atof(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--mget-frac=", 12) == 0) {
      cfg.mget_frac = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--lb-frac=", 10) == 0) {
      cfg.lb_frac = std::atof(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--slo-target=", 13) == 0) {
      cfg.slo_target = std::atof(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--slo-latency-ms=", 17) == 0) {
      cfg.slo_latency_ms = std::atof(argv[i] + 17);
    } else if (std::strncmp(argv[i], "--slo-latency-target=", 21) == 0) {
      cfg.slo_latency_target = std::atof(argv[i] + 21);
    } else if (std::strcmp(argv[i], "--ab-spans") == 0) {
      cfg.ab_spans = true;
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      cfg.reps = std::atoi(argv[i] + 7);
      if (cfg.reps < 1) cfg.reps = 1;
    } else if (std::strncmp(argv[i], "--ab-requests=", 14) == 0) {
      cfg.ab_requests = static_cast<uint64_t>(std::atoll(argv[i] + 14));
    } else if (std::strncmp(argv[i], "--hot-frac=", 11) == 0) {
      cfg.hot_frac = std::atof(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--keys=", 7) == 0) {
      cfg.keys = static_cast<size_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      cfg.server_threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      cfg.shards = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--duration-s=", 13) == 0) {
      cfg.duration_s = std::atoi(argv[i] + 13);
    } else {
      std::fprintf(
          stderr,
          "usage: bb_serve [--json] [--smoke] [--port=N] [--host=A]\n"
          "  [--qps=N] [--conns=N] [--pipeline=N] [--write-frac=F]\n"
          "  [--mget-frac=F] [--lb-frac=F] [--hot-frac=F] [--keys=N]\n"
          "  [--threads=N] [--shards=N] [--duration-s=N]\n"
          "  [--slo-target=F] [--slo-latency-ms=F]\n"
          "  [--slo-latency-target=F]\n"
          "  [--ab-spans] [--reps=N] [--ab-requests=N]\n");
      return 2;
    }
  }
  if (cfg.smoke) {
    // CI-sized: a couple of seconds at modest load on a small index.
    cfg.qps = 2000;
    cfg.conns = 2;
    cfg.keys = size_t{1} << 14;
    cfg.duration_s = 2;
    cfg.ab_requests = 20000;
    if (cfg.ab_spans) cfg.reps = 3;
  }
  if (cfg.conns < 1 || cfg.pipeline < 1 || cfg.qps <= 0 ||
      cfg.duration_s < 1 || cfg.keys < 1 || cfg.ab_requests < 1) {
    std::fprintf(stderr, "invalid configuration\n");
    return 2;
  }
  simdtree::bench::EmitJsonHeader();
  if (cfg.ab_spans) return simdtree::RunAbSpans(cfg);
  return simdtree::Run(cfg);
}
