#include "obs/metrics.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "core/olc.h"
#include "simd/dispatch.h"

namespace simdtree::obs {

namespace {

// Captured at static initialization so process_uptime_seconds measures
// from load, not from the first scrape.
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

// Minimal escaping for metric names (quotes and backslashes only; names
// are ASCII identifiers by convention).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FmtU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

// What madvised slabs can get from the kernel: the selected
// transparent-hugepage mode ("always", "madvise" or "never", the bracketed
// word of the sysfs file), "never" where the file is absent, and "off"
// when SIMDTREE_DISABLE_HUGEPAGES skips the madvise.
std::string HugepageMode() {
  if (!mem::HugepagesEnabled()) return "off";
  std::string mode = "never";
  if (FILE* f = std::fopen("/sys/kernel/mm/transparent_hugepage/enabled",
                           "r")) {
    char line[128];
    if (std::fgets(line, sizeof(line), f) != nullptr) {
      const std::string s = line;
      const size_t open = s.find('[');
      const size_t close = s.find(']', open);
      if (open != std::string::npos && close != std::string::npos) {
        mode = s.substr(open + 1, close - open - 1);
      }
    }
    std::fclose(f);
  }
  return mode;
}

// Bytes of this process's anonymous memory the kernel backs with
// transparent hugepages (AnonHugePages in /proc/self/smaps_rollup), or 0
// where the file is absent.
uint64_t AnonHugepageBytes() {
  uint64_t kb = 0;
  if (FILE* f = std::fopen("/proc/self/smaps_rollup", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "AnonHugePages: %" SCNu64 " kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return kb * 1024;
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LogHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LogHistogram>();
  return slot.get();
}

ExemplarStore* MetricsRegistry::GetExemplars(
    const std::string& histogram_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = exemplars_[histogram_name];
  if (slot == nullptr) slot = std::make_unique<ExemplarStore>();
  return slot.get();
}

void MetricsRegistry::SetInfo(const std::string& name, LabelSet labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  infos_[name] = std::move(labels);
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + FmtU64(counter->Get());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + FmtDouble(gauge->Get());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":{";
    out += "\"count\":" + FmtU64(hist->Count());
    out += ",\"mean\":" + FmtDouble(hist->Mean());
    out += ",\"p50\":" + FmtU64(hist->Percentile(0.50));
    out += ",\"p95\":" + FmtU64(hist->Percentile(0.95));
    out += ",\"p99\":" + FmtU64(hist->Percentile(0.99));
    out += ",\"p999\":" + FmtU64(hist->Percentile(0.999));
    out += ",\"max\":" + FmtU64(hist->Max());
    out += "}";
  }
  out += "}";
  // Info metrics render as label-set objects. Emitted only when
  // present, so documents from registries that never call SetInfo keep
  // their historical shape.
  if (!infos_.empty()) {
    out += ",\"infos\":{";
    first = true;
    for (const auto& [name, labels] : infos_) {
      if (!first) out += ",";
      first = false;
      out += "\"" + JsonEscape(name) + "\":{";
      bool first_label = true;
      for (const auto& [k, v] : labels) {
        if (!first_label) out += ",";
        first_label = false;
        out += "\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
      }
      out += "}";
    }
    out += "}";
  }
  out += "}";
  return out;
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->Get());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->Get());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.emplace_back(name, hist.get());
  }
  snap.exemplars.reserve(exemplars_.size());
  for (const auto& [name, store] : exemplars_) {
    snap.exemplars.emplace_back(name, store.get());
  }
  snap.infos.reserve(infos_.size());
  for (const auto& [name, labels] : infos_) {
    snap.infos.emplace_back(name, labels);
  }
  return snap;
}

void MetricsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  exemplars_.clear();
  infos_.clear();
}

IndexMetrics IndexMetrics::Register(const std::string& prefix) {
  // Warm the TSC calibration here, on the cold path: ScopedDurationNs
  // converts cycles to ns inside instrumented operations, and the first
  // CyclesPerSecond() call spins ~20ms — uncached, that spin would land
  // inside the caller's first timed operation as a 20ms latency outlier.
  CycleTimer::CyclesPerSecond();
  MetricsRegistry& reg = MetricsRegistry::Global();
  IndexMetrics m;
  m.reads = reg.GetCounter(prefix + ".reads");
  m.writes = reg.GetCounter(prefix + ".writes");
  m.batches = reg.GetCounter(prefix + ".batches");
  m.batch_keys = reg.GetCounter(prefix + ".batch_keys");
  m.batch_size = reg.GetHistogram(prefix + ".batch_size");
  m.read_lock_ns = reg.GetHistogram(prefix + ".read_lock_ns");
  m.write_lock_ns = reg.GetHistogram(prefix + ".write_lock_ns");
  m.shard_imbalance = reg.GetGauge(prefix + ".shard_imbalance");
  m.arena_bytes = reg.GetGauge(prefix + ".arena_bytes");
  m.arena_utilization = reg.GetGauge(prefix + ".arena_utilization");
  m.arena_slabs = reg.GetGauge(prefix + ".arena_slabs");
  return m;
}

OlcMetrics OlcMetrics::Register() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  OlcMetrics m;
  m.read_retries = reg.GetCounter("olc.read_retries");
  m.fallback_acquisitions = reg.GetCounter("olc.fallback_acquisitions");
  m.epoch_current = reg.GetGauge("epoch.current");
  m.epoch_deferred_slabs = reg.GetGauge("epoch.deferred_slabs");
  m.epoch_deferred_blocks = reg.GetGauge("epoch.deferred_blocks");
  return m;
}

void PublishBuildInfo() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const simd::DispatchDecision& d = simd::ActiveDispatch();
  char bits[16];
  std::snprintf(bits, sizeof(bits), "%d", d.register_bits);
#if defined(SIMDTREE_GIT_SHA)
  const char* sha = SIMDTREE_GIT_SHA;
#else
  const char* sha = "unknown";
#endif
  reg.SetInfo("simdtree_build_info",
              {{"git_sha", sha},
               {"backend", simd::DispatchLevelName(d.level)},
               {"simd_register_bits", bits},
               {"hugepages", HugepageMode()}});
  reg.GetGauge("mem.anon_hugepages_bytes")
      ->Set(static_cast<double>(AnonHugepageBytes()));
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    g_process_start)
          .count();
  reg.GetGauge("process_uptime_seconds")->Set(uptime);
}

void PublishEpochStats() {
  const olc::EpochManager& em = olc::EpochManager::Global();
  const OlcMetrics m = OlcMetrics::Register();
  m.epoch_current->Set(static_cast<double>(em.current()));
  m.epoch_deferred_slabs->Set(static_cast<double>(em.deferred_slabs()));
  m.epoch_deferred_blocks->Set(static_cast<double>(em.deferred_blocks()));
}

}  // namespace simdtree::obs
