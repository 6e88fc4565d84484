// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms (the measurement substrate behind the reproduction's timing
// claims: every perf PR regresses against these instead of ad-hoc printfs).
//
// Design goals, in order:
//   1. Disabled mode is a no-op cheap enough for per-ray call sites: one
//      relaxed atomic load and a predictable branch (enforced by
//      bench/micro_obs + scripts/check_obs_overhead.sh).
//   2. Enabled-mode hot-path increments are uncontended: every thread owns a
//      private shard of slots, and a MetricId carries its slot layout (plus
//      a stable pointer to histogram bounds), so add()/observe() never read
//      the registry's containers or take the registry mutex. Only snapshot()
//      touches other threads' shards, through each shard's own mutex.
//   3. No dependencies: this library sits below delaunay/dtfe/framework/
//      simmpi in the link order so all of them can emit metrics.
//
// Naming convention: `dtfe.<layer>.<name>`, e.g. `dtfe.delaunay.walk_steps`,
// `dtfe.simmpi.bytes_sent` (documented in README "Observability").
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dtfe::obs {

enum class MetricKind : std::uint32_t { kCounter = 0, kGauge, kHistogram };

/// Handle to a registered metric; cheap to copy, valid for the registry's
/// lifetime. Obtain via MetricsRegistry::counter()/gauge()/histogram().
/// Carries everything the hot path needs so increments are registry-lock-free.
struct MetricId {
  std::uint32_t slot = UINT32_MAX;  ///< shard slot base (gauge: gauge index)
  MetricKind kind = MetricKind::kCounter;
  const std::vector<double>* bounds = nullptr;  ///< histograms only
  bool valid() const { return slot != UINT32_MAX; }
};

/// Merged view of one histogram: counts per bucket (bounds.size() + 1
/// entries, bucket b covering values <= bounds[b], the last catching
/// overflow), plus sum and count of all observations.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<double> counts;
  double sum = 0.0;
  double count = 0.0;
};

/// Point-in-time merged view across all threads (live and exited).
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  /// The process-wide registry all library instrumentation reports to.
  static MetricsRegistry& global();

  /// Master switch. Disabled (the default) makes add()/observe()/set() no-ops
  /// so benchmarks are unperturbed; registration still works while disabled.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Register (or look up) a metric. Re-registering the same name with the
  /// same kind returns the existing id; a kind mismatch throws.
  MetricId counter(const std::string& name);
  MetricId gauge(const std::string& name);
  MetricId histogram(const std::string& name, std::vector<double> bounds);

  /// Add `v` to a counter. No-op when disabled or id is invalid.
  void add(MetricId id, double v = 1.0) {
    if (!enabled() || !id.valid()) return;
    slot_add(id.slot, v);
  }

  /// Record one observation into a histogram. No-op when disabled.
  void observe(MetricId id, double v);

  /// Set a gauge (last write wins, process-global). No-op when disabled.
  void set(MetricId id, double v);

  /// Merge every thread's shard into one consistent view. Safe to call
  /// concurrently with increments (per-shard locking; shards of exited
  /// threads persist until the registry dies, so their tallies stay visible).
  MetricsSnapshot snapshot() const;

  /// Zero all slots and gauges. Registered metrics survive.
  void reset();

 private:
  struct Descriptor {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::size_t slot_base = 0;   ///< first slot in a shard's slot array
    std::vector<double> bounds;  ///< histogram bucket upper bounds
    std::size_t gauge_index = 0; ///< gauges live outside the shards
  };

  struct Shard {
    mutable std::mutex mutex;
    std::vector<double> slots;
  };

  MetricId register_metric(const std::string& name, MetricKind kind,
                           std::vector<double> bounds);
  Shard& my_shard();
  void slot_add(std::size_t slot, double v);

  std::atomic<bool> enabled_{false};
  const std::uint64_t uid_;   ///< guards thread-local shard-cache reuse
  mutable std::mutex mutex_;  // guards everything below
  std::deque<Descriptor> descriptors_;  ///< deque: element refs stay stable
  std::map<std::string, std::size_t> by_name_;
  std::size_t next_slot_ = 0;
  std::deque<double> gauges_;
  std::deque<bool> gauge_set_;
  std::vector<Shard*> live_shards_;  ///< owned; freed with the registry
};

/// Convenience wrappers over the global registry, for call sites that do not
/// want to cache a registry reference.
inline MetricId counter(const std::string& name) {
  return MetricsRegistry::global().counter(name);
}
inline MetricId gauge(const std::string& name) {
  return MetricsRegistry::global().gauge(name);
}
inline MetricId histogram(const std::string& name, std::vector<double> bounds) {
  return MetricsRegistry::global().histogram(name, std::move(bounds));
}
inline void add(MetricId id, double v = 1.0) {
  MetricsRegistry::global().add(id, v);
}
inline void observe(MetricId id, double v) {
  MetricsRegistry::global().observe(id, v);
}
inline void set(MetricId id, double v) { MetricsRegistry::global().set(id, v); }
inline bool metrics_enabled() { return MetricsRegistry::global().enabled(); }

}  // namespace dtfe::obs
