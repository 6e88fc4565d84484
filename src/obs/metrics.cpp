#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace dtfe::obs {

namespace {
std::uint64_t next_registry_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Thread-local cache mapping a registry instance to this thread's shard.
// Keyed by (pointer, uid) so a registry address reused after destruction
// cannot resurrect a stale shard pointer. Shards are owned by the registry,
// not the thread, so nothing here needs a destructor.
struct ShardCacheEntry {
  const void* registry = nullptr;
  std::uint64_t uid = 0;
  void* shard = nullptr;
};
thread_local std::vector<ShardCacheEntry> t_shard_cache;
}  // namespace

MetricsRegistry::MetricsRegistry() : uid_(next_registry_uid()) {}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: instrumented code may run during static destruction.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

MetricsRegistry::~MetricsRegistry() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Shard* s : live_shards_) delete s;
  live_shards_.clear();
}

MetricId MetricsRegistry::register_metric(const std::string& name,
                                          MetricKind kind,
                                          std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    const Descriptor& d = descriptors_[it->second];
    if (d.kind != kind)
      throw std::logic_error("obs metric '" + name +
                             "' re-registered with a different kind");
    return {static_cast<std::uint32_t>(d.kind == MetricKind::kGauge
                                           ? d.gauge_index
                                           : d.slot_base),
            d.kind, d.kind == MetricKind::kHistogram ? &d.bounds : nullptr};
  }
  Descriptor d;
  d.name = name;
  d.kind = kind;
  if (kind == MetricKind::kGauge) {
    d.gauge_index = gauges_.size();
    gauges_.push_back(0.0);
    gauge_set_.push_back(false);
  } else {
    std::sort(bounds.begin(), bounds.end());
    d.bounds = std::move(bounds);
    d.slot_base = next_slot_;
    // Counter: 1 slot. Histogram: bounds+1 bucket counts, then sum, count.
    next_slot_ += kind == MetricKind::kCounter ? 1 : d.bounds.size() + 3;
  }
  descriptors_.push_back(std::move(d));
  const Descriptor& stored = descriptors_.back();
  by_name_.emplace(name, descriptors_.size() - 1);
  return {static_cast<std::uint32_t>(kind == MetricKind::kGauge
                                         ? stored.gauge_index
                                         : stored.slot_base),
          kind,
          kind == MetricKind::kHistogram ? &stored.bounds : nullptr};
}

MetricId MetricsRegistry::counter(const std::string& name) {
  return register_metric(name, MetricKind::kCounter, {});
}

MetricId MetricsRegistry::gauge(const std::string& name) {
  return register_metric(name, MetricKind::kGauge, {});
}

MetricId MetricsRegistry::histogram(const std::string& name,
                                    std::vector<double> bounds) {
  return register_metric(name, MetricKind::kHistogram, std::move(bounds));
}

MetricsRegistry::Shard& MetricsRegistry::my_shard() {
  for (const ShardCacheEntry& e : t_shard_cache)
    if (e.registry == this && e.uid == uid_)
      return *static_cast<Shard*>(e.shard);
  auto* shard = new Shard();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_shards_.push_back(shard);
  }
  t_shard_cache.push_back({this, uid_, shard});
  return *shard;
}

void MetricsRegistry::slot_add(std::size_t slot, double v) {
  Shard& s = my_shard();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (slot >= s.slots.size()) s.slots.resize(slot + 1, 0.0);
  s.slots[slot] += v;
}

void MetricsRegistry::observe(MetricId id, double v) {
  if (!enabled() || !id.valid() || id.kind != MetricKind::kHistogram) return;
  const std::vector<double>& bounds = *id.bounds;
  const std::size_t nb = bounds.size();
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
  Shard& s = my_shard();
  std::lock_guard<std::mutex> lock(s.mutex);
  const std::size_t top = id.slot + nb + 2;
  if (top >= s.slots.size()) s.slots.resize(top + 1, 0.0);
  s.slots[id.slot + bucket] += 1.0;
  s.slots[id.slot + nb + 1] += v;    // sum
  s.slots[id.slot + nb + 2] += 1.0;  // count
}

void MetricsRegistry::set(MetricId id, double v) {
  if (!enabled() || !id.valid() || id.kind != MetricKind::kGauge) return;
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[id.slot] = v;
  gauge_set_[id.slot] = true;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> totals(next_slot_, 0.0);
  for (const Shard* s : live_shards_) {
    std::lock_guard<std::mutex> slock(s->mutex);
    const std::size_t n = std::min(s->slots.size(), totals.size());
    for (std::size_t i = 0; i < n; ++i) totals[i] += s->slots[i];
  }
  for (const Descriptor& d : descriptors_) {
    switch (d.kind) {
      case MetricKind::kCounter:
        out.counters[d.name] = totals[d.slot_base];
        break;
      case MetricKind::kGauge:
        if (gauge_set_[d.gauge_index])
          out.gauges[d.name] = gauges_[d.gauge_index];
        break;
      case MetricKind::kHistogram: {
        HistogramSnapshot h;
        h.bounds = d.bounds;
        const std::size_t nb = d.bounds.size();
        h.counts.resize(nb + 1);
        for (std::size_t b = 0; b <= nb; ++b)
          h.counts[b] = totals[d.slot_base + b];
        h.sum = totals[d.slot_base + nb + 1];
        h.count = totals[d.slot_base + nb + 2];
        out.histograms[d.name] = std::move(h);
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Shard* s : live_shards_) {
    std::lock_guard<std::mutex> slock(s->mutex);
    std::fill(s->slots.begin(), s->slots.end(), 0.0);
  }
  std::fill(gauges_.begin(), gauges_.end(), 0.0);
  std::fill(gauge_set_.begin(), gauge_set_.end(), false);
}

}  // namespace dtfe::obs
