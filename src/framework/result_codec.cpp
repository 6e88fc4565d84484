#include "framework/result_codec.h"

#include <cstring>
#include <type_traits>

#include "util/error.h"

namespace dtfe {

namespace {

constexpr std::uint32_t kConfigMagic = 0x43464750u;  // "PGFC"
constexpr std::uint32_t kResultMagic = 0x52534C50u;  // "PLSR"
// v2: PipelineOptions gained field/smooth_ensemble, grids became
// multi-channel FieldGrids, and WorkerPayload ships histogram snapshots.
// v3: PipelineOptions gained the marching kernel's SIMD A/B switch.
// v4: that switch is gone again (the marching kernel has one route).
// v5: PipelineOptions lost the item look-ahead window (one item path).
// v6: PipelineOptions lost the fault-tolerance switch (always acknowledged).
// v7: PipelineOptions lost cube_pad, min_particles, count_grid_cells, seed,
//     watchdog_slack and min_item_deadline_ms (now compile-time constants).
constexpr std::uint32_t kVersion = 7;

class ByteWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }
  void str(const std::string& s) {
    pod(static_cast<std::uint64_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }
  template <typename T>
  void pod_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pod(static_cast<std::uint64_t>(v.size()));
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
  }
  void map(const std::map<std::string, double>& m) {
    pod(static_cast<std::uint64_t>(m.size()));
    for (const auto& [k, v] : m) {
      str(k);
      pod(v);
    }
  }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return v;
  }
  std::string str() {
    const auto n = len();
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + off_), n);
    off_ += n;
    return s;
  }
  template <typename T>
  std::vector<T> pod_vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = len();
    need(n * sizeof(T));
    std::vector<T> v(n);
    std::memcpy(v.data(), bytes_.data() + off_, n * sizeof(T));
    off_ += n * sizeof(T);
    return v;
  }
  std::map<std::string, double> map() {
    const auto n = len();
    std::map<std::string, double> m;
    for (std::size_t i = 0; i < n; ++i) {
      std::string k = str();
      m[std::move(k)] = pod<double>();
    }
    return m;
  }
  std::size_t len() {
    const auto n = pod<std::uint64_t>();
    DTFE_CHECK_MSG(n <= bytes_.size(),
                   "worker payload: length " << n << " exceeds buffer");
    return static_cast<std::size_t>(n);
  }
  bool done() const { return off_ == bytes_.size(); }

 private:
  void need(std::size_t n) {
    DTFE_CHECK_MSG(off_ + n <= bytes_.size(),
                   "worker payload: truncated at offset " << off_);
  }
  std::span<const std::byte> bytes_;
  std::size_t off_ = 0;
};

void write_options(ByteWriter& w, const PipelineOptions& o) {
  w.pod(o.field_length);
  w.pod(static_cast<std::uint64_t>(o.field_resolution));
  w.pod(static_cast<std::uint8_t>(o.load_balance));
  w.pod(static_cast<std::uint8_t>(o.keep_grids));
  w.str(o.kernel);
  w.pod(o.max_retries);
  w.pod(o.comm_timeout_ms);
  w.pod(static_cast<std::int32_t>(o.bad_particles));
  w.str(o.checkpoint_dir);
  w.pod(static_cast<std::uint8_t>(o.resume));
  w.pod(o.item_deadline_ms);
  w.pod(o.audit);  // trivially copyable
  w.pod(static_cast<std::uint8_t>(o.audit_fatal));
  w.pod(o.threads);
  w.pod(static_cast<std::uint64_t>(o.field));
  w.pod(o.smooth_ensemble);
}

PipelineOptions read_options(ByteReader& r) {
  PipelineOptions o;
  o.field_length = r.pod<double>();
  o.field_resolution = static_cast<std::size_t>(r.pod<std::uint64_t>());
  o.load_balance = r.pod<std::uint8_t>() != 0;
  o.keep_grids = r.pod<std::uint8_t>() != 0;
  o.kernel = r.str();
  o.max_retries = r.pod<int>();
  o.comm_timeout_ms = r.pod<int>();
  o.bad_particles = static_cast<BadParticlePolicy>(r.pod<std::int32_t>());
  o.checkpoint_dir = r.str();
  o.resume = r.pod<std::uint8_t>() != 0;
  o.item_deadline_ms = r.pod<double>();
  o.audit = r.pod<AuditOptions>();
  o.audit_fatal = r.pod<std::uint8_t>() != 0;
  o.threads = r.pod<int>();
  o.field = static_cast<FieldKind>(r.pod<std::uint64_t>());
  o.smooth_ensemble = r.pod<int>();
  return o;
}

void write_field_grid(ByteWriter& w, const FieldGrid& g) {
  w.pod(static_cast<std::uint64_t>(g.kind()));
  w.pod(static_cast<std::uint64_t>(g.channels()));
  for (std::size_t c = 0; c < g.channels(); ++c) {
    const Grid2D& plane = g.plane(c);
    w.pod(static_cast<std::uint64_t>(plane.nx()));
    w.pod(static_cast<std::uint64_t>(plane.ny()));
    std::vector<double> vals(plane.values().begin(), plane.values().end());
    w.pod_vec(vals);
  }
}

FieldGrid read_field_grid(ByteReader& r) {
  const std::uint64_t kind_raw = r.pod<std::uint64_t>();
  DTFE_CHECK_MSG(kind_raw <= static_cast<std::uint64_t>(FieldKind::kGrad),
                 "worker payload: bad field kind " << kind_raw);
  const auto kind = static_cast<FieldKind>(kind_raw);
  const std::size_t nplanes = r.len();
  DTFE_CHECK_MSG(nplanes == field_channels(kind),
                 "worker payload: plane count mismatch for field "
                     << field_kind_name(kind));
  std::vector<Grid2D> planes;
  planes.reserve(nplanes);
  for (std::size_t c = 0; c < nplanes; ++c) {
    const auto nx = static_cast<std::size_t>(r.pod<std::uint64_t>());
    const auto ny = static_cast<std::size_t>(r.pod<std::uint64_t>());
    const std::vector<double> vals = r.pod_vec<double>();
    DTFE_CHECK_MSG(vals.size() == nx * ny,
                   "worker payload: grid size mismatch");
    Grid2D g(nx, ny);
    std::memcpy(g.values().data(), vals.data(), vals.size() * sizeof(double));
    planes.push_back(std::move(g));
  }
  return FieldGrid(kind, std::move(planes));
}

void write_histograms(
    ByteWriter& w, const std::map<std::string, obs::HistogramSnapshot>& hs) {
  w.pod(static_cast<std::uint64_t>(hs.size()));
  for (const auto& [name, h] : hs) {
    w.str(name);
    w.pod_vec(h.bounds);
    w.pod_vec(h.counts);
    w.pod(h.sum);
    w.pod(h.count);
  }
}

std::map<std::string, obs::HistogramSnapshot> read_histograms(ByteReader& r) {
  const std::size_t n = r.len();
  std::map<std::string, obs::HistogramSnapshot> hs;
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = r.str();
    obs::HistogramSnapshot h;
    h.bounds = r.pod_vec<double>();
    h.counts = r.pod_vec<double>();
    h.sum = r.pod<double>();
    h.count = r.pod<double>();
    hs[std::move(name)] = std::move(h);
  }
  return hs;
}

void write_item(ByteWriter& w, const ItemRecord& it) {
  w.pod(it.center);
  w.pod(static_cast<std::int64_t>(it.request_index));
  w.pod(it.n_particles);
  w.pod(it.predicted_tri);
  w.pod(it.predicted_interp);
  w.pod(it.actual_tri);
  w.pod(it.actual_interp);
  w.pod(it.grid_sum);
  w.pod(static_cast<std::uint8_t>(it.received));
  w.pod(static_cast<std::uint8_t>(it.failed));
  w.pod(static_cast<std::uint8_t>(it.recovered));
  w.pod(static_cast<std::uint8_t>(it.fallback));
  w.pod(static_cast<std::uint8_t>(it.replayed));
  w.pod(static_cast<std::uint8_t>(it.cancelled));
  w.str(it.fail_reason);
  w.str(it.audit);
  w.pod(it.kernel_failed_cells);
  w.pod(it.kernel_perturb_restarts);
}

ItemRecord read_item(ByteReader& r) {
  ItemRecord it;
  it.center = r.pod<Vec3>();
  it.request_index = static_cast<std::ptrdiff_t>(r.pod<std::int64_t>());
  it.n_particles = r.pod<double>();
  it.predicted_tri = r.pod<double>();
  it.predicted_interp = r.pod<double>();
  it.actual_tri = r.pod<double>();
  it.actual_interp = r.pod<double>();
  it.grid_sum = r.pod<double>();
  it.received = r.pod<std::uint8_t>() != 0;
  it.failed = r.pod<std::uint8_t>() != 0;
  it.recovered = r.pod<std::uint8_t>() != 0;
  it.fallback = r.pod<std::uint8_t>() != 0;
  it.replayed = r.pod<std::uint8_t>() != 0;
  it.cancelled = r.pod<std::uint8_t>() != 0;
  it.fail_reason = r.str();
  it.audit = r.str();
  it.kernel_failed_cells = r.pod<double>();
  it.kernel_perturb_restarts = r.pod<double>();
  return it;
}

}  // namespace

std::vector<std::byte> encode_launch_config(const LaunchConfig& cfg) {
  ByteWriter w;
  w.pod(kConfigMagic);
  w.pod(kVersion);
  w.str(cfg.snapshot);
  write_options(w, cfg.pipeline);
  w.pod_vec(cfg.field_centers);
  return w.take();
}

LaunchConfig decode_launch_config(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  DTFE_CHECK_MSG(r.pod<std::uint32_t>() == kConfigMagic,
                 "launch config: bad magic");
  DTFE_CHECK_MSG(r.pod<std::uint32_t>() == kVersion,
                 "launch config: version mismatch");
  LaunchConfig cfg;
  cfg.snapshot = r.str();
  cfg.pipeline = read_options(r);
  cfg.field_centers = r.pod_vec<Vec3>();
  return cfg;
}

std::vector<std::byte> encode_worker_payload(const WorkerPayload& p) {
  ByteWriter w;
  w.pod(kResultMagic);
  w.pod(kVersion);
  w.pod(p.rank);
  w.pod(p.wire);
  w.map(p.counters);
  w.map(p.gauges);
  write_histograms(w, p.histograms);
  const PipelineResult& res = p.result;
  w.pod(res.phases);
  w.pod(res.model);
  w.pod_vec(res.schedule.send_list);
  w.pod_vec(res.schedule.recv_list);
  w.pod(res.schedule.average_time);
  w.pod(static_cast<std::uint64_t>(res.items.size()));
  for (const ItemRecord& it : res.items) write_item(w, it);
  w.pod(static_cast<std::uint64_t>(res.grids.size()));
  for (const FieldGrid& g : res.grids) write_field_grid(w, g);
  w.pod(static_cast<std::uint64_t>(res.owned_particles));
  w.pod(static_cast<std::uint64_t>(res.ghost_particles));
  w.pod(static_cast<std::uint64_t>(res.local_items));
  w.pod(static_cast<std::uint64_t>(res.items_sent));
  w.pod(static_cast<std::uint64_t>(res.items_received));
  w.pod(static_cast<std::uint64_t>(res.items_failed));
  w.pod(static_cast<std::uint64_t>(res.items_fallback));
  w.pod(static_cast<std::uint64_t>(res.items_recovered));
  w.pod(static_cast<std::uint64_t>(res.items_replayed));
  w.pod(static_cast<std::uint64_t>(res.items_cancelled));
  w.pod(static_cast<std::uint64_t>(res.audit_violations));
  w.pod(static_cast<std::uint64_t>(res.package_retries));
  w.pod(static_cast<std::uint64_t>(res.packages_lost));
  w.pod(res.bad_particles);
  w.pod_vec(res.failed_ranks);
  w.pod(res.predicted_local_time);
  return w.take();
}

WorkerPayload decode_worker_payload(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  DTFE_CHECK_MSG(r.pod<std::uint32_t>() == kResultMagic,
                 "worker payload: bad magic");
  DTFE_CHECK_MSG(r.pod<std::uint32_t>() == kVersion,
                 "worker payload: version mismatch");
  WorkerPayload p;
  p.rank = r.pod<int>();
  p.wire = r.pod<simmpi::TransportStats>();
  p.counters = r.map();
  p.gauges = r.map();
  p.histograms = read_histograms(r);
  PipelineResult& res = p.result;
  res.phases = r.pod<PhaseTimes>();
  res.model = r.pod<WorkloadModel>();
  res.schedule.send_list = r.pod_vec<PlannedSend>();
  res.schedule.recv_list = r.pod_vec<int>();
  res.schedule.average_time = r.pod<double>();
  const std::size_t n_items = r.len();
  res.items.reserve(n_items);
  for (std::size_t i = 0; i < n_items; ++i) res.items.push_back(read_item(r));
  const std::size_t n_grids = r.len();
  res.grids.reserve(n_grids);
  for (std::size_t i = 0; i < n_grids; ++i)
    res.grids.push_back(read_field_grid(r));
  res.owned_particles = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.ghost_particles = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.local_items = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.items_sent = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.items_received = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.items_failed = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.items_fallback = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.items_recovered = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.items_replayed = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.items_cancelled = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.audit_violations = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.package_retries = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.packages_lost = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.bad_particles = r.pod<SanitizeCounts>();
  res.failed_ranks = r.pod_vec<int>();
  res.predicted_local_time = r.pod<double>();
  return p;
}

}  // namespace dtfe
