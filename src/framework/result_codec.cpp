#include "framework/result_codec.h"

#include "util/error.h"

namespace dtfe {

namespace {

constexpr std::uint32_t kConfigMagic = 0x43464750u;  // "PGFC"
constexpr std::uint32_t kResultMagic = 0x52534C50u;  // "PLSR"
constexpr std::uint32_t kVersion = 9;

void write_options(ByteWriter& w, const PipelineOptions& o) {
  w.pod(o.field_length);
  w.pod(static_cast<std::uint64_t>(o.field_resolution));
  w.pod(static_cast<std::uint8_t>(o.load_balance));
  w.pod(static_cast<std::uint8_t>(o.keep_grids));
  w.str(o.kernel);
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
  const std::size_t n = r.len(1);
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
  w.pod(static_cast<std::uint8_t>(it.path));
  w.pod(static_cast<std::uint8_t>(it.failed));
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
  const auto path = r.pod<std::uint8_t>();
  DTFE_CHECK_MSG(path <= static_cast<std::uint8_t>(ItemPath::kReplay),
                 "worker payload: bad item path " << int{path});
  it.path = static_cast<ItemPath>(path);
  it.failed = r.pod<std::uint8_t>() != 0;
  it.cancelled = r.pod<std::uint8_t>() != 0;
  it.fail_reason = r.str();
  it.audit = r.str();
  it.kernel_failed_cells = r.pod<double>();
  it.kernel_perturb_restarts = r.pod<double>();
  return it;
}

}  // namespace

void write_field_grid(ByteWriter& w, const FieldGrid& grid) {
  w.pod(static_cast<std::uint64_t>(grid.kind()));
  w.pod(static_cast<std::uint64_t>(grid.channels()));
  w.pod(static_cast<std::uint64_t>(grid.nx()));
  w.pod(static_cast<std::uint64_t>(grid.ny()));
  for (std::size_t c = 0; c < grid.channels(); ++c)
    w.pods(grid.plane(c).values());
}

FieldGrid read_field_grid(ByteReader& r) {
  const auto kind_raw = r.pod<std::uint64_t>();
  DTFE_CHECK_MSG(kind_raw <= static_cast<std::uint64_t>(FieldKind::kGrad),
                 "field grid: bad field kind " << kind_raw);
  const auto kind = static_cast<FieldKind>(kind_raw);
  const auto nplanes = r.pod<std::uint64_t>();
  DTFE_CHECK_MSG(nplanes == field_channels(kind),
                 "field grid: " << nplanes << " planes for field "
                                << field_kind_name(kind));
  const auto nx = static_cast<std::size_t>(r.pod<std::uint64_t>());
  const auto ny = static_cast<std::size_t>(r.pod<std::uint64_t>());
  DTFE_CHECK_MSG(checked_cells("field grid", nx, ny, nplanes) <=
                     r.left() / sizeof(double),
                 "field grid: " << nplanes << " planes of " << nx << "x" << ny
                                << " overrun the buffer");
  std::vector<Grid2D> planes(nplanes, Grid2D(nx, ny));
  for (Grid2D& plane : planes) r.pods(plane.values());
  return FieldGrid(kind, std::move(planes));
}

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
  ByteReader r(bytes, "launch config");
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
  w.pod(static_cast<std::uint64_t>(res.packages_lost));
  w.pod(res.bad_particles);
  w.pod_vec(res.failed_ranks);
  w.pod(res.predicted_local_time);
  return w.take();
}

WorkerPayload decode_worker_payload(std::span<const std::byte> bytes) {
  ByteReader r(bytes, "worker payload");
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
  const std::size_t n_items = r.len(1);
  res.items.reserve(n_items);
  for (std::size_t i = 0; i < n_items; ++i) res.items.push_back(read_item(r));
  const std::size_t n_grids = r.len(1);
  res.grids.reserve(n_grids);
  for (std::size_t i = 0; i < n_grids; ++i)
    res.grids.push_back(read_field_grid(r));
  res.owned_particles = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.ghost_particles = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.local_items = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.items_sent = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.packages_lost = static_cast<std::size_t>(r.pod<std::uint64_t>());
  res.bad_particles = r.pod<SanitizeCounts>();
  res.failed_ranks = r.pod_vec<int>();
  res.predicted_local_time = r.pod<double>();
  return p;
}

}  // namespace dtfe
