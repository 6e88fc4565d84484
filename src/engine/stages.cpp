#include "engine/stages.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <span>
#include <string>

#include "engine/executor.h"
#include "engine/field_kernel.h"
#include "engine/phases.h"
#include "framework/crash.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/retry.h"
#include "util/timer.h"

namespace dtfe::engine {

namespace {

constexpr int kTagWork = 200;
constexpr int kTagWorkAck = 201;

/// Acknowledgement for one work package, identified by its sequence number.
struct WorkAck {
  std::int32_t code = 0;
  std::int32_t seq = 0;  ///< -1 when the receiver never saw a valid header
};
constexpr std::int32_t kAckOk = 1;      ///< package validated, items accepted
constexpr std::int32_t kAckResend = 2;  ///< package missing/corrupt, send again
constexpr std::int32_t kAckGiveUp = 3;  ///< retries exhausted, sender keeps it

/// Accumulates the scope's thread-CPU seconds into a PhaseTimes field (via
/// ScopedTimer) and emits a phases::kCategory trace span whose `cpu_s`
/// argument is EXACTLY the accumulated value: tests/obs asserts that the
/// per-rank sum of `cpu_s` over pipeline spans reproduces
/// PhaseTimes::total(), so both must come from the same timer read.
class PhaseScope {
 public:
  PhaseScope(const char* name, double& accumulator)
      : name_(name),
        timer_(accumulator),
        start_us_(obs::TraceRecorder::global().now_us()) {}
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope() {
    const double cpu = timer_.stop();
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    if (rec.enabled())
      rec.emit_complete(name_, phases::kCategory, start_us_,
                        rec.now_us() - start_us_, {{"cpu_s", cpu}});
  }

 private:
  const char* name_;
  ScopedTimer timer_;
  double start_us_;
};

// Work package wire format, all doubles:
//   header  [kPackMagic, seq, n_payload, checksum(payload)]
//   payload [n_items, {req_idx, cx, cy, cz, count, xyz...}...]
// seq starts at 1 and increases per sender, so a receiver can reject stale
// duplicates; the checksum lets it detect corruption and request a resend.
constexpr double kPackMagic = 7119720.0;

/// FNV-1a over the payload bytes, folded to 32 bits so the value is exactly
/// representable as a double and the package stays a plain double buffer.
double payload_checksum(std::span<const double> payload) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(payload.data());
  const std::size_t n = payload.size() * sizeof(double);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return static_cast<double>(static_cast<std::uint32_t>(h ^ (h >> 32)));
}

std::vector<double> pack_items(
    int seq, const std::vector<std::ptrdiff_t>& request_ids,
    const std::vector<Vec3>& centers,
    const std::vector<std::vector<Vec3>>& particle_sets) {
  std::vector<double> buf(4, 0.0);
  buf.push_back(static_cast<double>(centers.size()));
  for (std::size_t i = 0; i < centers.size(); ++i) {
    buf.push_back(static_cast<double>(request_ids[i]));
    buf.push_back(centers[i].x);
    buf.push_back(centers[i].y);
    buf.push_back(centers[i].z);
    buf.push_back(static_cast<double>(particle_sets[i].size()));
    for (const Vec3& p : particle_sets[i]) {
      buf.push_back(p.x);
      buf.push_back(p.y);
      buf.push_back(p.z);
    }
  }
  buf[0] = kPackMagic;
  buf[1] = static_cast<double>(seq);
  buf[2] = static_cast<double>(buf.size() - 4);
  buf[3] = payload_checksum({buf.data() + 4, buf.size() - 4});
  return buf;
}

/// Full validation of a received package: header sanity, checksum, and a
/// structural walk of the payload so unpack_items cannot run off the end.
/// Returns an empty string when the package is good, else the reason.
std::string package_problem(const std::vector<double>& buf) {
  if (buf.size() < 5) return "package shorter than its header";
  if (buf[0] != kPackMagic) return "bad package magic";
  if (buf[2] != static_cast<double>(buf.size() - 4))
    return "package length mismatch (truncated or padded)";
  if (buf[3] != payload_checksum({buf.data() + 4, buf.size() - 4}))
    return "package checksum mismatch";
  const double n_items = buf[4];
  if (!(n_items >= 0.0) || n_items != std::floor(n_items))
    return "package item count is malformed";
  std::size_t pos = 5;
  for (double i = 0.0; i < n_items; i += 1.0) {
    if (pos + 5 > buf.size()) return "package payload is malformed";
    const double count = buf[pos + 4];
    if (!(count >= 0.0) || count != std::floor(count))
      return "package particle count is malformed";
    pos += 5 + 3 * static_cast<std::size_t>(count);
  }
  if (pos != buf.size()) return "package payload is malformed";
  return {};
}

void unpack_items(const std::vector<double>& buf,
                  std::vector<std::ptrdiff_t>& request_ids,
                  std::vector<Vec3>& centers,
                  std::vector<std::vector<Vec3>>& particle_sets) {
  DTFE_CHECK(buf.size() >= 5);
  std::size_t pos = 4;
  const auto n = static_cast<std::size_t>(buf[pos++]);
  request_ids.resize(n);
  centers.resize(n);
  particle_sets.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    request_ids[i] = static_cast<std::ptrdiff_t>(buf[pos++]);
    centers[i] = {buf[pos], buf[pos + 1], buf[pos + 2]};
    pos += 3;
    const auto count = static_cast<std::size_t>(buf[pos++]);
    particle_sets[i].resize(count);
    for (std::size_t k = 0; k < count; ++k) {
      particle_sets[i][k] = {buf[pos], buf[pos + 1], buf[pos + 2]};
      pos += 3;
    }
  }
  DTFE_CHECK(pos == buf.size());
}

bool finite3(const Vec3& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
}

/// Per-item kernel seed: a pure function of the pipeline seed and the
/// field center's bit patterns. Every data path that computes this item
/// derives the same seed, so renders replay bitwise on resume.
std::uint64_t item_seed(std::uint64_t base, const Vec3& center) {
  std::uint64_t h = base ^ 0x9e3779b97f4a7c15ull;
  for (const double v : {center.x, center.y, center.z}) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h ^= bits;
    h = detail::splitmix64(h);
  }
  return h ? h : 0x9e3779b97f4a7c15ull;
}

bool lex_less(const Vec3& a, const Vec3& b) {
  if (a.x != b.x) return a.x < b.x;
  if (a.y != b.y) return a.y < b.y;
  return a.z < b.z;
}

}  // namespace

PreparedItem prepare_item(const EngineState& state,
                          std::vector<Vec3> cube_particles, double mass,
                          const Vec3& center, const PipelineOptions& opt,
                          const Deadline* deadline) {
  PreparedItem p;
  ItemRecord& record = p.record;
  record.center = center;
  record.n_particles = static_cast<double>(cube_particles.size());
  auto contain = [&](const char* reason) {
    record.failed = true;
    record.fail_reason = reason;
    if (obs::metrics_enabled()) obs::add(state.metrics->items_failed);
    p.grid = FieldGrid(opt.field, opt.field_resolution, opt.field_resolution);
    p.done = true;
  };
  for (const Vec3& q : cube_particles)
    if (!finite3(q)) {
      contain("non-finite particle position in cube");
      return p;
    }
  if (cube_particles.size() < opt.min_particles) {
    // An (almost) empty region is an expected zero field, not a failure.
    p.grid = FieldGrid(opt.field, opt.field_resolution, opt.field_resolution);
    p.done = true;
    return p;
  }
  // Canonical input order: the owner-gathered, shipped, re-fetched, and
  // re-read cubes hold the same particle SET in different orders; sorting
  // makes the triangulation input — and hence the rendered grid — bitwise
  // identical across all of them.
  std::sort(cube_particles.begin(), cube_particles.end(), lex_less);
  ThreadCpuTimer t;
  try {
    TriangulationOptions topt;
    topt.deadline = deadline;
    p.cube.emplace(std::move(cube_particles), mass, topt);
    record.actual_tri = p.cube->triangulate_seconds();
  } catch (const Error& e) {
    // Degenerate cube (e.g. all points coplanar) or a watchdog
    // cancellation: contained as an empty field, as a production code must
    // tolerate pathological requests.
    record.actual_tri = t.seconds();
    record.failed = true;
    record.fail_reason = e.what();
    record.cancelled =
        record.fail_reason.find("deadline exceeded") != std::string::npos;
    if (obs::metrics_enabled()) obs::add(state.metrics->items_failed);
    p.grid = FieldGrid(opt.field, opt.field_resolution, opt.field_resolution);
    p.done = true;
  }
  p.prep_cpu = t.seconds();
  return p;
}

FieldGrid render_prepared(const EngineState& state, PreparedItem& p,
                          const PipelineOptions& opt,
                          const Deadline* deadline) {
  if (p.done) return std::move(p.grid);
  ItemRecord& record = p.record;
  const Vec3 center = record.center;
  auto contain = [&](const char* reason) {
    record.failed = true;
    record.fail_reason = reason;
    if (obs::metrics_enabled()) obs::add(state.metrics->items_failed);
    return FieldGrid(opt.field, opt.field_resolution, opt.field_resolution);
  };
  ThreadCpuTimer t;
  FieldGrid grid;
  AuditResult audit;
  RenderRequest request;
  try {
    request.spec =
        FieldSpec::centered(center, opt.field_length, opt.field_resolution);
    request.seed = item_seed(opt.seed, center);
    request.field = opt.field;
    request.smooth_ensemble = opt.smooth_ensemble;
    // The velocity model is a run-level field: every rank that may render
    // this item must sample the same one, so it seeds from the RUN seed.
    request.model_seed = opt.seed;
    const std::unique_ptr<FieldKernel> kernel =
        state.kernels->create(opt.kernel);
    KernelStats stats;
    grid = kernel->render(*p.cube, request, deadline, stats);
    // Density/hull construction rides inside the cube build, so it lands in
    // the interpolation share, exactly as the pre-engine accounting did
    // (prepare CPU minus the triangulation share, plus the render itself —
    // valid across threads because both timers are per-thread CPU clocks
    // over their own work).
    record.actual_interp = (p.prep_cpu - record.actual_tri) + t.seconds();
    record.kernel_failed_cells = static_cast<double>(stats.failed_cells);
    record.kernel_perturb_restarts =
        static_cast<double>(stats.perturb_restarts);
    if (opt.audit.level != AuditLevel::kOff) {
      AuditOptions aopt = opt.audit;
      std::uint64_t aseed = request.seed;
      aopt.seed = detail::splitmix64(aseed);  // same cells on replay
      audit = audit_field_item(grid, request.spec, stats.ray_mass,
                               &p.cube->density(), &p.cube->hull(), aopt,
                               request.model_seed);
      record.audit = audit.summary();
    }
  } catch (const Error& e) {
    // Unknown kernel or a watchdog cancellation inside the render: contained
    // exactly as the monolithic compute_item did, with the whole elapsed
    // CPU attributed to actual_tri.
    record.actual_tri = p.prep_cpu + t.seconds();
    record.failed = true;
    record.fail_reason = e.what();
    record.cancelled =
        record.fail_reason.find("deadline exceeded") != std::string::npos;
    if (obs::metrics_enabled()) obs::add(state.metrics->items_failed);
    return FieldGrid(opt.field, opt.field_resolution, opt.field_resolution);
  }
  // Fatal audits escalate OUTSIDE the containment catch: a conservation
  // violation means the run's outputs cannot be trusted, so it aborts the
  // rank instead of zeroing the item.
  if (!audit.ok() && opt.audit_fatal) {
    std::string what = "audit failed for item at center (";
    what += std::to_string(center.x) + ", " + std::to_string(center.y) + ", " +
            std::to_string(center.z) + "):";
    for (const AuditFinding& f : audit.violations)
      what += " [" + f.check + "] " + f.detail;
    throw Error(what);
  }
  for (std::size_t c = 0; c < grid.channels(); ++c)
    for (const double v : grid.plane(c).values())
      if (!std::isfinite(v))
        return contain("non-finite value in rendered grid");
  return grid;
}

FieldGrid compute_item(const EngineState& state,
                       std::vector<Vec3> cube_particles, double mass,
                       const Vec3& center, const PipelineOptions& opt,
                       ItemRecord& record, const Deadline* deadline) {
  PreparedItem p = prepare_item(state, std::move(cube_particles), mass, center,
                                opt, deadline);
  // Callers pre-set path flags (fallback/recover) on `record` before the
  // call; carry them into the prepared record the same way the executor's
  // commit path does.
  p.record.fallback = record.fallback;
  p.record.recovered = record.recovered;
  FieldGrid grid = render_prepared(state, p, opt, deadline);
  record = std::move(p.record);
  return grid;
}

StageContext::StageContext(simmpi::Comm& comm_in, const PipelineOptions& opt_in,
                           const EngineState& state_in, double box_in,
                           double particle_mass_in,
                           std::vector<Vec3> my_block_in,
                           std::vector<Vec3> field_centers_in,
                           const CubeFetcher& fetch_cube_in)
    : comm(comm_in),
      opt(opt_in),
      state(state_in),
      box(box_in),
      particle_mass(particle_mass_in),
      my_block(std::move(my_block_in)),
      field_centers(std::move(field_centers_in)),
      fetch_cube(fetch_cube_in),
      P(comm_in.size()),
      me(comm_in.rank()),
      cube_side(opt_in.cube_pad * opt_in.field_length),
      ghost_radius(0.5 * opt_in.cube_pad * opt_in.field_length),
      rng(opt_in.seed * 7919 + static_cast<std::uint64_t>(comm_in.rank())) {
  obs::TraceRecorder::set_thread_rank(me);
  obs::add(state.metrics->runs);
  // Cap this rank thread's OpenMP team (and reserve the prepare pool's
  // share) so P rank teams plus pool threads never oversubscribe; see
  // engine/executor.h "Threading model".
  prepare_workers = configure_rank_threading(opt, P).workers;
}

Deadline StageContext::make_deadline(double pred_seconds) const {
  if (opt.item_deadline_ms < 0.0) return Deadline();
  if (opt.item_deadline_ms > 0.0)
    return Deadline::after_ms(opt.item_deadline_ms);
  return Deadline::after_ms(
      std::max(opt.min_item_deadline_ms,
               1000.0 * pred_seconds * opt.watchdog_slack));
}

void StageContext::record_item(ItemRecord rec, FieldGrid grid, double pred_tri,
                               double pred_interp, bool received) {
  rec.predicted_tri = pred_tri;
  rec.predicted_interp = pred_interp;
  rec.received = received;
  rec.grid_sum = grid.sum();
  // Per-channel accounting for the vector estimator sets. Density keeps the
  // scalar-era metric set untouched (report parity with pre-refactor runs).
  if (obs::metrics_enabled() && opt.field != FieldKind::kDensity) {
    const std::vector<std::string> names = field_channel_names(grid.kind());
    for (std::size_t c = 0; c < grid.channels(); ++c)
      obs::add(obs::counter("dtfe.field." + names[c] + ".sum"),
               grid.plane_sum(c));
    obs::add(obs::counter("dtfe.field.items"));
  }
  res.phases.triangulate += rec.actual_tri;
  res.phases.render += rec.actual_interp;
  if (rec.failed) ++res.items_failed;
  if (rec.fallback) ++res.items_fallback;
  if (rec.recovered) ++res.items_recovered;
  if (rec.replayed) ++res.items_replayed;
  if (rec.cancelled) ++res.items_cancelled;
  if (!rec.audit.empty() && rec.audit != "pass") ++res.audit_violations;
  // Commit point: the item becomes durable before it counts as done. A
  // replayed item is already durable in some journal — re-journaling it
  // would only bloat the directory.
  if (ckpt && !rec.replayed && rec.request_index >= 0) {
    ckpt->append(static_cast<std::int64_t>(rec.request_index), grid);
    if (obs::metrics_enabled()) obs::add(state.metrics->checkpoint_commits);
  }
  if (obs::metrics_enabled()) {
    const PipelineMetrics& m = *state.metrics;
    obs::add(m.items_computed);
    if (received) obs::add(m.items_received);
    if (rec.fallback) obs::add(m.fallback);
    if (rec.recovered) obs::add(m.items_recovered);
    if (rec.replayed) obs::add(m.items_replayed);
    if (rec.cancelled) obs::add(m.cancelled);
  }
  obs::TraceRecorder& tr = obs::TraceRecorder::global();
  if (tr.enabled()) {
    // Re-emit the item's externally measured CPU times as back-to-back
    // spans ending now (the compute itself happened just above, or in
    // ScheduleStage for the model's test item). cpu_s repeats the exact
    // values accumulated into PhaseTimes.
    const double now = tr.now_us();
    const double tri_us = std::max(0.0, rec.actual_tri * 1e6);
    const double render_us = std::max(0.0, rec.actual_interp * 1e6);
    tr.emit_complete(phases::kItemTriangulate, phases::kCategory,
                     now - render_us - tri_us, tri_us,
                     {{"cpu_s", rec.actual_tri},
                      {"n_particles", rec.n_particles},
                      {"received", received ? 1.0 : 0.0}});
    tr.emit_complete(phases::kItemRender, phases::kCategory, now - render_us,
                     render_us,
                     {{"cpu_s", rec.actual_interp},
                      {"received", received ? 1.0 : 0.0}});
  }
  res.items.push_back(rec);
  if (opt.keep_grids) res.grids.push_back(std::move(grid));
}

void StageContext::execute_local(std::size_t idx_in_remaining) {
  const std::size_t i = remaining[idx_in_remaining];
  ItemTask task;
  // The gather runs on the preparing thread: GridIndex queries are const and
  // local_particles is frozen after ExchangeStage, so concurrent look-ahead
  // gathers are safe.
  task.gather = [this, i] {
    std::vector<std::uint32_t> ids;
    index->gather_in_cube(my_requests[i], cube_side, ids);
    std::vector<Vec3> cube;
    cube.reserve(ids.size());
    for (const auto id : ids) cube.push_back(local_particles[id]);
    return cube;
  };
  task.center = my_requests[i];
  task.request_index = my_request_ids[i];
  task.pred_seconds = res.model.predict(item_counts[i]);
  task.pred_tri = res.model.predict_tri(item_counts[i]);
  task.pred_interp = res.model.predict_interp(item_counts[i]);
  task.crash_phase = phases::kInFlightLocal;
  if (exec) {
    exec->submit(std::move(task));
  } else {
    // No stage-scoped executor (stage driven directly, e.g. from tests):
    // run the item through a private one, serial or overlapped per opt.
    ItemExecutor local(*this);
    local.submit(std::move(task));
    local.drain();
  }
}

// ---- Stage 1: partitioning & redistribution + durable setup ---------------

void ExchangeStage::run(StageContext& ctx) const {
  const PipelineOptions& opt = ctx.opt;
  PipelineResult& res = ctx.res;
  PhaseScope scope(phases::kPartition, res.phases.partition);

  // Input hardening: repair or reject bad positions before they can poison
  // the redistribution (an out-of-box particle has no owner rank; a NaN
  // position corrupts any triangulation it reaches).
  res.bad_particles =
      sanitize_positions(ctx.my_block, ctx.box, opt.bad_particles);
  if (res.bad_particles.bad() > 0 && obs::metrics_enabled())
    obs::add(ctx.state.metrics->bad_particles,
             static_cast<double>(res.bad_particles.bad()));

  ctx.decomp.emplace(ctx.P, ctx.box);
  const Decomposition& decomp = *ctx.decomp;
  {
    auto owned = decomp.redistribute(ctx.comm, std::move(ctx.my_block));
    res.owned_particles = owned.size();
    ctx.local_particles =
        decomp.exchange_ghosts(ctx.comm, owned, ctx.ghost_radius);
    res.ghost_particles = ctx.local_particles.size() - owned.size();
  }

  // Field locations: read by one process and broadcast; each rank keeps the
  // requests whose center falls in its sub-volume. Requests carry their
  // global index so completion can be tracked across ranks.
  {
    std::vector<std::byte> blob;
    if (ctx.me == 0) {
      blob.resize(ctx.field_centers.size() * sizeof(Vec3));
      std::memcpy(blob.data(), ctx.field_centers.data(), blob.size());
    }
    ctx.comm.bcast_bytes(blob, 0);
    if (ctx.me != 0) {
      ctx.field_centers.resize(blob.size() / sizeof(Vec3));
      std::memcpy(ctx.field_centers.data(), blob.data(), blob.size());
    }
  }
  for (std::size_t gi = 0; gi < ctx.field_centers.size(); ++gi) {
    const Vec3 w = wrap_periodic(ctx.field_centers[gi], ctx.box);
    if (decomp.owner_of(w) == ctx.me) {
      ctx.my_requests.push_back(w);
      ctx.my_request_ids.push_back(static_cast<std::ptrdiff_t>(gi));
    }
  }
  res.local_items = ctx.my_requests.size();

  // ---- Durable execution: manifest, resume replay, journal ----------------
  if (!opt.checkpoint_dir.empty()) {
    // Fingerprint everything that shapes the per-item grids, so a stale
    // checkpoint directory cannot silently resume a different problem.
    std::string fp = "pdtfe-ckpt-v1";
    auto fld = [&fp](double v) {
      fp += '|';
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      fp += buf;
    };
    fld(ctx.box);
    fld(ctx.particle_mass);
    fld(opt.field_length);
    fld(static_cast<double>(opt.field_resolution));
    fld(opt.cube_pad);
    fld(static_cast<double>(opt.min_particles));
    fld(static_cast<double>(opt.seed));
    fld(static_cast<double>(ctx.field_centers.size()));
    fp += '|';
    fp += std::to_string(fnv1a64(ctx.field_centers.data(),
                                 ctx.field_centers.size() * sizeof(Vec3)));
    // Channel configuration tokens are appended ONLY when non-default, so a
    // pre-multi-channel (density, no ensemble) manifest still matches and
    // old journals resume bitwise.
    if (opt.field != FieldKind::kDensity || opt.smooth_ensemble > 1) {
      fp += "|field=";
      fp += field_kind_name(opt.field);
      fp += "|ensemble=" + std::to_string(std::max(1, opt.smooth_ensemble));
    }
    fp += '\n';
    if (opt.resume) {
      const std::string prev = read_checkpoint_manifest(opt.checkpoint_dir);
      DTFE_CHECK_MSG(prev.empty() || prev == fp,
                     "checkpoint manifest in " << opt.checkpoint_dir
                     << " belongs to a different run configuration");
      std::set<std::ptrdiff_t> mine(ctx.my_request_ids.begin(),
                                    ctx.my_request_ids.end());
      for (CheckpointItem& item : load_checkpoints(opt.checkpoint_dir)) {
        if (item.grid.nx() != opt.field_resolution ||
            item.grid.ny() != opt.field_resolution ||
            item.grid.kind() != opt.field ||
            item.grid.channels() != field_channels(opt.field))
          continue;  // layout from another configuration; manifest was lost
        if (mine.count(static_cast<std::ptrdiff_t>(item.request_index)))
          ctx.replay_here.emplace_back(
              static_cast<std::ptrdiff_t>(item.request_index),
              std::move(item.grid));
      }
      // Committed items never re-enter the work list; they are recorded as
      // replayed at the start of the execution phase.
      std::set<std::ptrdiff_t> done;
      for (const auto& [id, grid] : ctx.replay_here) done.insert(id);
      std::size_t w = 0;
      for (std::size_t i = 0; i < ctx.my_requests.size(); ++i) {
        if (done.count(ctx.my_request_ids[i])) continue;
        ctx.my_requests[w] = ctx.my_requests[i];
        ctx.my_request_ids[w] = ctx.my_request_ids[i];
        ++w;
      }
      ctx.my_requests.resize(w);
      ctx.my_request_ids.resize(w);
    }
    write_checkpoint_manifest(opt.checkpoint_dir, fp);
    ctx.ckpt = std::make_unique<CheckpointWriter>(opt.checkpoint_dir, ctx.me);
  }
}

// ---- Stages 2 & 3: workload modeling + work-sharing schedule ---------------

void ScheduleStage::run(StageContext& ctx) const {
  const PipelineOptions& opt = ctx.opt;
  PipelineResult& res = ctx.res;
  const Decomposition& decomp = *ctx.decomp;
  {
    PhaseScope scope(phases::kModel, res.phases.model);
    // Spatial index over the local (owned + ghost) particles. Ghosts are
    // unwrapped, so the covering box starts at sub_lo − ghost_radius.
    const Vec3 idx_origin =
        decomp.sub_lo(ctx.me) -
        Vec3{ctx.ghost_radius, ctx.ghost_radius, ctx.ghost_radius};
    const Vec3 sub_ext = decomp.sub_hi(ctx.me) - decomp.sub_lo(ctx.me);
    const double idx_extent =
        std::max({sub_ext.x, sub_ext.y, sub_ext.z}) + 2.0 * ctx.ghost_radius;
    ctx.index.emplace(ctx.local_particles, idx_origin, idx_extent,
                      opt.count_grid_cells);

    ctx.item_counts.assign(ctx.my_requests.size(), 0.0);
    for (std::size_t i = 0; i < ctx.my_requests.size(); ++i)
      ctx.item_counts[i] = static_cast<double>(
          ctx.index->count_in_cube(ctx.my_requests[i], ctx.cube_side));

    // Time one random local work item (it is then already computed).
    std::vector<WorkSample> my_samples;
    if (!ctx.my_requests.empty()) {
      ctx.test_item = static_cast<std::ptrdiff_t>(
          ctx.rng.uniform_index(ctx.my_requests.size()));
      const auto ti = static_cast<std::size_t>(ctx.test_item);
      std::vector<std::uint32_t> ids;
      ctx.index->gather_in_cube(ctx.my_requests[ti], ctx.cube_side, ids);
      std::vector<Vec3> cube;
      cube.reserve(ids.size());
      for (const auto id : ids) cube.push_back(ctx.local_particles[id]);
      // No deadline: the cost model this item seeds is not fitted yet.
      const ScopedCrashItem in_flight(ctx.me, ctx.my_request_ids[ti],
                                      phases::kInFlightModelSample,
                                      ctx.state.crash);
      ctx.test_grid =
          compute_item(ctx.state, std::move(cube), ctx.particle_mass,
                       ctx.my_requests[ti], opt, ctx.test_record, nullptr);
      ctx.test_record.request_index = ctx.my_request_ids[ti];
      my_samples.push_back({ctx.item_counts[ti], ctx.test_record.actual_tri,
                            ctx.test_record.actual_interp});
    }
    res.model = fit_workload_model(ctx.comm, my_samples);

    // Predicted remaining local work (the test item is already done).
    ctx.predicted.assign(ctx.my_requests.size(), 0.0);
    for (std::size_t i = 0; i < ctx.my_requests.size(); ++i) {
      if (static_cast<std::ptrdiff_t>(i) == ctx.test_item) continue;
      ctx.predicted[i] = res.model.predict(ctx.item_counts[i]);
      ctx.total_predicted += ctx.predicted[i];
    }
    res.predicted_local_time = ctx.total_predicted;
  }

  PhaseScope scope(phases::kWorkShare, res.phases.work_share);
  for (std::size_t i = 0; i < ctx.my_requests.size(); ++i)
    if (static_cast<std::ptrdiff_t>(i) != ctx.test_item)
      ctx.remaining.push_back(i);

  if (opt.load_balance && ctx.P > 1) {
    const auto all_times = ctx.comm.allgather(ctx.total_predicted);
    std::vector<RankWork> work(static_cast<std::size_t>(ctx.P));
    for (int r = 0; r < ctx.P; ++r)
      work[static_cast<std::size_t>(r)] = {
          r, all_times[static_cast<std::size_t>(r)]};
    res.schedule = create_communication_list(std::move(work), ctx.me);

    std::vector<double> remaining_times;
    remaining_times.reserve(ctx.remaining.size());
    for (const std::size_t i : ctx.remaining)
      remaining_times.push_back(ctx.predicted[i]);
    ctx.plan = plan_sender(res.schedule.send_list, remaining_times);
  } else {
    ctx.plan.item_assignment.assign(ctx.remaining.size(),
                                    SenderPlan::kRunAtEnd);
  }
}

// ---- Stage 4: execution & communication ------------------------------------

void ComputeStage::run(StageContext& ctx) const {
  const PipelineOptions& opt = ctx.opt;
  PipelineResult& res = ctx.res;
  simmpi::Comm& comm = ctx.comm;

  // Items restored from checkpoints: recorded as replayed, never recomputed
  // and never re-journaled.
  for (auto& [rid, rgrid] : ctx.replay_here) {
    ItemRecord rec;
    rec.request_index = rid;
    rec.center = wrap_periodic(
        ctx.field_centers[static_cast<std::size_t>(rid)], ctx.box);
    rec.replayed = true;
    ctx.record_item(std::move(rec), std::move(rgrid), 0.0, 0.0, false);
  }
  ctx.replay_here.clear();

  // The already-computed random test item.
  if (ctx.test_item >= 0) {
    const auto ti = static_cast<std::size_t>(ctx.test_item);
    ctx.record_item(ctx.test_record, std::move(ctx.test_grid),
                    res.model.predict_tri(ctx.item_counts[ti]),
                    res.model.predict_interp(ctx.item_counts[ti]), false);
  }

  // Stage-scoped overlapped executor: every compute path below goes through
  // submit(), which commits strictly in submission order — so the journal,
  // metrics, and result bookkeeping replay the serial schedule exactly
  // (bitwise), for any --compute-ahead window.
  ItemExecutor exec(ctx);

  // A work package the sender keeps until the receiver acknowledges it; on
  // death, timeout, or give-up the sender unpacks it and computes the items
  // itself (degrading toward the paper's no-load-balance baseline).
  struct PendingSend {
    int receiver = 0;
    int seq = 0;
    std::vector<double> buf;
  };
  std::vector<PendingSend> pending;

  auto fallback_package = [&](const PendingSend& p) {
    ++res.packages_lost;
    if (obs::metrics_enabled()) obs::add(ctx.state.metrics->packages_lost);
    std::vector<std::ptrdiff_t> req_ids;
    std::vector<Vec3> centers;
    std::vector<std::vector<Vec3>> cubes;
    {
      PhaseScope unpack_scope(phases::kUnpack, res.phases.work_share);
      unpack_items(p.buf, req_ids, centers, cubes);
    }
    for (std::size_t i = 0; i < centers.size(); ++i) {
      const double n = static_cast<double>(cubes[i].size());
      ItemTask task;
      task.gather = [cube = std::make_shared<std::vector<Vec3>>(
                         std::move(cubes[i]))] { return std::move(*cube); };
      task.center = centers[i];
      task.request_index = req_ids[i];
      task.pred_seconds = res.model.predict(n);
      task.pred_tri = res.model.predict_tri(n);
      task.pred_interp = res.model.predict_interp(n);
      task.crash_phase = phases::kInFlightFallback;
      task.fallback = true;
      exec.submit(std::move(task));
    }
  };

  // Shared retry bounds (util/retry.h): the sender's resend loop and the
  // receiver's damaged-package loop below run off one policy instead of
  // ad-hoc counters, so both transports bound and pace retries identically.
  // The jitter seed mixes in the rank: deterministic per rank, decorrelated
  // across ranks.
  RetryPolicy retry_policy;
  retry_policy.max_retries = opt.max_retries;
  retry_policy.seed = 0x9e3779b97f4a7c15ull ^
                      static_cast<std::uint64_t>(comm.rank());

  // Wait for one pending package's fate: OK (receiver computes it), RESEND
  // up to max_retries times, or fallback on give-up/timeout/death. Acks from
  // one receiver arrive in FIFO order, so the next relevant ack is for the
  // oldest unresolved package to that receiver — stale acks are skipped.
  auto reconcile = [&](PendingSend& p) {
    int resends = 0;
    while (true) {
      const simmpi::RecvResult r =
          comm.recv_bytes_timeout(p.receiver, kTagWorkAck, opt.comm_timeout_ms);
      if (r.status == simmpi::RecvStatus::kRankFailed ||
          r.status == simmpi::RecvStatus::kTimeout) {
        fallback_package(p);  // receiver dead or unreachable
        return;
      }
      if (r.payload.size() != sizeof(WorkAck)) continue;
      WorkAck ack;
      std::memcpy(&ack, r.payload.data(), sizeof ack);
      if (ack.code == kAckOk) {
        if (ack.seq == p.seq) return;
        continue;  // stale ack for an already-resolved package
      }
      if (ack.code == kAckGiveUp) {
        fallback_package(p);
        return;
      }
      if (ack.code == kAckResend) {
        if (retry_policy.exhausted(++resends)) {
          fallback_package(p);
          return;
        }
        ++res.package_retries;
        if (obs::metrics_enabled()) obs::add(ctx.state.metrics->retries);
        // Pace resends on a struggling link; the receiver is blocked on
        // its own timed recv, so the backoff cannot deadlock the pair.
        retry_policy.backoff(resends);
        comm.send_vector<double>(p.receiver, kTagWork, p.buf);
        continue;
      }
    }
  };

  if (!res.schedule.send_list.empty()) {
    // SENDER: interleave gap-bin local items with sends, then leftovers.
    for (std::size_t k = 0; k < ctx.plan.ordered_sends.size(); ++k) {
      for (std::size_t j = 0; j < ctx.remaining.size(); ++j)
        if (ctx.plan.item_assignment[j] == ctx.plan.gap_slot(k))
          ctx.execute_local(j);

      PhaseScope pack_scope(phases::kPack, res.phases.work_share);
      std::vector<std::ptrdiff_t> req_ids;
      std::vector<Vec3> centers;
      std::vector<std::vector<Vec3>> cubes;
      for (std::size_t j = 0; j < ctx.remaining.size(); ++j) {
        if (ctx.plan.item_assignment[j] != static_cast<int>(k)) continue;
        const std::size_t i = ctx.remaining[j];
        req_ids.push_back(ctx.my_request_ids[i]);
        centers.push_back(ctx.my_requests[i]);
        std::vector<std::uint32_t> ids;
        ctx.index->gather_in_cube(ctx.my_requests[i], ctx.cube_side, ids);
        std::vector<Vec3> cube;
        cube.reserve(ids.size());
        for (const auto id : ids) cube.push_back(ctx.local_particles[id]);
        cubes.push_back(std::move(cube));
      }
      const int seq = static_cast<int>(k) + 1;
      auto buf = pack_items(seq, req_ids, centers, cubes);
      comm.send_vector<double>(ctx.plan.ordered_sends[k].receiver, kTagWork,
                               buf);
      res.items_sent += centers.size();
      if (obs::metrics_enabled()) {
        const PipelineMetrics& m = *ctx.state.metrics;
        obs::add(m.work_packages);
        obs::add(m.items_sent, static_cast<double>(centers.size()));
      }
      if (opt.fault_tolerant)
        pending.push_back({ctx.plan.ordered_sends[k].receiver, seq,
                           std::move(buf)});
    }
    for (std::size_t j = 0; j < ctx.remaining.size(); ++j)
      if (ctx.plan.item_assignment[j] == SenderPlan::kRunAtEnd)
        ctx.execute_local(j);
    // Ack reconciliation is deferred until after all local work so a slow
    // receiver never stalls the sender's own items.
    for (PendingSend& p : pending) reconcile(p);
  } else {
    // RECEIVER or neutral rank: drain local work...
    for (std::size_t j = 0; j < ctx.remaining.size(); ++j)
      ctx.execute_local(j);
    // ...then serve the expected work-sharing messages in order.
    std::vector<int> last_seq(static_cast<std::size_t>(ctx.P), 0);
    for (const int sender : res.schedule.recv_list) {
      auto handle_package = [&](const std::vector<double>& buf) {
        std::vector<std::ptrdiff_t> req_ids;
        std::vector<Vec3> centers;
        std::vector<std::vector<Vec3>> cubes;
        {
          PhaseScope unpack_scope(phases::kUnpack, res.phases.work_share);
          unpack_items(buf, req_ids, centers, cubes);
        }
        for (std::size_t i = 0; i < centers.size(); ++i) {
          const double n = static_cast<double>(cubes[i].size());
          ItemTask task;
          task.gather = [cube = std::make_shared<std::vector<Vec3>>(
                             std::move(cubes[i]))] { return std::move(*cube); };
          task.center = centers[i];
          task.request_index = req_ids[i];
          task.pred_seconds = res.model.predict(n);
          task.pred_tri = res.model.predict_tri(n);
          task.pred_interp = res.model.predict_interp(n);
          task.crash_phase = phases::kInFlightReceived;
          task.received = true;
          exec.submit(std::move(task));
          ++res.items_received;
        }
      };

      if (!opt.fault_tolerant) {
        const auto buf = comm.recv_vector<double>(sender, kTagWork);
        const std::string problem = package_problem(buf);
        DTFE_CHECK_MSG(problem.empty(), "work package from rank "
                                            << sender << ": " << problem);
        handle_package(buf);
        continue;
      }

      int attempts = 0;
      while (true) {
        const simmpi::RecvResult r =
            comm.recv_bytes_timeout(sender, kTagWork, opt.comm_timeout_ms);
        if (r.status == simmpi::RecvStatus::kRankFailed) {
          // The sender died; whatever it meant to ship is recomputed by the
          // survivors in the recovery phase.
          break;
        }
        std::string problem;
        std::vector<double> buf;
        if (r.status == simmpi::RecvStatus::kTimeout) {
          problem = "work package never arrived";
        } else if (r.payload.size() % sizeof(double) != 0) {
          problem = "work package is not a whole number of doubles";
        } else {
          buf.resize(r.payload.size() / sizeof(double));
          std::memcpy(buf.data(), r.payload.data(), r.payload.size());
          problem = package_problem(buf);
        }
        if (problem.empty()) {
          const int seq = static_cast<int>(buf[1]);
          if (seq <= last_seq[static_cast<std::size_t>(sender)])
            continue;  // stale duplicate of an already-accepted package
          last_seq[static_cast<std::size_t>(sender)] = seq;
          comm.send_value(sender, kTagWorkAck, WorkAck{kAckOk, seq});
          handle_package(buf);
          break;
        }
        ++attempts;
        if (retry_policy.exhausted(attempts)) {
          // The sender keeps the package and computes it itself; it also
          // owns the packages_lost tally, so no counting here.
          comm.send_value(sender, kTagWorkAck, WorkAck{kAckGiveUp, -1});
          break;
        }
        comm.send_value(sender, kTagWorkAck, WorkAck{kAckResend, -1});
      }
    }
  }

  // Flush the in-flight window before the stage ends: RecoverStage's done
  // lists and the final result must see every committed item.
  exec.drain();
}

// ---- Recovery: recompute items lost with dead ranks ------------------------

void RecoverStage::run(StageContext& ctx) const {
  const PipelineOptions& opt = ctx.opt;
  PipelineResult& res = ctx.res;
  simmpi::Comm& comm = ctx.comm;
  if (!(opt.fault_tolerant && ctx.P > 1)) return;
  comm.barrier();
  // All live ranks must agree on entering recovery — a rank can die after
  // some peers have already sampled any_rank_failed(), so the decision
  // comes from a reduction, not from local observation.
  const bool recover =
      comm.allreduce_max(comm.any_rank_failed() ? 1.0 : 0.0) > 0.0;
  if (!recover) return;
  PhaseScope recover_scope(phases::kRecover, res.phases.recover);
  std::vector<std::int64_t> done;
  done.reserve(res.items.size());
  for (const ItemRecord& it : res.items)
    if (it.request_index >= 0)
      done.push_back(static_cast<std::int64_t>(it.request_index));
  const auto all_done = comm.allgatherv<std::int64_t>(done);
  std::vector<char> have(ctx.field_centers.size(), 0);
  for (const auto& per_rank : all_done)
    for (const std::int64_t id : per_rank)
      if (id >= 0 &&
          id < static_cast<std::int64_t>(ctx.field_centers.size()))
        have[static_cast<std::size_t>(id)] = 1;
  const auto dead = comm.failed_ranks();
  std::vector<int> live;
  for (int r = 0; r < ctx.P; ++r)
    if (std::find(dead.begin(), dead.end(), r) == dead.end()) live.push_back(r);
  // Deterministic round-robin over the survivors: every rank advances
  // the slot for every missing id, so the assignment is agreed without
  // another negotiation round.
  std::size_t slot = 0;
  ItemExecutor exec(ctx);
  for (std::size_t gi = 0; gi < ctx.field_centers.size(); ++gi) {
    if (have[gi]) continue;
    const int who = live[slot++ % live.size()];
    if (who != ctx.me) continue;
    const Vec3 w = wrap_periodic(ctx.field_centers[gi], ctx.box);
    // Fetch on the rank thread (CubeFetcher implementations are not required
    // to be thread-safe); the executor still overlaps the triangulation of
    // this cube with the render of the previous recovered item.
    std::vector<Vec3> cube = ctx.fetch_cube(w, ctx.cube_side);
    const double n = static_cast<double>(cube.size());
    ItemTask task;
    task.gather = [c = std::make_shared<std::vector<Vec3>>(std::move(cube))] {
      return std::move(*c);
    };
    task.center = w;
    task.request_index = static_cast<std::ptrdiff_t>(gi);
    task.pred_seconds = res.model.predict(n);
    task.pred_tri = res.model.predict_tri(n);
    task.pred_interp = res.model.predict_interp(n);
    task.crash_phase = phases::kInFlightRecover;
    task.recovered = true;
    exec.submit(std::move(task));
  }
  exec.drain();
}

// ---- Final agreement -------------------------------------------------------

void ReduceStage::run(StageContext& ctx) const {
  ctx.res.failed_ranks = ctx.comm.failed_ranks();
  ctx.comm.barrier();
}

PipelineResult run_stages(StageContext& ctx) {
  ExchangeStage{}.run(ctx);
  ScheduleStage{}.run(ctx);
  ComputeStage{}.run(ctx);
  RecoverStage{}.run(ctx);
  ReduceStage{}.run(ctx);
  return std::move(ctx.res);
}

PipelineResult run_stages(simmpi::Comm& comm, const PipelineOptions& opt,
                          const EngineState& state, double box,
                          double particle_mass, std::vector<Vec3> my_block,
                          std::vector<Vec3> field_centers,
                          const CubeFetcher& fetch_cube) {
  StageContext ctx(comm, opt, state, box, particle_mass, std::move(my_block),
                   std::move(field_centers), fetch_cube);
  return run_stages(ctx);
}

}  // namespace dtfe::engine
