#include "engine/stages.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <set>
#include <span>
#include <string>

#include "util/parallel.h"
#include "engine/field_kernel.h"
#include "engine/phases.h"
#include "framework/crash.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bytes.h"
#include "util/error.h"

namespace dtfe {

namespace {

/// The pipeline's metric ids, resolved once against the global registry.
struct PipelineMetrics {
  obs::MetricId items_computed = obs::counter("dtfe.pipeline.items_computed");
  obs::MetricId items_received = obs::counter("dtfe.pipeline.items_received");
  obs::MetricId items_sent = obs::counter("dtfe.pipeline.items_sent");
  obs::MetricId work_packages =
      obs::counter("dtfe.pipeline.work_packages_sent");
  obs::MetricId runs = obs::counter("dtfe.pipeline.runs");
  obs::MetricId items_failed = obs::counter("dtfe.item.failed");
  obs::MetricId items_recovered =
      obs::counter("dtfe.pipeline.items_recovered");
  obs::MetricId packages_lost = obs::counter("dtfe.workshare.packages_lost");
  obs::MetricId bad_particles = obs::counter("dtfe.input.bad_particles");
  obs::MetricId items_replayed =
      obs::counter("dtfe.pipeline.items_replayed");
  obs::MetricId checkpoint_commits =
      obs::counter("dtfe.checkpoint.items_committed");
  obs::MetricId cancelled = obs::counter("dtfe.watchdog.items_cancelled");
};

const PipelineMetrics& pipeline_metrics() {
  static const PipelineMetrics m;
  return m;
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

FieldGrid compute_field_item(std::vector<Vec3> cube_particles, double mass,
                             const Vec3& center, const PipelineOptions& opt,
                             ItemRecord& record, const Deadline* deadline) {
  // Callers pre-set `record.path`; every other field is filled here.
  record.center = center;
  record.n_particles = static_cast<double>(cube_particles.size());
  auto contain = [&](const char* reason) {
    record.failed = true;
    record.fail_reason = reason;
    if (obs::metrics_enabled()) obs::add(pipeline_metrics().items_failed);
    return FieldGrid(opt.field, opt.field_resolution, opt.field_resolution);
  };
  for (const Vec3& q : cube_particles)
    if (!finite3(q)) return contain("non-finite particle position in cube");
  if (cube_particles.size() < opt.min_particles) {
    // An (almost) empty region is an expected zero field, not a failure.
    return FieldGrid(opt.field, opt.field_resolution, opt.field_resolution);
  }
  // Canonical input order: the owner-gathered, shipped, re-fetched, and
  // re-read cubes hold the same particle SET in different orders; sorting
  // makes the triangulation input — and hence the rendered grid — bitwise
  // identical across all of them.
  std::sort(cube_particles.begin(), cube_particles.end(), lex_less);
  FieldGrid grid;
  AuditResult audit;
  engine::RenderRequest request;
  try {
    // The two item spans are the item's phase timers: Triangulate is the
    // whole cube build (mesh, densities with their interpolant rows, hull),
    // Render the kernel (with the geometry table, when the render builds
    // one) plus the audit.
    // A phase that throws still charges its CPU to its own span.
    obs::TraceSpan tri_span(engine::phases::kItemTriangulate,
                            engine::phases::kCategory, &record.actual_tri);
    tri_span.add_arg("n_particles", record.n_particles);
    TriangulationOptions topt;
    topt.deadline = deadline;
    const FieldCube cube(std::move(cube_particles), mass, topt);
    tri_span.close();
    obs::TraceSpan render_span(engine::phases::kItemRender,
                               engine::phases::kCategory,
                               &record.actual_interp);
    request.spec =
        FieldSpec::centered(center, opt.field_length, opt.field_resolution);
    request.seed = item_seed(opt.seed, center);
    request.field = opt.field;
    request.smooth_ensemble = opt.smooth_ensemble;
    // The velocity model is a run-level field: every rank that may render
    // this item must sample the same one, so it seeds from the RUN seed.
    request.model_seed = opt.seed;
    const std::unique_ptr<engine::FieldKernel> kernel =
        engine::KernelRegistry::builtin().create(opt.kernel);
    engine::KernelStats stats;
    grid = kernel->render(cube, request, deadline, stats);
    record.kernel_failed_cells = static_cast<double>(stats.failed_cells);
    record.kernel_perturb_restarts =
        static_cast<double>(stats.perturb_restarts);
    if (opt.audit.level != AuditLevel::kOff) {
      AuditOptions aopt = opt.audit;
      std::uint64_t aseed = request.seed;
      aopt.seed = detail::splitmix64(aseed);  // same cells on replay
      audit = audit_field_item(grid, request.spec, stats.ray_mass, &cube,
                               aopt, request.model_seed);
      record.audit = audit.summary();
    }
  } catch (const Error& e) {
    // Degenerate cube (e.g. all points coplanar), unknown kernel, or a
    // watchdog cancellation in the triangulation or the render: contained as
    // an empty field, as a production code must tolerate pathological
    // requests.
    record.failed = true;
    record.fail_reason = e.what();
    record.cancelled =
        record.fail_reason.find("deadline exceeded") != std::string::npos;
    if (obs::metrics_enabled()) obs::add(pipeline_metrics().items_failed);
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

}  // namespace dtfe

namespace dtfe::engine {

namespace {

constexpr int kTagWork = 200;

// Work package wire format (util/bytes.h), every field 8 bytes:
//   header  [kPackMagic, checksum, payload bytes]
//   payload [n_items, {request index, center, n, n particles}...]
// The checksum is fnv1a64 over everything after it, so a receiver detects
// any corruption. A package is sent once: one the receiver cannot use is
// lost, and RecoverStage recomputes its items.
constexpr std::uint64_t kPackMagic = 0x31474B5045465444ull;  // "DTFEPKG1"

std::vector<std::byte> pack_items(
    const std::vector<StageContext::WorkItem>& items) {
  ByteWriter payload;
  payload.pod(static_cast<std::uint64_t>(items.size()));
  for (const StageContext::WorkItem& item : items) {
    payload.pod(static_cast<std::int64_t>(item.request_index));
    payload.pod(item.center);
    payload.pod_vec(item.cube);
  }
  const std::span<const std::byte> body = payload.bytes();
  ByteWriter covered;
  covered.pod(static_cast<std::uint64_t>(body.size()));
  covered.raw(body);
  ByteWriter w;
  w.pod(kPackMagic);
  w.pod(fnv1a64(covered.bytes().data(), covered.bytes().size()));
  w.raw(covered.bytes());
  return w.take();
}

/// Check a package's header and checksum, then decode its items as
/// received. Throws dtfe::Error on a truncated, padded or damaged package.
std::vector<StageContext::WorkItem> unpack_items(
    std::span<const std::byte> bytes) {
  ByteReader r(bytes, "work package");
  DTFE_CHECK_MSG(r.pod<std::uint64_t>() == kPackMagic,
                 "work package: bad magic");
  const auto checksum = r.pod<std::uint64_t>();
  const std::span<const std::byte> covered = bytes.last(r.left());
  DTFE_CHECK_MSG(checksum == fnv1a64(covered.data(), covered.size()),
                 "work package: checksum mismatch");
  const auto payload_bytes = r.pod<std::uint64_t>();
  DTFE_CHECK_MSG(payload_bytes == r.left(), "work package: length mismatch");
  std::vector<StageContext::WorkItem> items(r.len(40));  // >= 40 bytes each
  for (StageContext::WorkItem& item : items) {
    item.request_index = static_cast<std::ptrdiff_t>(r.pod<std::int64_t>());
    item.center = r.pod<Vec3>();
    item.cube = r.pod_vec<Vec3>();
    item.n_predict = static_cast<double>(item.cube.size());
    item.path = ItemPath::kReceived;
  }
  DTFE_CHECK_MSG(r.done(), "work package: trailing bytes");
  return items;
}

/// Crash-slot label for the path an item took to this rank.
const char* in_flight_label(ItemPath path) {
  switch (path) {
    case ItemPath::kLocal:
      return phases::kInFlightLocal;
    case ItemPath::kReceived:
      return phases::kInFlightReceived;
    case ItemPath::kRecover:
      return phases::kInFlightRecover;
    case ItemPath::kReplay:
      break;  // a replayed item is never computed
  }
  return phases::kInFlightLocal;
}

}  // namespace

int configure_rank_threading(const PipelineOptions& opt, int ranks_in_process) {
  const int total = opt.threads > 0 ? opt.threads : default_team_size();
  const int team = std::max(1, total / std::max(1, ranks_in_process));
  // Each SimMpi rank thread caps its own team, so the P rank teams together
  // stay within --threads.
  set_team_size(team);
  return team;
}

StageContext::StageContext(simmpi::Comm& comm_in, const PipelineOptions& opt_in,
                           double box_in, double particle_mass_in,
                           std::vector<Vec3> my_block_in,
                           std::vector<Vec3> field_centers_in,
                           const CubeFetcher& fetch_cube_in)
    : comm(comm_in),
      opt(opt_in),
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
  obs::add(pipeline_metrics().runs);
  // Cap this rank thread's team so P rank teams never oversubscribe
  // (DESIGN.md §8).
  configure_rank_threading(opt, P);
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
                               double pred_interp) {
  rec.predicted_tri = pred_tri;
  rec.predicted_interp = pred_interp;
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
  // Commit point: the item becomes durable before it counts as done. A
  // replayed item is already durable in some journal — re-journaling it
  // would only bloat the directory.
  if (ckpt && rec.path != ItemPath::kReplay && rec.request_index >= 0) {
    ckpt->append(static_cast<std::int64_t>(rec.request_index), grid);
    if (obs::metrics_enabled()) obs::add(pipeline_metrics().checkpoint_commits);
  }
  if (obs::metrics_enabled()) {
    const PipelineMetrics& m = pipeline_metrics();
    obs::add(m.items_computed);
    if (rec.path == ItemPath::kReceived) obs::add(m.items_received);
    if (rec.path == ItemPath::kRecover) obs::add(m.items_recovered);
    if (rec.path == ItemPath::kReplay) obs::add(m.items_replayed);
    if (rec.cancelled) obs::add(m.cancelled);
  }
  res.items.push_back(rec);
  if (opt.keep_grids) res.grids.push_back(std::move(grid));
}

std::vector<Vec3> StageContext::gather_local(std::size_t i) const {
  std::vector<std::uint32_t> ids;
  index->gather_in_cube(my_requests[i], cube_side, ids);
  std::vector<Vec3> cube;
  cube.reserve(ids.size());
  for (const auto id : ids) cube.push_back(local_particles[id]);
  return cube;
}

StageContext::WorkItem StageContext::local_item(
    std::size_t idx_in_remaining) const {
  const std::size_t i = remaining[idx_in_remaining];
  WorkItem item;
  item.local = static_cast<std::ptrdiff_t>(i);
  item.center = my_requests[i];
  item.request_index = my_request_ids[i];
  item.n_predict = item_counts[i];
  return item;
}

void StageContext::run_items(std::vector<WorkItem> items) {
  struct Done {
    ItemRecord rec;
    FieldGrid grid;
    std::exception_ptr error;
  };
  std::vector<Done> done(items.size());
  parallel_tasks(items.size(), [&](std::size_t k) {
    WorkItem& item = items[k];
    Done& d = done[k];
    try {
      obs::TraceRecorder::set_thread_rank(me);
      if (item.local >= 0)
        item.cube = gather_local(static_cast<std::size_t>(item.local));
      d.rec.path = item.path;
      const Deadline deadline = make_deadline(res.model.predict(item.n_predict));
      const ScopedCrashItem in_flight(me, item.request_index,
                                      in_flight_label(item.path));
      d.grid = compute_field_item(std::move(item.cube), particle_mass,
                                  item.center, opt, d.rec, &deadline);
      d.rec.request_index = item.request_index;
    } catch (...) {
      d.error = std::current_exception();
    }
  });
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (done[k].error) std::rethrow_exception(done[k].error);
    const double n = items[k].n_predict;
    record_item(std::move(done[k].rec), std::move(done[k].grid),
                res.model.predict_tri(n), res.model.predict_interp(n));
  }
}

// ---- Stage 1: partitioning & redistribution + durable setup ---------------

void ExchangeStage::run(StageContext& ctx) const {
  const PipelineOptions& opt = ctx.opt;
  PipelineResult& res = ctx.res;
  obs::TraceSpan scope(phases::kPartition, phases::kCategory,
                       &res.phases.partition);

  // Input hardening: repair or reject bad positions before they can poison
  // the redistribution (an out-of-box particle has no owner rank; a NaN
  // position corrupts any triangulation it reaches).
  res.bad_particles =
      sanitize_positions(ctx.my_block, ctx.box, opt.bad_particles);
  if (res.bad_particles.bad() > 0 && obs::metrics_enabled())
    obs::add(pipeline_metrics().bad_particles,
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
    obs::TraceSpan scope(phases::kModel, phases::kCategory, &res.phases.model);
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
    if (!ctx.my_requests.empty())
      ctx.test_item = static_cast<std::ptrdiff_t>(
          ctx.rng.uniform_index(ctx.my_requests.size()));
  }

  // Time one random local work item (it is then already computed). The
  // model span is closed around it: the item's CPU lands in its own item
  // spans, like every other item's.
  std::vector<WorkSample> my_samples;
  if (ctx.test_item >= 0) {
    const auto ti = static_cast<std::size_t>(ctx.test_item);
    std::vector<Vec3> cube = ctx.gather_local(ti);
    // No deadline: the cost model this item seeds is not fitted yet.
    const ScopedCrashItem in_flight(ctx.me, ctx.my_request_ids[ti],
                                    phases::kInFlightModelSample);
    ctx.test_grid =
        compute_field_item(std::move(cube), ctx.particle_mass,
                           ctx.my_requests[ti], opt, ctx.test_record);
    ctx.test_record.request_index = ctx.my_request_ids[ti];
    my_samples.push_back({ctx.item_counts[ti], ctx.test_record.actual_tri,
                          ctx.test_record.actual_interp});
  }

  {
    obs::TraceSpan scope(phases::kModel, phases::kCategory, &res.phases.model);
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

  obs::TraceSpan scope(phases::kWorkShare, phases::kCategory,
                       &res.phases.work_share);
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
    rec.path = ItemPath::kReplay;
    ctx.record_item(std::move(rec), std::move(rgrid), 0.0, 0.0);
  }
  ctx.replay_here.clear();

  // The already-computed random test item.
  if (ctx.test_item >= 0) {
    const auto ti = static_cast<std::size_t>(ctx.test_item);
    ctx.record_item(ctx.test_record, std::move(ctx.test_grid),
                    res.model.predict_tri(ctx.item_counts[ti]),
                    res.model.predict_interp(ctx.item_counts[ti]));
  }

  if (!res.schedule.send_list.empty()) {
    // SENDER: interleave gap-bin local items with sends, then leftovers.
    // Each package is sent once and forgotten.
    auto local_items = [&](int slot) {
      std::vector<StageContext::WorkItem> items;
      for (std::size_t j = 0; j < ctx.remaining.size(); ++j)
        if (ctx.plan.item_assignment[j] == slot)
          items.push_back(ctx.local_item(j));
      return items;
    };
    for (std::size_t k = 0; k < ctx.plan.ordered_sends.size(); ++k) {
      ctx.run_items(local_items(ctx.plan.gap_slot(k)));

      obs::TraceSpan pack_scope(phases::kPack, phases::kCategory,
                                &res.phases.work_share);
      std::vector<StageContext::WorkItem> shipped;
      for (std::size_t j = 0; j < ctx.remaining.size(); ++j) {
        if (ctx.plan.item_assignment[j] != static_cast<int>(k)) continue;
        StageContext::WorkItem item = ctx.local_item(j);
        item.cube = ctx.gather_local(ctx.remaining[j]);
        shipped.push_back(std::move(item));
      }
      comm.send_bytes(ctx.plan.ordered_sends[k].receiver, kTagWork,
                      pack_items(shipped));
      res.items_sent += shipped.size();
      if (obs::metrics_enabled()) {
        const PipelineMetrics& m = pipeline_metrics();
        obs::add(m.work_packages);
        obs::add(m.items_sent, static_cast<double>(shipped.size()));
      }
    }
    ctx.run_items(local_items(SenderPlan::kRunAtEnd));
  } else {
    // RECEIVER or neutral rank: drain local work...
    std::vector<StageContext::WorkItem> drain;
    for (std::size_t j = 0; j < ctx.remaining.size(); ++j)
      drain.push_back(ctx.local_item(j));
    ctx.run_items(std::move(drain));
    // ...then run each expected package. One that is missing, damaged or
    // late, or whose sender died, is lost: RecoverStage recomputes its
    // items.
    for (const int sender : res.schedule.recv_list) {
      const simmpi::RecvResult r =
          comm.recv_bytes_timeout(sender, kTagWork, opt.comm_timeout_ms);
      std::vector<StageContext::WorkItem> items;
      bool ok = r.ok();
      if (ok) {
        obs::TraceSpan unpack_scope(phases::kUnpack, phases::kCategory,
                                    &res.phases.work_share);
        try {
          items = unpack_items(r.payload);
        } catch (const Error&) {
          ok = false;
        }
      }
      if (!ok) {
        ++res.packages_lost;
        if (obs::metrics_enabled()) obs::add(pipeline_metrics().packages_lost);
        continue;
      }
      ctx.run_items(std::move(items));
    }
  }
}

// ---- Recovery: recompute the items no rank committed ----------------------

void RecoverStage::run(StageContext& ctx) const {
  PipelineResult& res = ctx.res;
  simmpi::Comm& comm = ctx.comm;
  if (ctx.P <= 1) return;
  comm.barrier();
  // Every live rank learns the same count of committed items, so all agree
  // on entering recovery. No item is committed twice (a package is run by
  // its receiver or by nobody), so a count short of the request list means
  // some request is missing: its rank died, or its package was lost.
  std::size_t committed = 0;
  for (const ItemRecord& it : res.items) committed += it.request_index >= 0;
  const double total = comm.allreduce_sum(static_cast<double>(committed));
  if (total >= static_cast<double>(ctx.field_centers.size())) return;
  obs::TraceSpan recover_scope(phases::kRecover, phases::kCategory,
                               &res.phases.recover);
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
  std::vector<std::size_t> mine;
  std::size_t slot = 0;
  for (std::size_t gi = 0; gi < ctx.field_centers.size(); ++gi) {
    if (have[gi]) continue;
    const int who = live[slot++ % live.size()];
    if (who == ctx.me) mine.push_back(gi);
  }
  // The recovered items run after the recover span, in their own item spans.
  // fetch_cube may touch shared state (a snapshot reader), so every cube is
  // fetched here on the rank thread before the items run.
  recover_scope.close();
  std::vector<StageContext::WorkItem> items;
  for (const std::size_t gi : mine) {
    StageContext::WorkItem item;
    item.center = wrap_periodic(ctx.field_centers[gi], ctx.box);
    item.cube = ctx.fetch_cube(item.center, ctx.cube_side);
    item.request_index = static_cast<std::ptrdiff_t>(gi);
    item.n_predict = static_cast<double>(item.cube.size());
    item.path = ItemPath::kRecover;
    items.push_back(std::move(item));
  }
  ctx.run_items(std::move(items));
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
                          double box, double particle_mass,
                          std::vector<Vec3> my_block,
                          std::vector<Vec3> field_centers,
                          const CubeFetcher& fetch_cube) {
  StageContext ctx(comm, opt, box, particle_mass, std::move(my_block),
                   std::move(field_centers), fetch_cube);
  return run_stages(ctx);
}

}  // namespace dtfe::engine
