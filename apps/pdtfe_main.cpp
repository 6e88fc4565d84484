// pdtfe — command-line driver for the library.
//
//   pdtfe generate --out snap.bin [--kind halo|web|uniform] [--n 100000]
//                  [--box 64] [--blocks 4] [--seed 1]
//   pdtfe info     --in snap.bin
//   pdtfe render   --in snap.bin --out map.pgm [--grid 512]
//                  [--method march|walk|tess|cic] [--mc 1] [--adaptive 0]
//                  [--field density|velocity|vdiv|grad] [--smooth-ensemble N]
//                  [--metrics-out m.json] [--trace-out t.json]
//   pdtfe pipeline --in snap.bin [--ranks 8] [--fields 64] [--length 5]
//                  [--grid 64] [--kernel march|walk|tess]
//                  [--field density|velocity|vdiv|grad] [--smooth-ensemble N]
//                  [--balance 1] [--metrics-out m.json]
//                  [--trace-out t.json] [--report prefix]
//                  [--fault-plan spec] [--max-retries 3]
//                  [--comm-timeout-ms 2000] [--bad-particles reject|drop|clamp]
//                  [--threads N] [--compute-ahead N]
//   pdtfe launch   --in snap.bin [--ranks 3] [--transport socket] ...
//                  (pipeline with --transport defaulting to socket: spawns
//                  one worker process per rank; see README "Multi-process
//                  execution")
//   pdtfe lensing  --in snap.bin --out-prefix lens [--grid 256]
//                  [--length 8] [--sigma-crit-frac 4]
//   pdtfe spectrum --in snap.bin [--grid 64] [--bins 16]
//
// Observability (see README "Observability"): --metrics-out writes the merged
// counter/gauge/histogram snapshot as JSON; --trace-out writes a Chrome
// trace_event file loadable in chrome://tracing or Perfetto; --report writes
// <prefix>.json and <prefix>.csv with per-rank phase times plus the metrics
// snapshot. All default to off, leaving the hot paths unperturbed.
//
// Fault tolerance (see README "Fault tolerance"): --fault-plan injects
// deterministic rank kills and message corruption into the simulated MPI
// runtime (grammar in simmpi/fault.h); the pipeline's containment, retry,
// fallback, and recovery paths keep the run completing with every field.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/dtfe.h"
#include "dtfe/audit.h"
#include "dtfe/lensing.h"
#include "engine/multiproc.h"
#include "engine/phases.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "util/image.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

using namespace dtfe;

/// Shared --metrics-out/--trace-out/--report handling: arms the global
/// registries before the work runs, exports the files afterwards.
struct ObsSession {
  std::string metrics_out, trace_out, report_prefix;

  explicit ObsSession(const CliArgs& args)
      : metrics_out(args.get("metrics-out", std::string{})),
        trace_out(args.get("trace-out", std::string{})),
        report_prefix(args.get("report", std::string{})) {
    if (metrics_enabled()) {
      obs::MetricsRegistry::global().reset();
      obs::MetricsRegistry::global().set_enabled(true);
    }
    if (!trace_out.empty()) {
      obs::TraceRecorder::global().clear();
      obs::TraceRecorder::global().set_enabled(true);
    }
  }

  bool metrics_enabled() const {
    return !metrics_out.empty() || !report_prefix.empty();
  }

  /// Write --metrics-out and --trace-out (the report is the caller's job:
  /// it needs the per-rank phase rows). Returns the merged snapshot.
  obs::MetricsSnapshot finish() {
    obs::MetricsSnapshot snap;
    if (metrics_enabled()) snap = obs::MetricsRegistry::global().snapshot();
    if (!metrics_out.empty()) {
      if (obs::write_metrics_json(metrics_out, snap))
        std::printf("wrote %s\n", metrics_out.c_str());
      else
        std::fprintf(stderr, "pdtfe: cannot write %s\n", metrics_out.c_str());
    }
    if (!trace_out.empty()) {
      if (obs::TraceRecorder::global().write_json(trace_out))
        std::printf("wrote %s (%zu events)\n", trace_out.c_str(),
                    obs::TraceRecorder::global().size());
      else
        std::fprintf(stderr, "pdtfe: cannot write %s\n", trace_out.c_str());
    }
    return snap;
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: pdtfe "
               "<generate|info|render|pipeline|launch|lensing|spectrum> "
               "[--flags]\n       see the header of apps/pdtfe_main.cpp\n");
  return 2;
}

int cmd_generate(const CliArgs& args) {
  args.check_known({"out", "kind", "n", "box", "blocks", "seed"});
  const std::string out = args.get("out", std::string{});
  DTFE_CHECK_MSG(!out.empty(), "--out is required");
  const std::string kind = args.get("kind", std::string{"halo"});
  const auto n = static_cast<std::size_t>(args.get("n", 100000L));
  const double box = args.get("box", 64.0);
  const auto blocks = static_cast<std::size_t>(args.get("blocks", 4L));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 1L));

  ParticleSet set;
  if (kind == "halo") {
    HaloModelOptions gen;
    gen.n_particles = n;
    gen.box_length = box;
    gen.n_halos = std::max<std::size_t>(8, n / 2500);
    gen.seed = seed;
    set = generate_halo_model(gen);
  } else if (kind == "web") {
    ZeldovichOptions gen;
    gen.grid = 64;
    gen.box_length = box;
    gen.seed = seed;
    set = generate_zeldovich(gen);
  } else if (kind == "uniform") {
    set = generate_uniform(n, box, seed);
  } else {
    std::fprintf(stderr, "unknown --kind %s\n", kind.c_str());
    return 2;
  }
  write_snapshot(out, set, blocks);
  std::printf("wrote %s: %zu particles, box %.1f, %zu^3 blocks\n", out.c_str(),
              set.size(), box, blocks);
  return 0;
}

int cmd_info(const CliArgs& args) {
  args.check_known({"in"});
  const auto header = read_snapshot_header(args.get("in", std::string{}));
  std::printf("particles: %llu\nbox:       %.3f\nmass:      %.3g\nblocks:    %zu\n",
              static_cast<unsigned long long>(header.n_particles),
              header.box_length, header.particle_mass, header.blocks.size());
  std::size_t lo = static_cast<std::size_t>(-1), hi = 0;
  for (const auto& b : header.blocks) {
    lo = std::min(lo, static_cast<std::size_t>(b.count));
    hi = std::max(hi, static_cast<std::size_t>(b.count));
  }
  std::printf("block particle counts: min %zu max %zu\n", lo, hi);
  return 0;
}

/// "map.pgm" + channel "vx" -> "map-vx.pgm" (suffix before the extension).
std::string channel_out_path(const std::string& out,
                             const std::string& channel) {
  const std::size_t dot = out.find_last_of('.');
  if (dot == std::string::npos) return out + "-" + channel;
  return out.substr(0, dot) + "-" + channel + out.substr(dot);
}

int cmd_render(const CliArgs& args) {
  args.check_known(
      {"in", "out", "grid", "method", "mc", "adaptive", "field",
       "smooth-ensemble", "metrics-out", "trace-out"});
  ObsSession obs_session(args);
  // Every flag is validated before the snapshot is read or triangulated.
  CommonFieldFlags common;
  FieldKind field = FieldKind::kDensity;
  int ensemble = 1;
  engine::KernelOptions kopt;
  try {
    common = parse_common_field_flags(args, 512L);
    field = parse_field_kind(args.get("field", std::string{"density"}));
    ensemble = static_cast<int>(args.get("smooth-ensemble", 1L));
    if (ensemble < 1) throw Error("--smooth-ensemble must be >= 1");
    if (common.method == "cic" && field != FieldKind::kDensity)
      throw Error("--method cic renders density only");
    kopt.marching.monte_carlo_samples = static_cast<int>(args.get("mc", 1L));
    if (kopt.marching.monte_carlo_samples < 1) throw Error("--mc must be >= 1");
    kopt.marching.adaptive_max_depth =
        static_cast<int>(args.get("adaptive", 0L));
    if (kopt.marching.adaptive_max_depth < 0)
      throw Error("--adaptive must be >= 0");
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const ParticleSet set = read_snapshot(common.in);
  const std::size_t ng = common.grid;
  const std::string& method = common.method;
  const std::string out = args.get("out", std::string{"map.pgm"});

  FieldSpec spec;
  spec.origin = {0.0, 0.0};
  spec.length = set.box_length;
  spec.resolution = ng;
  spec.zmin = 0.0;
  spec.zmax = set.box_length;

  WallTimer timer;
  FieldGrid map;
  if (method == "cic") {
    map = FieldGrid(assign_surface_density(set, ng, AssignmentScheme::kCic));
  } else {
    // Any registered field kernel works here; --mc/--adaptive shape the
    // marching estimator and are ignored by the others.
    if (!engine::KernelRegistry::builtin().contains(method)) {
      std::fprintf(stderr, "unknown --method %s\n", method.c_str());
      return 2;
    }
    const engine::FieldCube cube(set.positions, set.particle_mass);
    std::printf("triangulated %zu particles in %.2f s\n", set.size(),
                timer.seconds());
    timer.reset();
    engine::RenderRequest request{spec};
    request.field = field;
    request.smooth_ensemble = ensemble;
    engine::KernelStats stats;
    try {
      map = engine::KernelRegistry::builtin().create(method, kopt)->render(
          cube, request, nullptr, stats);
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  std::printf("rendered %zux%zu (%s, %s) in %.2f s; grid mass %.0f of %.0f\n",
              ng, ng, method.c_str(), field_kind_name(field), timer.seconds(),
              map.sum() * spec.cell_size() * spec.cell_size(),
              set.total_mass());
  if (field == FieldKind::kDensity) {
    write_log_pgm(out, map.plane(0).values(), ng, ng);
    std::printf("wrote %s\n", out.c_str());
  } else {
    // Signed channels (velocity components, divergence, gradients): one
    // diverging map per channel, suffixed with the channel name.
    const std::vector<std::string> names = field_channel_names(field);
    for (std::size_t c = 0; c < map.channels(); ++c) {
      const Grid2D& plane = map.plane(c);
      double range = 0.0;
      for (const double v : plane.values())
        range = std::max(range, std::abs(v));
      const std::string path = channel_out_path(out, names[c]);
      write_diverging_ppm(path, plane.values(), ng, ng,
                          range > 0.0 ? range : 1.0);
      std::printf("wrote %s (sum %.6e)\n", path.c_str(), plane.sum());
    }
  }
  obs_session.finish();
  return 0;
}

int cmd_pipeline(const CliArgs& args, bool default_transport_socket = false) {
  args.check_known({"in", "ranks", "fields", "length", "grid", "kernel",
                    "field", "smooth-ensemble", "balance", "metrics-out",
                    "trace-out", "report",
                    "fault-plan", "max-retries", "comm-timeout-ms",
                    "bad-particles", "checkpoint-dir", "resume",
                    "item-deadline-ms", "audit", "audit-fatal", "threads",
                    "compute-ahead", "transport", "heartbeat-interval-ms",
                    "heartbeat-miss-limit", "worker-binary", "worker-rank",
                    "socket-path", "worker-metrics"});
  // Worker re-entry (engine/multiproc.h): a launcher spawned this process
  // as one rank of a socket-transport run. Everything beyond the bootstrap
  // flags arrives over the wire, so dispatch before any CLI-driven setup.
  if (args.has("worker-rank")) return engine::run_worker_from_cli(args);
  ObsSession obs_session(args);
  // Crash diagnostics are on from the first byte read: a hard fault anywhere
  // in the run prints the in-flight items and a backtrace. Re-invoked below
  // once the report prefix is known, to arm the partial-report flush.
  install_crash_handler();

  engine::EngineConfig cfg;
  try {
    cfg = engine::EngineConfig::from_cli(args);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (default_transport_socket && !args.has("transport"))
    cfg.transport.kind = engine::TransportKind::kSocket;
  const bool socket = cfg.transport.kind == engine::TransportKind::kSocket;
  const PipelineOptions& opt = cfg.pipeline;

  std::vector<engine::FieldRequest> requests;
  {
    obs::TraceSpan span(engine::phases::kRequests);
    const ParticleSet set = read_snapshot(cfg.snapshot);
    const auto groups = find_fof_groups(set);
    for (std::size_t i = 0;
         i < groups.size() && requests.size() < cfg.n_fields; ++i)
      requests.push_back({groups[i].center});
    span.add_arg("particles", static_cast<double>(set.size()));
    span.add_arg("fof_groups", static_cast<double>(groups.size()));
  }
  std::printf("%zu field requests on FOF objects, %d ranks\n", requests.size(),
              cfg.ranks);
  if (opt.field != FieldKind::kDensity || opt.smooth_ensemble > 1)
    std::printf("field: %s (%zu channel(s), ensemble %d)\n",
                field_kind_name(opt.field), field_channels(opt.field),
                opt.smooth_ensemble);
  if (socket)
    std::printf("transport: socket (%d worker processes, heartbeat %d ms)\n",
                cfg.ranks, cfg.transport.heartbeat_interval_ms);

  install_crash_handler(obs_session.report_prefix.empty()
                            ? std::string{}
                            : obs_session.report_prefix + ".crash.json");
  if (!cfg.fault_plan.empty())
    std::printf("fault plan armed: %zu rule(s)\n", cfg.fault_plan.rules.size());

  obs::RunReport report;
  set_crash_report(&report);  // flushed (partially filled) on a hard fault
  WallTimer wall;
  engine::Engine eng(cfg);
  const std::vector<engine::FieldResult> fields = eng.run_batch(requests);

  // Aggregated across surviving ranks: which global field requests were
  // completed (and their grid checksums), plus the fault tallies.
  RunningStats busy;
  std::map<std::ptrdiff_t, double> field_sums;
  for (const engine::FieldResult& f : fields)
    if (f.completed) field_sums[f.request] = f.checksum;
  std::size_t tot_failed = 0, tot_fallback = 0, tot_recovered = 0;
  std::size_t tot_retries = 0, tot_lost = 0;
  std::size_t tot_replayed = 0, tot_cancelled = 0, tot_audit_violations = 0;
  std::size_t tot_audited = 0;
  SanitizeCounts bad_counts;
  std::set<int> dead_ranks;
  bool model_degenerate = false;
  for (const engine::RankRun& run : eng.last_rank_runs()) {
    const PipelineResult& res = run.result;
    busy.add(res.phases.total());
    tot_failed += res.items_failed;
    tot_fallback += res.items_fallback;
    tot_recovered += res.items_recovered;
    tot_retries += res.package_retries;
    tot_lost += res.packages_lost;
    tot_replayed += res.items_replayed;
    tot_cancelled += res.items_cancelled;
    tot_audit_violations += res.audit_violations;
    bad_counts.non_finite += res.bad_particles.non_finite;
    bad_counts.out_of_box += res.bad_particles.out_of_box;
    bad_counts.dropped += res.bad_particles.dropped;
    bad_counts.clamped += res.bad_particles.clamped;
    dead_ranks.insert(res.failed_ranks.begin(), res.failed_ranks.end());
    model_degenerate = model_degenerate || res.model.degenerate();
    std::vector<std::pair<std::string, std::string>> tags;
    for (const ItemRecord& it : res.items) {
      const std::string id = std::to_string(it.request_index);
      if (it.failed)
        tags.emplace_back("item_fail_" + id, it.fail_reason);
      if (it.cancelled) tags.emplace_back("item_cancelled_" + id, "deadline");
      if (it.replayed) tags.emplace_back("item_replayed_" + id, "checkpoint");
      // Per-item kernel health (dtfe.kernel.* counters broken out by item).
      if (!it.replayed && !it.failed)
        tags.emplace_back("item_kernel_" + id,
                          "failed_cells=" +
                              std::to_string(static_cast<long long>(
                                  it.kernel_failed_cells)) +
                              ";perturb_restarts=" +
                              std::to_string(static_cast<long long>(
                                  it.kernel_perturb_restarts)));
      if (!it.audit.empty()) {
        ++tot_audited;
        tags.emplace_back("item_audit_" + id, it.audit);
      }
    }
    if (!tags.empty()) report.add_rank_tags(run.rank, std::move(tags));
    report.add_rank_values(
        run.rank,
        {{engine::phases::kReportPartition, res.phases.partition},
         {engine::phases::kReportModel, res.phases.model},
         {engine::phases::kReportWorkShare, res.phases.work_share},
         {engine::phases::kReportTriangulate, res.phases.triangulate},
         {engine::phases::kReportRender, res.phases.render},
         {engine::phases::kReportRecover, res.phases.recover},
         {engine::phases::kReportTotal, res.phases.total()},
         {"local_items", static_cast<double>(res.local_items)},
         {"items_received", static_cast<double>(res.items_received)},
         {"items_failed", static_cast<double>(res.items_failed)},
         {"items_fallback", static_cast<double>(res.items_fallback)},
         {"items_recovered", static_cast<double>(res.items_recovered)}});
    std::printf("rank %2d: %3zu local, %3zu received, %zu failed, "
                "%zu fallback, %zu recovered, busy %.2fs\n",
                run.rank, res.local_items, res.items_received,
                res.items_failed, res.items_fallback, res.items_recovered,
                res.phases.total());
  }
  std::printf("busy: mean %.2fs max %.2fs (imbalance %.2f)\n", busy.mean(),
              busy.max(), busy.max() / std::max(busy.mean(), 1e-12));
  double checksum_total = 0.0;
  for (const auto& [id, sum] : field_sums) checksum_total += sum;
  std::printf("fields completed: %zu/%zu (failed %zu, recovered %zu, "
              "fallback %zu, retries %zu)\n",
              field_sums.size(), requests.size(), tot_failed, tot_recovered,
              tot_fallback, tot_retries);
  if (!opt.checkpoint_dir.empty())
    std::printf("checkpoint: %zu item(s) replayed from %s\n", tot_replayed,
                opt.checkpoint_dir.c_str());
  if (opt.item_deadline_ms >= 0.0)
    std::printf("watchdog: %zu item(s) cancelled\n", tot_cancelled);
  if (opt.audit.level != AuditLevel::kOff)
    std::printf("audit (%s): %zu item(s) audited, %zu violation(s)\n",
                audit_level_name(opt.audit.level), tot_audited,
                tot_audit_violations);
  std::printf("grid checksum total: %.9e\n", checksum_total);
  // Per-channel checksums (non-density fields only, so density output stays
  // byte-identical to the scalar pipeline's).
  std::vector<double> channel_sums;
  std::vector<std::string> channel_names;
  if (opt.field != FieldKind::kDensity) {
    channel_names = field_channel_names(opt.field);
    channel_sums.assign(channel_names.size(), 0.0);
    for (const engine::FieldResult& f : fields) {
      if (!f.completed) continue;
      for (std::size_t c = 0;
           c < f.grid.channels() && c < channel_sums.size(); ++c)
        channel_sums[c] += f.grid.plane_sum(c);
    }
    for (std::size_t c = 0; c < channel_names.size(); ++c)
      std::printf("field checksum %s: %.9e\n", channel_names[c].c_str(),
                  channel_sums[c]);
  }
  const simmpi::TransportStats wire = eng.last_wire_stats();
  if (socket && wire.messages > 0)
    std::printf("wire: %llu messages, mean latency %.1f us, "
                "mean payload %.0f bytes\n",
                static_cast<unsigned long long>(wire.messages),
                1e6 * wire.mean_latency_s(), wire.mean_bytes());
  if (!dead_ranks.empty()) {
    std::printf("ranks failed:");
    for (const int r : dead_ranks) std::printf(" %d", r);
    std::printf("\n");
  }
  const obs::MetricsSnapshot snap = obs_session.finish();
  if (!obs_session.report_prefix.empty()) {
    report.add_summary("ranks", cfg.ranks);
    report.add_summary("fields", static_cast<double>(requests.size()));
    report.add_summary("fields_completed",
                       static_cast<double>(field_sums.size()));
    report.add_summary("wall_s", wall.seconds());
    report.add_summary("busy_mean_s", busy.mean());
    report.add_summary("busy_max_s", busy.max());
    report.add_summary("items_failed", static_cast<double>(tot_failed));
    report.add_summary("items_fallback", static_cast<double>(tot_fallback));
    report.add_summary("items_recovered", static_cast<double>(tot_recovered));
    report.add_summary("package_retries", static_cast<double>(tot_retries));
    report.add_summary("packages_lost", static_cast<double>(tot_lost));
    report.add_summary("bad_particles_dropped",
                       static_cast<double>(bad_counts.dropped));
    report.add_summary("bad_particles_clamped",
                       static_cast<double>(bad_counts.clamped));
    report.add_summary("ranks_failed", static_cast<double>(dead_ranks.size()));
    report.add_summary("model_degenerate", model_degenerate ? 1.0 : 0.0);
    report.add_summary("items_replayed", static_cast<double>(tot_replayed));
    report.add_summary("items_cancelled", static_cast<double>(tot_cancelled));
    report.add_summary("items_audited", static_cast<double>(tot_audited));
    report.add_summary("audit_violations",
                       static_cast<double>(tot_audit_violations));
    report.add_summary("grid_checksum_total", checksum_total);
    for (std::size_t c = 0; c < channel_names.size(); ++c)
      report.add_summary("field_checksum_" + channel_names[c],
                         channel_sums[c]);
    report.add_summary("transport_socket", socket ? 1.0 : 0.0);
    if (socket && wire.messages > 0) {
      // Measured wire costs: the inputs framework/des reads back via
      // load_des_calibration to ground the simulator in real latencies.
      double intercept_s = 0.0, seconds_per_byte = 0.0;
      wire.fit(intercept_s, seconds_per_byte);
      report.add_summary("transport_messages",
                         static_cast<double>(wire.messages));
      report.add_summary("transport_msg_latency_mean_s",
                         wire.mean_latency_s());
      report.add_summary("transport_bytes_per_msg", wire.mean_bytes());
      report.add_summary("transport_latency_intercept_s", intercept_s);
      report.add_summary("transport_seconds_per_byte", seconds_per_byte);
    }
    report.set_metrics(snap);
    const std::string jpath = obs_session.report_prefix + ".json";
    const std::string cpath = obs_session.report_prefix + ".csv";
    if (report.write_json(jpath) && report.write_csv(cpath))
      std::printf("wrote %s %s\n", jpath.c_str(), cpath.c_str());
    else
      std::fprintf(stderr, "pdtfe: cannot write report %s/.csv\n",
                   jpath.c_str());
  }
  set_crash_report(nullptr);  // report goes out of scope below
  return 0;
}

int cmd_lensing(const CliArgs& args) {
  args.check_known({"in", "out-prefix", "grid", "length", "sigma-crit-frac"});
  const CommonFieldFlags common = parse_common_field_flags(args, 256L, 8.0);
  const std::size_t ng = common.grid;
  const double length = common.length;
  const std::string prefix = args.get("out-prefix", std::string{"lens"});

  ParticleSet set;
  Vec3 target;
  {
    obs::TraceSpan span(engine::phases::kRequests);
    set = read_snapshot(common.in);
    const auto groups = find_fof_groups(set);
    DTFE_CHECK_MSG(!groups.empty(), "no FOF objects found");
    target = groups[0].center;
  }
  const engine::FieldCube cube(extract_cube(set, target, 1.3 * length),
                               set.particle_mass);
  const FieldSpec spec = FieldSpec::centered(target, length, ng);
  engine::KernelStats stats;
  // Lensing maps are a density-only product: the default RenderRequest
  // renders the single density plane.
  const Grid2D sigma = engine::KernelRegistry::builtin().create("march")
                           ->render(cube, engine::RenderRequest{spec},
                                    nullptr, stats)
                           .plane(0);

  RunningStats st;
  for (const double v : sigma.values()) st.add(v);
  LensingOptions lopt;
  lopt.sigma_critical = st.max() / args.get("sigma-crit-frac", 4.0);
  lopt.extent = length;
  const LensingMaps maps = compute_lensing_maps(sigma, lopt);
  write_log_pgm(prefix + "_kappa.pgm", maps.convergence.values(), ng, ng);
  write_diverging_ppm(prefix + "_shear1.ppm", maps.shear1.values(), ng, ng, 0.5);
  std::printf("wrote %s_kappa.pgm %s_shear1.ppm (kappa_max %.2f)\n",
              prefix.c_str(), prefix.c_str(), st.max() / lopt.sigma_critical);
  return 0;
}

int cmd_spectrum(const CliArgs& args) {
  args.check_known({"in", "grid", "bins"});
  const ParticleSet set = read_snapshot(args.get("in", std::string{}));
  const auto ng = static_cast<std::size_t>(args.get("grid", 64L));
  const auto bins = static_cast<std::size_t>(args.get("bins", 16L));
  const Grid3D g = assign_density_3d(set, ng, AssignmentScheme::kCic);
  const auto ps = measure_power_spectrum(g, set.box_length, bins);
  const double shot =
      std::pow(set.box_length, 3) / static_cast<double>(set.size());
  std::printf("%12s %14s %10s   (shot noise %.4g)\n", "k", "P(k)", "modes",
              shot);
  for (const auto& b : ps)
    if (b.modes)
      std::printf("%12.4f %14.6g %10zu\n", b.k, b.power, b.modes);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const dtfe::CliArgs args(argc, argv);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "render") return cmd_render(args);
    if (cmd == "pipeline") return cmd_pipeline(args);
    if (cmd == "launch")
      return cmd_pipeline(args, /*default_transport_socket=*/true);
    if (cmd == "lensing") return cmd_lensing(args);
    if (cmd == "spectrum") return cmd_spectrum(args);
    return usage();
  } catch (const dtfe::Error& e) {
    std::fprintf(stderr, "pdtfe: %s\n", e.what());
    return 1;
  }
}
