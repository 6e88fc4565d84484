// pdtfe_bench — the benchmark's measuring program (perfbench/README.md).
//
//   pdtfe_bench generate --out snap.bin [--seed 1]
//   pdtfe_bench run   pipeline|render <flags of that pdtfe subcommand>
//   pdtfe_bench trace [--spans-out spans.json] [--scaling 0|1]
//                     pipeline|render <flags of that pdtfe subcommand>
//
// `generate` writes the benchmark's halo-model snapshot (shape in
// cmd_generate) for one generator seed.
//
// `run` is one untraced end-to-end run through the public entry points in
// the order apps/pdtfe_main.cpp calls them, with the EngineConfig the same
// flags build there. It prints one JSON line: wall, set-up and CPU time,
// peak RSS, and the correctness gate's inputs (grid checksums formatted the
// way pdtfe prints them, so perfbench/run.py compares them as strings).
//
// `trace` runs the same path twice with spans and the program's metrics
// registry on, replays every item serially through the sub-layer
// constructors, optionally times run_batch at the full and at a one-thread
// budget back to back, and prints one JSON line of per-layer metrics. Spans
// stay in memory and are written to --spans-out at the end.
#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "delaunay/hull_projection.h"
#include "delaunay/triangulation.h"
#include "dtfe/density.h"
#include "dtfe/field.h"
#include "dtfe/march_tables.h"
#include "dtfe/marching_kernel.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "engine/field_kernel.h"
#include "framework/pipeline.h"
#include "nbody/fof.h"
#include "nbody/generators.h"
#include "nbody/particles.h"
#include "nbody/snapshot_io.h"
#include "obs/metrics.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/simd.h"

#ifndef PDTFE_BENCH_BUILD_TYPE
#define PDTFE_BENCH_BUILD_TYPE ""
#endif

namespace {

using namespace dtfe;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User plus system CPU seconds of the whole process (all threads).
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Flat JSON object writer: keys in insertion order, numbers at full
/// precision.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, std::isfinite(v) ? fmt("%.17g", v) : "null");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- spans -----------------------------------------------------------------

/// In-memory span log of the traced pass: name, start, end, parent span and
/// run id, timed with the steady clock relative to the log's creation.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int run = 0;
  };

  void set_run(int run) { run_ = run; }

  int open(const std::string& name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_s() - epoch_, 0.0,
                      stack_.empty() ? -1 : stack_.back(), run_});
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s() - epoch_;
    stack_.pop_back();
  }

  /// Summed duration of every span called `name` in `run`.
  double total(const std::string& name, int run) const {
    double s = 0.0;
    for (const Span& sp : spans_)
      if (sp.run == run && sp.name == name) s += sp.end - sp.start;
    return s;
  }

  /// Mean of total(name, run) over the two traced passes, runs 1 and 2.
  double mean_of_runs(const std::string& name) const {
    return 0.5 * (total(name, 1) + total(name, 2));
  }

  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": " << quote(sp.name)
          << ", \"start_s\": " << fmt("%.9f", sp.start)
          << ", \"end_s\": " << fmt("%.9f", sp.end)
          << ", \"parent\": " << sp.parent << ", \"run\": " << sp.run << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  double epoch_ = now_s();
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for its scope; a no-op when the log is null (untraced runs).
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name)
      : log_(log), id_(log ? log->open(name) : -1) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (log_) log_->close(id_);
  }

 private:
  SpanLog* log_;
  int id_;
};

// ---- correctness gate ------------------------------------------------------

/// What the gate compares against the pdtfe CLI's output for the same
/// snapshot and flags. Strings carry the CLI's print format.
struct Gate {
  std::size_t requested = 0;
  std::size_t bad = 0;  ///< not completed, contained failure, or non-finite
  std::string checksum_total;  ///< "grid checksum total: %.9e"
  std::vector<std::pair<std::string, std::string>> channels;  ///< %.9e each
  std::string mass;  ///< render: "grid mass %.0f"
  double mass_rel_err = 0.0;
  std::string map_checksum;  ///< render: position-weighted sum, %.9e

  std::string json() const {
    JsonObject ch;
    for (const auto& [name, sum] : channels) ch.str(name, sum);
    JsonObject o;
    o.num("requested", static_cast<double>(requested))
        .num("bad", static_cast<double>(bad))
        .str("checksum_total", checksum_total)
        .raw("channels", ch.dump())
        .str("mass", mass)
        .num("mass_rel_err", mass_rel_err)
        .str("map_checksum", map_checksum);
    return o.dump();
  }
};

/// Sum of every pixel weighted by its 1-based row-major index over the
/// pixel count: moving mass between pixels changes it, unlike the mass.
double position_weighted_sum(const Grid2D& g) {
  const std::span<const double> v = g.values();
  double s = 0.0;
  for (std::size_t k = 0; k < v.size(); ++k)
    s += v[k] * static_cast<double>(k + 1);
  return s / static_cast<double>(v.size());
}

bool all_finite(const FieldGrid& g) {
  for (std::size_t c = 0; c < g.channels(); ++c)
    for (const double v : g.plane(c).values())
      if (!std::isfinite(v)) return false;
  return true;
}

// ---- end-to-end paths ------------------------------------------------------

struct Timing {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double cpu_s = 0.0;
};

/// One pipeline run plus what the traced pass reads from it afterwards.
struct PipelineRun {
  Timing t;
  Gate gate;
  double run_batch_s = 0.0;
  double run_batch_cpu_s = 0.0;
  std::size_t particles = 0;
  std::size_t groups = 0;
  std::vector<engine::FieldRequest> requests;
  std::vector<PhaseTimes> rank_phases;
  std::size_t items_sent = 0;
  /// Engine ItemRecord::n_particles per request index (every record of a
  /// request, e.g. the workload model's sample item, must agree).
  std::map<std::ptrdiff_t, double> item_particles;
  bool item_particles_consistent = true;
};

/// `pdtfe pipeline`'s path: read_snapshot → find_fof_groups → requests →
/// Engine(cfg).run_batch → check every grid.
PipelineRun run_pipeline(const engine::EngineConfig& cfg, SpanLog* log) {
  PipelineRun out;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  ParticleSet set;
  {
    SpanScope s(log, "nbody.read_snapshot");
    set = read_snapshot(cfg.snapshot);
  }
  std::vector<FofGroup> groups;
  {
    SpanScope s(log, "nbody.fof");
    groups = find_fof_groups(set);
  }
  {
    SpanScope s(log, "bench.requests");
    for (std::size_t i = 0;
         i < groups.size() && out.requests.size() < cfg.n_fields; ++i)
      out.requests.push_back({groups[i].center});
  }
  out.t.setup_s = now_s() - t0;

  std::vector<engine::FieldResult> fields;
  engine::Engine eng(cfg);
  {
    SpanScope s(log, "engine.run_batch");
    const double c0 = process_cpu_s();
    const double w0 = now_s();
    fields = eng.run_batch(out.requests);
    out.run_batch_s = now_s() - w0;
    out.run_batch_cpu_s = process_cpu_s() - c0;
  }
  {
    // Same sums in the same order as cmd_pipeline prints them.
    SpanScope s(log, "bench.check");
    Gate& g = out.gate;
    g.requested = out.requests.size();
    double total = 0.0;
    const FieldKind kind = cfg.pipeline.field;
    const std::vector<std::string> names =
        kind == FieldKind::kDensity ? std::vector<std::string>{}
                                    : field_channel_names(kind);
    std::vector<double> channel_sums(names.size(), 0.0);
    for (const engine::FieldResult& f : fields) {
      if (!f.completed || f.failed || !all_finite(f.grid)) ++g.bad;
      if (!f.completed) continue;
      total += f.checksum;
      for (std::size_t c = 0; c < f.grid.channels() && c < names.size(); ++c)
        channel_sums[c] += f.grid.plane_sum(c);
    }
    g.checksum_total = fmt("%.9e", total);
    for (std::size_t c = 0; c < names.size(); ++c)
      g.channels.emplace_back(names[c], fmt("%.9e", channel_sums[c]));
  }
  out.t.wall_s = now_s() - t0;
  out.t.cpu_s = process_cpu_s() - cpu0;

  out.particles = set.size();
  out.groups = groups.size();
  for (const engine::RankRun& run : eng.last_rank_runs()) {
    out.rank_phases.push_back(run.result.phases);
    out.items_sent += run.result.items_sent;
    for (const ItemRecord& it : run.result.items) {
      const auto [pos, fresh] =
          out.item_particles.emplace(it.request_index, it.n_particles);
      if (!fresh && pos->second != it.n_particles)
        out.item_particles_consistent = false;
    }
  }
  return out;
}

/// The whole-box density map `pdtfe render` draws.
FieldSpec whole_box(double box, std::size_t grid) {
  FieldSpec spec;
  spec.origin = {0.0, 0.0};
  spec.length = box;
  spec.resolution = grid;
  spec.zmin = 0.0;
  spec.zmax = box;
  return spec;
}

struct RenderRun {
  Timing t;
  Gate gate;
  std::size_t particles = 0;
};

/// `pdtfe render --method <kernel>`'s density path with its default kernel
/// options: read_snapshot → FieldCube →
/// KernelRegistry::builtin().create(method)->render → check the map.
RenderRun run_render(const CommonFieldFlags& ra, SpanLog* log) {
  RenderRun out;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  ParticleSet set;
  {
    SpanScope s(log, "nbody.read_snapshot");
    set = read_snapshot(ra.in);
  }
  out.t.setup_s = now_s() - t0;

  const FieldSpec spec = whole_box(set.box_length, ra.grid);
  FieldGrid map;
  {
    std::unique_ptr<engine::FieldCube> cube;
    {
      SpanScope s(log, "engine.field_cube");
      cube = std::make_unique<engine::FieldCube>(set.positions,
                                                 set.particle_mass);
    }
    SpanScope s(log, "engine.kernel_render");
    engine::KernelStats stats;
    map = engine::KernelRegistry::builtin().create(ra.method)->render(
        *cube, engine::RenderRequest{spec}, nullptr, stats);
  }
  {
    SpanScope s(log, "bench.check");
    Gate& g = out.gate;
    g.requested = 1;
    g.bad = all_finite(map) ? 0 : 1;
    const double mass = map.sum() * spec.cell_size() * spec.cell_size();
    g.mass = fmt("%.0f", mass);
    g.mass_rel_err = std::abs(mass - set.total_mass()) / set.total_mass();
    g.map_checksum = fmt("%.9e", position_weighted_sum(map.plane(0)));
  }
  out.t.wall_s = now_s() - t0;
  out.t.cpu_s = process_cpu_s() - cpu0;
  out.particles = set.size();
  return out;
}

// ---- host record -----------------------------------------------------------

std::string host_json(int threads_used) {
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return std::string(v ? v : "");
  };
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  JsonObject o;
  o.num("nproc", omp_get_num_procs())
      .num("threads_used", threads_used)
      .num("l2_bytes", static_cast<double>(l2))
      .num("llc_bytes", static_cast<double>(l3 > 0 ? l3 : l2))
      .str("simd_isa", simd::isa_name())
      .str("compiler", std::string("g++ ") + __VERSION__)
      .str("build_type", PDTFE_BENCH_BUILD_TYPE)
      .str("OMP_WAIT_POLICY", env("OMP_WAIT_POLICY"))
      .str("OMP_NUM_THREADS", env("OMP_NUM_THREADS"))
      .str("OMP_PROC_BIND", env("OMP_PROC_BIND"));
  return o.dump();
}

/// Cap for the render workload's OpenMP team: min(4, nproc).
int render_team() { return std::min(4, omp_get_num_procs()); }

int pipeline_threads(const engine::EngineConfig& cfg) {
  return cfg.pipeline.threads > 0 ? cfg.pipeline.threads
                                  : omp_get_max_threads();
}

JsonObject timing_json(const Timing& t, const Gate& g) {
  JsonObject o;
  o.num("wall_s", t.wall_s)
      .num("setup_s", t.setup_s)
      .num("cpu_s", t.cpu_s)
      .num("peak_rss_mb", peak_rss_mb())
      .raw("gate", g.json());
  return o;
}

// ---- per-item replay -------------------------------------------------------

struct ReplayTotals {
  std::size_t points = 0;     ///< triangulated input points
  std::size_t cells = 0;      ///< live Delaunay cells
  std::size_t allocs = 0;     ///< Triangulation::alloc_events()
  std::uint64_t rays = 0;
  std::uint64_t crossings = 0;
  std::uint64_t restarts = 0;
  std::uint64_t failed_cells = 0;
  std::size_t count_mismatches = 0;  ///< cube sizes != ItemRecord::n_particles
};

bool lex_less(const Vec3& a, const Vec3& b) {
  if (a.x != b.x) return a.x < b.x;
  if (a.y != b.y) return a.y < b.y;
  return a.z < b.z;
}

/// Time each public sub-layer constructor and the march over one cube, as
/// spans under "replay.item".
void replay_cube(const std::vector<Vec3>& pts, double mass,
                 const FieldSpec& spec, SpanLog& log, ReplayTotals& tot) {
  std::unique_ptr<Triangulation> tri;
  {
    SpanScope s(&log, "delaunay.triangulate");
    tri = std::make_unique<Triangulation>(pts);
  }
  std::unique_ptr<DensityField> rho;
  {
    SpanScope s(&log, "dtfe.density");
    rho = std::make_unique<DensityField>(*tri, mass);
  }
  std::unique_ptr<HullProjection> hull;
  {
    SpanScope s(&log, "delaunay.hull");
    hull = std::make_unique<HullProjection>(*tri);
  }
  std::shared_ptr<const TetraGeomTable> geom;
  {
    SpanScope s(&log, "dtfe.geom_table");
    geom = std::make_shared<const TetraGeomTable>(*tri);
  }
  {
    SpanScope s(&log, "dtfe.coef_table");
    const FieldCoefTable coef(*rho);
  }
  std::unique_ptr<MarchingKernel> kernel;
  {
    SpanScope s(&log, "dtfe.march_kernel");
    kernel = std::make_unique<MarchingKernel>(*rho, *hull, MarchingOptions{},
                                              geom);
  }
  {
    SpanScope s(&log, "dtfe.march");
    const Grid2D grid = kernel->render(spec);
  }
  tot.points += pts.size();
  tot.cells += tri->num_cells();
  tot.allocs += tri->alloc_events();
  const MarchingStats& st = kernel->stats();
  tot.rays += st.rays_marched;
  tot.crossings += st.tetra_crossed;
  tot.restarts += st.perturb_restarts;
  tot.failed_cells += st.failed_cells;
}

/// Replay every request of a pipeline run serially: gather the cube from the
/// snapshot, sort it as the engine does, then FieldCube + kernel render and
/// the sub-layer constructors one by one.
ReplayTotals replay_pipeline(const engine::EngineConfig& cfg,
                             const PipelineRun& run, SpanLog& log) {
  ReplayTotals tot;
  const PipelineOptions& opt = cfg.pipeline;
  const SnapshotHeader header = read_snapshot_header(cfg.snapshot);
  const double side = opt.cube_pad * opt.field_length;
  const std::unique_ptr<engine::FieldKernel> kernel =
      engine::KernelRegistry::builtin().create(opt.kernel);
  for (std::size_t i = 0; i < run.requests.size(); ++i) {
    const Vec3 center = run.requests[i].center;
    SpanScope item(&log, "replay.item");
    std::vector<Vec3> pts;
    {
      SpanScope s(&log, "engine.gather");
      pts = read_snapshot_cube(cfg.snapshot, header, center, side);
      std::sort(pts.begin(), pts.end(), lex_less);
    }
    const auto rec = run.item_particles.find(static_cast<std::ptrdiff_t>(i));
    if (rec == run.item_particles.end() ||
        rec->second != static_cast<double>(pts.size()))
      ++tot.count_mismatches;
    if (pts.size() < opt.min_particles) continue;  // the engine's zero grid

    engine::RenderRequest request{
        FieldSpec::centered(center, opt.field_length, opt.field_resolution)};
    request.field = opt.field;
    request.smooth_ensemble = opt.smooth_ensemble;
    request.model_seed = opt.seed;
    {
      std::unique_ptr<engine::FieldCube> cube;
      {
        SpanScope s(&log, "engine.field_cube");
        cube = std::make_unique<engine::FieldCube>(pts, header.particle_mass);
      }
      SpanScope s(&log, "engine.kernel_render");
      engine::KernelStats stats;
      kernel->render(*cube, request, nullptr, stats);
    }
    replay_cube(pts, header.particle_mass, request.spec, log, tot);
  }
  return tot;
}

// ---- traced pass -----------------------------------------------------------

/// Program counters read from obs::MetricsRegistry after a traced pass,
/// under the benchmark's metric names.
const std::vector<std::pair<std::string, std::string>> kProgramCounters = {
    {"simmpi.messages_sent", "dtfe.simmpi.messages_sent"},
    {"simmpi.bytes_sent", "dtfe.simmpi.bytes_sent"},
    {"op.delaunay.walk_steps", "dtfe.delaunay.walk_steps"},
    {"op.kernel.tetra_crossings", "dtfe.kernel.tetra_crossings"},
};

std::map<std::string, double> read_program_counters() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  std::map<std::string, double> out;
  for (const auto& [name, program_name] : kProgramCounters)
    out[name] = snap.counter(program_name);
  return out;
}

/// Metric names → values, plus the names that do not apply to the workload
/// (reported as 0) with the reason.
struct LayerMetrics {
  std::map<std::string, double> values;
  std::map<std::string, std::string> absent;
  std::vector<std::string> count_mismatches;
  bool correct = true;

  void set(const std::string& name, double v) { values[name] = v; }
  void mark_absent(const std::vector<std::string>& names,
                   const std::string& why) {
    for (const std::string& n : names) {
      values[n] = 0.0;
      absent[n] = why;
    }
  }
  /// Record an exact count from two traced passes; flag it if they differ.
  void count(const std::string& name, double first, double second) {
    set(name, first);
    if (first != second) count_mismatches.push_back(name);
  }
};

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

void add_replay_metrics(const SpanLog& log, int run, const ReplayTotals& tot,
                        LayerMetrics& m) {
  const double tri = log.total("delaunay.triangulate", run);
  const double density = log.total("dtfe.density", run);
  const double hull = log.total("delaunay.hull", run);
  const double geom = log.total("dtfe.geom_table", run);
  const double coef = log.total("dtfe.coef_table", run);
  const double kernel = log.total("dtfe.march_kernel", run);
  const double march = log.total("dtfe.march", run);
  const double item = tri + density + hull + geom + coef + kernel + march;
  m.set("delaunay.triangulate.s", tri);
  m.set("delaunay.triangulate.share", safe_div(tri, item));
  const auto points = static_cast<double>(tot.points);
  m.set("delaunay.inserts_per_s", safe_div(points, tri));
  m.set("delaunay.allocs_per_insert",
        safe_div(static_cast<double>(tot.allocs), points));
  m.set("delaunay.hull.s", hull);
  m.set("dtfe.density.s", density);
  m.set("dtfe.geom_table.s", geom);
  m.set("dtfe.coef_table.s", coef);
  m.set("dtfe.tables.share", safe_div(geom + coef, item));
  m.set("dtfe.march.s", march);
  m.set("dtfe.march.share", safe_div(march, item));
  m.set("dtfe.march.crossings_per_s",
        safe_div(static_cast<double>(tot.crossings), march));
  m.set("dtfe.march.perturb_restarts", static_cast<double>(tot.restarts));
  m.set("dtfe.march.failed_cells", static_cast<double>(tot.failed_cells));
}

void add_replay_counts(const ReplayTotals& a, const ReplayTotals& b,
                       LayerMetrics& m) {
  m.count("delaunay.cells", static_cast<double>(a.cells),
          static_cast<double>(b.cells));
  m.count("dtfe.march.rays", static_cast<double>(a.rays),
          static_cast<double>(b.rays));
  m.count("dtfe.march.crossings", static_cast<double>(a.crossings),
          static_cast<double>(b.crossings));
}

void add_program_counts(const std::map<std::string, double>& a,
                        const std::map<std::string, double>& b,
                        LayerMetrics& m) {
  for (const auto& [name, program_name] : kProgramCounters)
    m.count(name, a.at(name), b.at(name));
}

/// Mean of the two traced passes.
double mean2(double a, double b) { return 0.5 * (a + b); }

LayerMetrics trace_pipeline(const engine::EngineConfig& cfg, bool scaling,
                            SpanLog& log) {
  LayerMetrics m;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  PipelineRun runs[2];
  std::map<std::string, double> counters[2];
  ReplayTotals replays[2];
  for (int r = 0; r < 2; ++r) {
    log.set_run(r + 1);
    reg.reset();
    reg.set_enabled(true);
    runs[r] = run_pipeline(cfg, &log);
    reg.set_enabled(false);
    counters[r] = read_program_counters();
    if (runs[r].gate.bad > 0 || !runs[r].item_particles_consistent)
      m.correct = false;
    // The replay marches with the kernel team the engine gives each rank.
    const int team = omp_get_max_threads();
    omp_set_num_threads(
        std::max(1, pipeline_threads(cfg) / std::max(1, cfg.ranks)));
    replays[r] = replay_pipeline(cfg, runs[r], log);
    omp_set_num_threads(team);
    if (replays[r].count_mismatches > 0) m.correct = false;
  }
  const PipelineRun& a = runs[0];
  const double wall = mean2(runs[0].t.wall_s, runs[1].t.wall_s);
  const double read = log.mean_of_runs("nbody.read_snapshot");
  const double fof = log.mean_of_runs("nbody.fof");
  m.set("bench.traced_wall_s", wall);
  m.set("nbody.read_snapshot.s", read);
  m.set("nbody.read_snapshot.mb_per_s",
        safe_div(static_cast<double>(a.particles) * 3 * sizeof(double) / 1e6,
                 read));
  m.set("nbody.fof.s", fof);
  m.set("nbody.fof.share", safe_div(fof, wall));
  m.count("nbody.fof.groups", static_cast<double>(runs[0].groups),
          static_cast<double>(runs[1].groups));

  // Thread-CPU phase times as the engine reports them, summed over ranks.
  double partition = 0.0, work_share = 0.0, model = 0.0, busy_max = 0.0,
         busy_sum = 0.0;
  for (const PhaseTimes& p : a.rank_phases) {
    partition += p.partition;
    work_share += p.work_share;
    model += p.model;
    busy_max = std::max(busy_max, p.total());
    busy_sum += p.total();
  }
  const double busy_mean =
      safe_div(busy_sum, static_cast<double>(a.rank_phases.size()));
  m.set("framework.partition.cpu_s", partition);
  m.set("framework.work_share.cpu_s", work_share);
  m.set("framework.model.cpu_s", model);
  m.set("framework.imbalance", safe_div(busy_max, busy_mean));
  m.set("framework.items_sent", static_cast<double>(a.items_sent));

  const double rb = mean2(runs[0].run_batch_s, runs[1].run_batch_s);
  const double rb_cpu = mean2(runs[0].run_batch_cpu_s, runs[1].run_batch_cpu_s);
  m.set("engine.run_batch.s", rb);
  m.set("engine.run_batch.cpu_s", rb_cpu);
  m.set("engine.run_batch.cores_used", safe_div(rb_cpu, rb));
  if (scaling) {
    // Same requests at the full and at a one-thread budget, back to back,
    // both warm and with the registry off; throughput ratio = wall ratio.
    log.set_run(3);
    auto timed_batch = [&](int threads, const char* span) {
      engine::EngineConfig c = cfg;
      c.pipeline.threads = threads;
      engine::Engine eng(c);
      SpanScope s(&log, span);
      const double w0 = now_s();
      const auto fields = eng.run_batch(a.requests);
      const double wall = now_s() - w0;
      for (const auto& f : fields)
        if (!f.completed || f.failed) m.correct = false;
      return wall;
    };
    const double wt =
        timed_batch(pipeline_threads(cfg), "scaling.run_batch.full");
    const double w1 = timed_batch(1, "scaling.run_batch.one");
    m.set("engine.thread_scaling", safe_div(w1, wt));
  } else {
    m.mark_absent({"engine.thread_scaling"},
                  "measured on the catalog workload only");
  }
  m.set("engine.field_cube.s", log.mean_of_runs("engine.field_cube"));
  m.set("engine.kernel_render.s", log.mean_of_runs("engine.kernel_render"));
  m.set("engine.gather.s", log.mean_of_runs("engine.gather"));
  // Top-level spans of the end-to-end part only: the replay is not in wall.
  double attributed = 0.0;
  for (const char* name : {"nbody.read_snapshot", "nbody.fof", "bench.requests",
                           "engine.run_batch", "bench.check"})
    attributed += log.total(name, 1);
  m.set("engine.unattributed_frac",
        safe_div(runs[0].t.wall_s - attributed, runs[0].t.wall_s));

  add_replay_metrics(log, 1, replays[0], m);
  add_replay_counts(replays[0], replays[1], m);
  add_program_counts(counters[0], counters[1], m);
  return m;
}

LayerMetrics trace_render(const CommonFieldFlags& ra, SpanLog& log) {
  LayerMetrics m;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  RenderRun runs[2];
  std::map<std::string, double> counters[2];
  ReplayTotals replays[2];
  for (int r = 0; r < 2; ++r) {
    log.set_run(r + 1);
    reg.reset();
    reg.set_enabled(true);
    runs[r] = run_render(ra, &log);
    reg.set_enabled(false);
    counters[r] = read_program_counters();
    if (runs[r].gate.bad > 0) m.correct = false;
    // The replay's single cube is the whole snapshot in file order, exactly
    // what the render path triangulates.
    const ParticleSet set = read_snapshot(ra.in);
    SpanScope item(&log, "replay.item");
    replay_cube(set.positions, set.particle_mass,
                whole_box(set.box_length, ra.grid), log, replays[r]);
  }
  const double wall = mean2(runs[0].t.wall_s, runs[1].t.wall_s);
  const double read = log.mean_of_runs("nbody.read_snapshot");
  m.set("bench.traced_wall_s", wall);
  m.set("nbody.read_snapshot.s", read);
  m.set("nbody.read_snapshot.mb_per_s",
        safe_div(static_cast<double>(runs[0].particles) * 3 * sizeof(double) /
                     1e6,
                 read));
  m.mark_absent({"nbody.fof.s", "nbody.fof.share", "nbody.fof.groups"},
                "render does not call find_fof_groups");
  m.mark_absent({"framework.partition.cpu_s", "framework.work_share.cpu_s",
                 "framework.model.cpu_s", "framework.imbalance",
                 "framework.items_sent", "engine.run_batch.s",
                 "engine.run_batch.cpu_s", "engine.run_batch.cores_used",
                 "engine.thread_scaling", "engine.gather.s"},
                "render does not run the engine's ranks, scheduling or "
                "work sharing");
  m.set("engine.field_cube.s", log.mean_of_runs("engine.field_cube"));
  m.set("engine.kernel_render.s", log.mean_of_runs("engine.kernel_render"));
  double attributed = 0.0;
  for (const char* name : {"nbody.read_snapshot", "engine.field_cube",
                           "engine.kernel_render", "bench.check"})
    attributed += log.total(name, 1);
  m.set("engine.unattributed_frac",
        safe_div(runs[0].t.wall_s - attributed, runs[0].t.wall_s));
  add_replay_metrics(log, 1, replays[0], m);
  add_replay_counts(replays[0], replays[1], m);
  add_program_counts(counters[0], counters[1], m);
  m.mark_absent({"simmpi.messages_sent", "simmpi.bytes_sent"},
                "render sends no messages");
  return m;
}

std::string layer_json(const LayerMetrics& m, const std::string& host) {
  JsonObject values, absent;
  for (const auto& [name, v] : m.values) values.num(name, v);
  for (const auto& [name, why] : m.absent) absent.str(name, why);
  std::string mismatches = "[";
  for (std::size_t i = 0; i < m.count_mismatches.size(); ++i)
    mismatches += (i ? ", " : "") + quote(m.count_mismatches[i]);
  mismatches += "]";
  JsonObject o;
  o.raw("correct", m.correct ? "true" : "false")
      .raw("metrics", values.dump())
      .raw("absent", absent.dump())
      .raw("count_mismatches", mismatches)
      .raw("host", host);
  return o.dump();
}

// ---- commands --------------------------------------------------------------

/// Every workload's snapshot: 120k particles in 96 NFW halos plus the
/// generator's uniform background. The halo mass range is 10x (not the
/// generator's 100x) and the box 24, so the FOF-centred cubes of one seed
/// hold about the same work as another's.
int cmd_generate(const CliArgs& args) {
  const std::string out = args.get("out", std::string{});
  DTFE_CHECK_MSG(!out.empty(), "--out is required");
  HaloModelOptions gen;
  gen.n_particles = 120000;
  gen.box_length = 24.0;
  gen.n_halos = 96;
  gen.mass_min_fraction = 0.1;
  gen.seed = static_cast<std::uint64_t>(args.get("seed", 1L));
  write_snapshot(out, generate_halo_model(gen),
                 /*blocks_per_dim=*/4);
  return 0;
}

/// argv[first] is the pdtfe subcommand (pipeline|render); its flags follow.
int cmd_measure(bool traced, const CliArgs& own, int argc, char** argv,
                int first) {
  DTFE_CHECK_MSG(first < argc, "missing pdtfe subcommand (pipeline|render)");
  const std::string sub = argv[first];
  const CliArgs args(argc, argv, first + 1);
  SpanLog log;
  if (sub == "pipeline") {
    const engine::EngineConfig cfg = engine::EngineConfig::from_cli(args);
    const std::string host = host_json(pipeline_threads(cfg));
    if (!traced) {
      const PipelineRun run = run_pipeline(cfg, nullptr);
      std::printf("%s\n", timing_json(run.t, run.gate)
                              .raw("host", host)
                              .dump()
                              .c_str());
      return 0;
    }
    const LayerMetrics m =
        trace_pipeline(cfg, own.get("scaling", 0L) != 0, log);
    std::printf("%s\n", layer_json(m, host).c_str());
  } else if (sub == "render") {
    omp_set_num_threads(render_team());
    const CommonFieldFlags ra = parse_common_field_flags(args, 512L);
    const std::string host = host_json(render_team());
    if (!traced) {
      const RenderRun run = run_render(ra, nullptr);
      std::printf("%s\n", timing_json(run.t, run.gate)
                              .raw("host", host)
                              .dump()
                              .c_str());
      return 0;
    }
    const LayerMetrics m = trace_render(ra, log);
    std::printf("%s\n", layer_json(m, host).c_str());
  } else {
    std::fprintf(stderr, "pdtfe_bench: unknown subcommand %s\n", sub.c_str());
    return 2;
  }
  const std::string spans_out = own.get("spans-out", std::string{});
  if (!spans_out.empty() && !log.write_json(spans_out)) {
    std::fprintf(stderr, "pdtfe_bench: cannot write %s\n", spans_out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: pdtfe_bench generate|run|trace ... "
                 "(see perfbench/pdtfe_bench.cpp)\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmd_generate(dtfe::CliArgs(argc, argv));
    if (cmd == "run" || cmd == "trace") {
      // Own flags come in --key value pairs before the pdtfe subcommand.
      int first = 2;
      while (first < argc && std::string(argv[first]).rfind("--", 0) == 0)
        first += 2;
      const dtfe::CliArgs own(std::min(first, argc), argv);
      return cmd_measure(cmd == "trace", own, argc, argv, first);
    }
  } catch (const dtfe::Error& e) {
    std::fprintf(stderr, "pdtfe_bench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "pdtfe_bench: unknown command %s\n", cmd.c_str());
  return 2;
}
