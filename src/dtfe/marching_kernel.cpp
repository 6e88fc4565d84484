#include "dtfe/marching_kernel.h"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>

#include "dtfe/field_cube.h"
#include "geometry/ray_tetra.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/timer.h"

namespace dtfe {

namespace {

struct MarchMetrics {
  obs::MetricId rays = obs::counter("dtfe.kernel.rays_integrated");
  obs::MetricId crossings = obs::counter("dtfe.kernel.tetra_crossings");
  obs::MetricId restarts = obs::counter("dtfe.kernel.perturb_restarts");
  obs::MetricId failed = obs::counter("dtfe.kernel.failed_cells");
  obs::MetricId empty = obs::counter("dtfe.kernel.empty_cells");
  obs::MetricId crossings_per_ray = obs::histogram(
      "dtfe.kernel.crossings_per_ray",
      {0, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096});
};

const MarchMetrics& march_metrics() {
  static const MarchMetrics m;
  return m;
}
std::uint64_t next_rand(std::uint64_t& s) {
  // xorshift64 has a fixed point at 0: an all-zero state would never leave
  // it and every perturbation below would degenerate to the same direction.
  if (s == 0) s = 0x9e3779b97f4a7c15ull;
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}
double rand_unit(std::uint64_t& s) {
  return static_cast<double>(next_rand(s) >> 11) * 0x1.0p-53;
}
/// Van der Corput radical inverse of i in the given base (Halton component).
double radical_inverse(std::uint32_t i, std::uint32_t base) {
  double f = 1.0, r = 0.0;
  while (i) {
    f /= static_cast<double>(base);
    r += f * static_cast<double>(i % base);
    i /= base;
  }
  return r;
}
/// Per-ray RNG state: splitmix of (stream seed, ray index). Independent of
/// which thread draws the ray, so renders are bitwise reproducible under any
/// OpenMP schedule — the property checkpoint resume relies on.
std::uint64_t ray_seed(std::uint64_t seed, std::uint64_t ray_index) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (ray_index + 1));
  const std::uint64_t v = detail::splitmix64(state);
  return v ? v : 0x9e3779b97f4a7c15ull;
}
const MarchingOptions& checked(const MarchingOptions& opt) {
  DTFE_CHECK(opt.monte_carlo_samples >= 1);
  DTFE_CHECK(opt.max_perturb_retries >= 1);
  return opt;
}
}  // namespace

MarchingKernel::MarchingKernel(const FieldCube& cube, MarchingOptions opt)
    : density_(&cube.density()), hull_(&cube.hull()), opt_(checked(opt)) {
  if (uses_tables()) {
    geom_ = cube.geom_table();
    field_ = cube.coef_table();
  }
}

MarchingKernel::MarchingKernel(const DensityField& density,
                               const HullProjection& hull, MarchingOptions opt,
                               std::shared_ptr<const TetraGeomTable> geom)
    : density_(&density), hull_(&hull), opt_(checked(opt)) {
  if (uses_tables()) {
    geom_ = geom != nullptr ? std::move(geom)
                            : std::make_shared<const TetraGeomTable>(
                                  density.triangulation());
    field_ = std::make_shared<const FieldCoefTable>(density);
  }
}

MarchingKernel::MarchingKernel(const MarchingKernel& base,
                               const MarchingOptions& opt)
    : density_(base.density_),
      hull_(base.hull_),
      opt_(opt),
      geom_(base.geom_),
      field_(base.field_) {}

void MarchingKernel::add_interval(CellId c, const Vec2& xi, double a, double b,
                                  double zmin, double zmax, double dz,
                                  double& sigma) const {
  a = std::max(a, zmin);
  b = std::min(b, zmax);
  if (b <= a) return;
  const int nz = opt_.z_samples;
  if (nz <= 0) {
    // Exact per-tetra integral at the interval midpoint (Eq. 12).
    sigma += field_->value(c, xi.x, xi.y, 0.5 * (a + b)) * (b - a);
    return;
  }
  // Fixed z-planes within [a, b): the interpolant restricted to the column
  // is base + g_z·z, one multiply-add per sample.
  const double base = field_->column_base(c, xi.x, xi.y);
  const double gz = field_->gz(c);
  auto k = static_cast<std::ptrdiff_t>(std::ceil((a - zmin) / dz - 0.5));
  if (k < 0) k = 0;
  for (; k < nz; ++k) {
    const double z = zmin + (static_cast<double>(k) + 0.5) * dz;
    if (z >= b) break;
    sigma += (base + gz * z) * dz;
  }
}

MarchingKernel::Attempt MarchingKernel::march_once_fast(const Vec2& xi,
                                                        double zmin,
                                                        double zmax) const {
  const Triangulation& tri = density_->triangulation();
  const TetraGeomTable& geom = *geom_;
  Attempt out;

  const auto entry = hull_->first_entry(xi);
  CellId c = entry.cell;
  if (c == Triangulation::kNoCell) {
    out.empty = true;
    return out;
  }

  const int nz = opt_.z_samples;
  const double dz = nz > 0 ? (zmax - zmin) / nz : 0.0;
  // A vertical line through a convex hull crosses O(N^{1/3}) cells on
  // average; the cap is a defensive bound against adjacency cycles.
  const std::uint64_t max_steps = 16 * tri.num_cells() + 64;

  // Hot loop: each tetra costs six coefficient-table edge products plus one
  // face classification. The first cell's span test already classifies both
  // faces, so its exit needs no second pass.
  double s[6];
  coef_edge_products(geom.coef(c), xi, s);
  const VerticalSpan first = coef_vertical_span(geom.coef(c), s);
  if (!first.intersects || first.degenerate) {
    out.degenerate = true;
    out.degen_cell = c;
    return out;
  }
  double z_prev = first.z_enter;
  int entry_face = first.enter_face;
  VerticalExit ve;
  ve.found = true;
  ve.exit_face = first.exit_face;
  ve.z_exit = first.z_exit;
  bool have_exit = true;
  for (;;) {
    if (++out.steps > max_steps) {
      out.degenerate = true;
      out.degen_cell = c;
      return out;
    }
    if (!have_exit) {
      coef_edge_products(geom.coef(c), xi, s);
      ve = coef_vertical_exit(geom.coef(c), s, entry_face);
      if (!ve.found || ve.degenerate) {
        out.degenerate = true;
        out.degen_cell = c;
        return out;
      }
    }
    have_exit = false;
    add_interval(c, xi, z_prev, ve.z_exit, zmin, zmax, dz, out.sigma);
    if (ve.z_exit >= zmax) break;
    const CellId next = geom.next(c, ve.exit_face);
    if (next == Triangulation::kNoCell) break;
    entry_face = geom.mirror(c, ve.exit_face);
    z_prev = ve.z_exit;
    c = next;
  }
  return out;
}

MarchingKernel::Attempt MarchingKernel::march_once_slow(const Vec2& xi,
                                                        double zmin,
                                                        double zmax) const {
  const Triangulation& tri = density_->triangulation();
  Attempt out;

  const auto entry = hull_->first_entry(xi);
  const CellId start = entry.cell;
  if (start == Triangulation::kNoCell) {
    out.empty = true;
    return out;
  }

  const Vec3 origin{xi.x, xi.y, 0.0};
  const Vec3 dir{0.0, 0.0, 1.0};
  const int nz = opt_.z_samples;
  const double dz = nz > 0 ? (zmax - zmin) / nz : 0.0;
  const std::uint64_t max_steps = 16 * tri.num_cells() + 64;

  // Oracle semantics: direct AoS geometry and the (p − x0) interpolant form
  // — kept byte-for-byte as the pre-table reference the audits compare to.
  auto accumulate = [&](CellId c, double a, double b) {
    a = std::max(a, zmin);
    b = std::min(b, zmax);
    if (b <= a) return;
    if (nz <= 0) {
      const Vec3 mid{xi.x, xi.y, 0.5 * (a + b)};
      out.sigma += density_->interpolate_in_cell(c, mid) * (b - a);
      return;
    }
    const auto& t = tri.cell(c);
    const Vec3& x0 = tri.point(t.v[0]);
    const Vec3& g = density_->cell_gradient(c);
    const double base = density_->vertex_density(t.v[0]) +
                        g.x * (xi.x - x0.x) + g.y * (xi.y - x0.y) -
                        g.z * x0.z;
    auto k = static_cast<std::ptrdiff_t>(std::ceil((a - zmin) / dz - 0.5));
    if (k < 0) k = 0;
    for (; k < nz; ++k) {
      const double z = zmin + (static_cast<double>(k) + 0.5) * dz;
      if (z >= b) break;
      out.sigma += (base + g.z * z) * dz;
    }
  };

  const PluckerLine line = PluckerLine::from_point_dir(origin, dir);
  CellId c = start;
  while (c != Triangulation::kNoCell && !tri.is_infinite(c)) {
    const auto pts = tri.cell_points(c);
    const LineTetraHit hit = opt_.use_moller_trumbore
                                 ? line_tetra_moller(origin, dir, pts)
                                 : line_tetra_plucker(line, origin, dir, pts);
    if (hit.degenerate || !hit.intersects || ++out.steps > max_steps) {
      out.degenerate = true;
      out.degen_cell = c;
      return out;
    }
    accumulate(c, hit.t_enter, hit.t_exit);
    if (hit.t_enter > zmax) break;
    c = tri.cell(c).n[hit.exit_face];
  }
  return out;
}

MarchingKernel::LineResult MarchingKernel::march_line(
    Vec2 xi, double zmin, double zmax, std::uint64_t& rng) const {
  const Triangulation& tri = density_->triangulation();
  const bool fast = geom_ != nullptr;

  // The perturbation scale is relative to the silhouette extent when no grid
  // context is available; render() passes grid-cell-relative epsilons by
  // pre-scaling opt_.perturb_epsilon.
  const double eps =
      opt_.perturb_epsilon *
      std::max(hull_->hi().x - hull_->lo().x, hull_->hi().y - hull_->lo().y);

  LineResult out;
  for (int attempt = 0;; ++attempt) {
    // A perturbation storm is the classic runaway; bail out of the retry
    // loop early once the item deadline fires (render() reports the
    // cancellation, this ray just stops burning time).
    if (attempt > 0 && opt_.deadline && opt_.deadline->expired()) {
      out.failed = true;
      return out;
    }
    const Attempt a = fast ? march_once_fast(xi, zmin, zmax)
                           : march_once_slow(xi, zmin, zmax);
    if (a.empty) {
      out.empty = true;
      return out;
    }
    if (!a.degenerate) {
      out.sigma = a.sigma;
      out.steps += a.steps;
      return out;
    }

    // Paper Fig. 2: perturb ℓ toward a random vertex of the offending
    // tetrahedron by ε and restart the march.
    {
      const auto& t = tri.cell(a.degen_cell);
      Vec2 delta{0.0, 0.0};
      for (int tries = 0; tries < 4 && delta.norm() < 1e-300; ++tries) {
        const int s = static_cast<int>(next_rand(rng) & 3);
        if (t.v[static_cast<std::size_t>(s)] == Triangulation::kInfinite)
          continue;
        const Vec3& v = tri.point(t.v[static_cast<std::size_t>(s)]);
        delta = Vec2{v.x, v.y} - xi;
      }
      if (delta.norm() < 1e-300)
        delta = {rand_unit(rng) - 0.5, rand_unit(rng) - 0.5};
      const double n = delta.norm();
      if (n > eps) delta = delta * (eps / n);
      xi = xi + delta;
    }
    out.steps += a.steps;
    ++out.restarts;
    if (attempt + 1 >= opt_.max_perturb_retries) {
      out.sigma = 0.0;  // the perturbed retries never finished cleanly
      out.failed = true;
      return out;
    }
  }
}

double MarchingKernel::refine_cell(const Vec2& center, double size,
                                   double zmin, double zmax, int depth,
                                   double weight, std::uint64_t& rng,
                                   MarchingStats* accum) const {
  // Sample the four quadrant centers; if they agree (relative spread below
  // tolerance) or the depth budget is spent, their mean is the cell value;
  // otherwise refine each quadrant.
  const double q = size * 0.25;
  const Vec2 sub[4] = {{center.x - q, center.y - q},
                       {center.x + q, center.y - q},
                       {center.x - q, center.y + q},
                       {center.x + q, center.y + q}};
  double vals[4];
  double lo = 1e300, hi = -1e300, mean = 0.0;
  for (int i = 0; i < 4; ++i) {
    const LineResult r = march_line(sub[i], zmin, zmax, rng);
    vals[i] = r.sigma;
    if (obs::metrics_enabled())
      obs::observe(march_metrics().crossings_per_ray,
                   static_cast<double>(r.steps));
    if (accum) {
      accum->rays_marched += 1;
      accum->tetra_crossed += r.steps;
      accum->perturb_restarts += static_cast<std::uint64_t>(r.restarts);
      accum->failed_cells += r.failed ? 1 : 0;
      accum->empty_cells += r.empty ? 1 : 0;
    }
    lo = std::min(lo, r.sigma);
    hi = std::max(hi, r.sigma);
    mean += 0.25 * r.sigma;
  }
  if (depth >= opt_.adaptive_max_depth ||
      hi - lo <= opt_.adaptive_tolerance * (std::abs(mean) + 1e-300)) {
    // Terminal node: these four samples are what actually enters the grid,
    // so only they contribute to the ray_mass audit accumulator.
    if (accum)
      for (int i = 0; i < 4; ++i) accum->ray_mass += 0.25 * weight * vals[i];
    return mean;
  }
  double refined = 0.0;
  for (int i = 0; i < 4; ++i)
    refined += 0.25 * refine_cell(sub[i], size * 0.5, zmin, zmax, depth + 1,
                                  0.25 * weight, rng, accum);
  return refined;
}

double MarchingKernel::integrate_line(const Vec2& xi, double zmin,
                                      double zmax) const {
  std::uint64_t rng = ray_seed(opt_.seed, 0);
  return march_line(xi, zmin, zmax, rng).sigma;
}

Grid2D MarchingKernel::render(const FieldSpec& spec) const {
  const std::size_t nx = spec.nx(), ny = spec.ny();
  Grid2D grid(nx, ny);
  const double h = spec.cell_size();

  obs::TraceSpan span("kernel.march_render", "kernel");
  span.add_arg("cells", static_cast<double>(nx * ny));

  MarchingStats stats;
  stats.thread_seconds.assign(
      static_cast<std::size_t>(omp_get_max_threads()), 0.0);
  std::uint64_t tot_rays = 0, tot_steps = 0, tot_restarts = 0, tot_failed = 0,
                tot_empty = 0;
  double tot_mass = 0.0;
  std::atomic<bool> cancelled{false};

  // ε is specified relative to the grid cell; march_line rescales by the
  // silhouette extent, so compose the two factors here. The worker clone
  // shares this kernel's coefficient tables — only its ε differs.
  MarchingOptions local = opt_;
  const double extent =
      std::max(hull_->hi().x - hull_->lo().x, hull_->hi().y - hull_->lo().y);
  local.perturb_epsilon = opt_.perturb_epsilon * (extent > 0.0 ? h / extent : 1.0);
  const MarchingKernel worker(*this, local);

  const PixelTiles tiles(nx, ny);
#pragma omp parallel reduction(+ : tot_rays, tot_steps, tot_restarts, tot_failed, tot_empty, tot_mass)
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    ThreadCpuTimer timer;
    std::uint64_t pixels_done = 0;

    auto render_pixel = [&](std::size_t ix, std::size_t iy) {
      // Cooperative watchdog: each thread polls the soft deadline on its
      // first pixel and every 16th after; once it fires, skip the rest of
      // the grid and report the cancellation after the parallel region
      // (throwing out of an omp loop is UB).
      if (opt_.deadline &&
          (cancelled.load(std::memory_order_relaxed) ||
           ((pixels_done++ & 15) == 0 && opt_.deadline->expired()))) {
        cancelled.store(true, std::memory_order_relaxed);
        return;
      }
      // Per-ray RNG: a pure function of (stream seed, row-major pixel
      // index), so the grid depends on neither the tile order nor the
      // OpenMP schedule.
      std::uint64_t rng = ray_seed(opt_.seed, iy * nx + ix);
      if (opt_.adaptive_max_depth > 0) {
        // Dynamic grid spacing: quadtree-refine cells whose corner lines
        // disagree.
        MarchingStats cell_stats;
        grid.at(ix, iy) = worker.refine_cell(spec.cell_center(ix, iy), h,
                                             spec.zmin, spec.zmax, 0, 1.0,
                                             rng, &cell_stats);
        tot_rays += cell_stats.rays_marched;
        tot_steps += cell_stats.tetra_crossed;
        tot_restarts += cell_stats.perturb_restarts;
        tot_failed += cell_stats.failed_cells;
        tot_empty += cell_stats.empty_cells;
        tot_mass += cell_stats.ray_mass;
        return;
      }
      double sigma = 0.0;
      const double rot_x = rand_unit(rng);
      const double rot_y = rand_unit(rng);
      for (int smp = 0; smp < opt_.monte_carlo_samples; ++smp) {
        // ξ for Monte Carlo sample `smp`: low-discrepancy jitter (Halton
        // (2,3) under a per-cell Cranley–Patterson rotation). Unbiased like
        // plain uniform jitter, but stratified — on halo-clustered inputs
        // (where a cell's column integral varies by orders of magnitude) the
        // mass-recovery error of 8 samples/cell drops severalfold versus
        // independent draws.
        Vec2 xi = spec.cell_center(ix, iy);
        if (opt_.monte_carlo_samples > 1) {
          double jx = radical_inverse(static_cast<std::uint32_t>(smp), 2) + rot_x;
          double jy = radical_inverse(static_cast<std::uint32_t>(smp), 3) + rot_y;
          jx -= std::floor(jx);
          jy -= std::floor(jy);
          xi.x += (jx - 0.5) * h;
          xi.y += (jy - 0.5) * h;
        }
        const LineResult r = worker.march_line(xi, spec.zmin, spec.zmax, rng);
        if (obs::metrics_enabled())
          obs::observe(march_metrics().crossings_per_ray,
                       static_cast<double>(r.steps));
        sigma += r.sigma;
        tot_rays += 1;
        tot_steps += r.steps;
        tot_restarts += static_cast<std::uint64_t>(r.restarts);
        tot_failed += r.failed ? 1 : 0;
        tot_empty += r.empty ? 1 : 0;
      }
      grid.at(ix, iy) = sigma / opt_.monte_carlo_samples;
      tot_mass += sigma / opt_.monte_carlo_samples;
    };

#pragma omp for schedule(dynamic, 1)
    for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(tiles.count());
         ++t)
      tiles.for_each_pixel(static_cast<std::size_t>(t), render_pixel);
    stats.thread_seconds[tid] = timer.seconds();
  }

  stats.cells_rendered = nx * ny;
  stats.rays_marched = tot_rays;
  stats.tetra_crossed = tot_steps;
  stats.perturb_restarts = tot_restarts;
  stats.failed_cells = tot_failed;
  stats.empty_cells = tot_empty;
  stats.ray_mass = tot_mass;
  stats_ = stats;

  if (cancelled.load(std::memory_order_relaxed))
    throw Error("marching render cancelled: item deadline exceeded");

  if (obs::metrics_enabled()) {
    const MarchMetrics& m = march_metrics();
    obs::add(m.rays, static_cast<double>(tot_rays));
    obs::add(m.crossings, static_cast<double>(tot_steps));
    obs::add(m.restarts, static_cast<double>(tot_restarts));
    obs::add(m.failed, static_cast<double>(tot_failed));
    obs::add(m.empty, static_cast<double>(tot_empty));
  }
  span.add_arg("rays", static_cast<double>(tot_rays));
  span.add_arg("tetra_crossings", static_cast<double>(tot_steps));
  return grid;
}

}  // namespace dtfe
