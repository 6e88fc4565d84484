#include "dtfe/walking_kernel.h"

#include <cmath>

#include "util/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace dtfe {

namespace {

struct WalkMetrics {
  obs::MetricId located = obs::counter("dtfe.kernel.walk_points_located");
  obs::MetricId outside = obs::counter("dtfe.kernel.walk_points_outside");
};

const WalkMetrics& walk_metrics() {
  static const WalkMetrics m;
  return m;
}
std::uint64_t next_rand(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}
double rand_unit(std::uint64_t& s) {
  return static_cast<double>(next_rand(s) >> 11) * 0x1.0p-53;
}
struct WalkTally {
  std::uint64_t located = 0, outside = 0;
  WalkTally& operator+=(const WalkTally& o) {
    located += o.located;
    outside += o.outside;
    return *this;
  }
};
}  // namespace

WalkingKernel::WalkingKernel(const DensityField& density, WalkingOptions opt)
    : density_(&density), opt_(opt) {
  DTFE_CHECK(opt_.monte_carlo_samples >= 1);
}

Grid2D WalkingKernel::render(const FieldSpec& spec) const {
  DTFE_CHECK_MSG(std::isfinite(spec.zmin) && std::isfinite(spec.zmax),
                 "walking kernel needs finite z bounds for its 3D grid");
  const Triangulation& tri = density_->triangulation();
  const std::size_t nx = spec.nx(), ny = spec.ny();
  const std::size_t nz = opt_.z_resolution ? opt_.z_resolution : nx;
  const double h = spec.cell_size();
  const double dz = (spec.zmax - spec.zmin) / static_cast<double>(nz);

  obs::TraceSpan span("kernel.walk_render", "kernel");
  span.add_arg("cells", static_cast<double>(nx * ny));

  Grid2D grid(nx, ny);
  auto column = [&](std::size_t ix, std::size_t iy, WalkTally& tally) {
    const Vec2 xi = spec.cell_center(ix, iy);
    std::uint64_t rng = pixel_seed(opt_.seed, iy * nx + ix);
    // Walk up the z-column locating each 3D representative point with the
    // previous cell as the hint — the incremental scheme the paper
    // describes for grid rendering.
    CellId hint = Triangulation::kNoCell;
    double sigma = 0.0;
    for (std::size_t iz = 0; iz < nz; ++iz) {
      double rho_cell = 0.0;
      for (int s = 0; s < opt_.monte_carlo_samples; ++s) {
        Vec3 q{xi.x, xi.y, spec.zmin + (static_cast<double>(iz) + 0.5) * dz};
        if (opt_.monte_carlo_samples > 1) {
          q.x += (rand_unit(rng) - 0.5) * h;
          q.y += (rand_unit(rng) - 0.5) * h;
          q.z += (rand_unit(rng) - 0.5) * dz;
        }
        const auto loc = tri.locate_from(q, hint, rng);
        hint = loc.cell;
        ++tally.located;
        if (loc.status == Triangulation::LocateStatus::kOutsideHull) {
          ++tally.outside;
          continue;
        }
        rho_cell += density_->interpolate_in_cell(loc.cell, q);
      }
      sigma += rho_cell / opt_.monte_carlo_samples * dz;
    }
    grid.at(ix, iy) = sigma;
  };
  // static_decomposition: contiguous per-thread sub-volumes, DTFE-public
  // style, however clustered they are. Otherwise the march's schedule, so
  // the Fig. 6 comparison is like for like. Both give the same grid.
  const auto run = render_tiles<WalkTally>(nx, ny, nullptr, column,
                                           opt_.static_decomposition);

  const WalkTally& t = run.tally;
  stats_ = WalkingStats{t.located, t.outside, run.thread_seconds};

  if (obs::metrics_enabled()) {
    const WalkMetrics& m = walk_metrics();
    obs::add(m.located, static_cast<double>(t.located));
    obs::add(m.outside, static_cast<double>(t.outside));
  }
  span.add_arg("points_located", static_cast<double>(t.located));
  return grid;
}

Grid3D WalkingKernel::render_3d(const FieldSpec& spec) const {
  DTFE_CHECK_MSG(std::isfinite(spec.zmin) && std::isfinite(spec.zmax),
                 "3D rendering needs finite z bounds");
  const Triangulation& tri = density_->triangulation();
  const std::size_t nx = spec.nx(), ny = spec.ny();
  const std::size_t nz = opt_.z_resolution ? opt_.z_resolution : nx;
  const double dz = (spec.zmax - spec.zmin) / static_cast<double>(nz);

  Grid3D grid(nx, ny, nz);
  auto column = [&](std::size_t ix, std::size_t iy, int& /*no tally*/) {
    const Vec2 xi = spec.cell_center(ix, iy);
    std::uint64_t rng = pixel_seed(opt_.seed, iy * nx + ix);
    CellId hint = Triangulation::kNoCell;
    for (std::size_t iz = 0; iz < nz; ++iz) {
      const Vec3 q{xi.x, xi.y,
                   spec.zmin + (static_cast<double>(iz) + 0.5) * dz};
      const auto loc = tri.locate_from(q, hint, rng);
      hint = loc.cell;
      if (loc.status != Triangulation::LocateStatus::kOutsideHull)
        grid.at(ix, iy, iz) = density_->interpolate_in_cell(loc.cell, q);
    }
  };
  render_tiles<int>(nx, ny, nullptr, column);
  return grid;
}

}  // namespace dtfe
