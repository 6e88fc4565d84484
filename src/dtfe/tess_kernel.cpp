#include "dtfe/tess_kernel.h"

#include "delaunay/voronoi.h"

#include <cmath>

#include "util/parallel.h"
#include "util/error.h"

namespace dtfe {

TessKernel::TessKernel(const DensityField& density, TessOptions opt)
    : density_(&density), opt_(opt) {
  const Triangulation& tri = density.triangulation();
  const std::size_t nv = tri.num_vertices();

  site_density_.assign(nv, 0.0);
  double total_mass = 0.0;
  for (std::size_t v = 0; v < nv; ++v)
    total_mass += density.vertex_mass(static_cast<VertexId>(v));

  if (total_mass <= 0.0) {
    // Field built from user-supplied vertex values: zero-order uses them
    // as-is.
    for (std::size_t v = 0; v < nv; ++v)
      site_density_[v] = density.vertex_density(static_cast<VertexId>(v));
  } else {
    const std::vector<double> vor = voronoi_volumes(tri);
    for (std::size_t v = 0; v < nv; ++v) {
      const auto rep = static_cast<std::size_t>(
          tri.duplicate_of(static_cast<VertexId>(v)));
      const double volume = vor[rep];
      const double m = density.vertex_mass(static_cast<VertexId>(rep));
      site_density_[v] =
          (std::isfinite(volume) && volume > 0.0) ? m / volume : 0.0;
    }
  }

  // The hill climb's CSR adjacency, one vertex_neighbors list per
  // representative vertex (built after the Voronoi volumes are freed).
  std::vector<std::vector<VertexId>> lists(nv);
  std::vector<VertexId> nbrs;
  std::vector<CellId> cells;
  for (std::size_t v = 0; v < nv; ++v) {
    const auto vid = static_cast<VertexId>(v);
    if (tri.is_duplicate(vid)) continue;
    tri.vertex_neighbors(vid, nbrs, cells);
    lists[v] = nbrs;
  }
  adj_start_.assign(nv + 1, 0);
  for (std::size_t v = 0; v < nv; ++v)
    adj_start_[v + 1] = adj_start_[v] +
                        static_cast<std::uint32_t>(lists[v].size());
  adj_.resize(adj_start_[nv]);
  for (std::size_t v = 0; v < nv; ++v)
    std::copy(lists[v].begin(), lists[v].end(), adj_.begin() + adj_start_[v]);
}

VertexId TessKernel::nearest_site_from(const Vec3& q, VertexId seed) const {
  const Triangulation& tri = density_->triangulation();
  VertexId best = tri.duplicate_of(seed);
  double best_d2 = (tri.point(best) - q).norm2();
  bool improved = true;
  while (improved) {
    improved = false;
    const auto lo = adj_start_[static_cast<std::size_t>(best)];
    const auto hi = adj_start_[static_cast<std::size_t>(best) + 1];
    for (auto k = lo; k < hi; ++k) {
      const VertexId u = adj_[k];
      const double d2 = (tri.point(u) - q).norm2();
      if (d2 < best_d2) {
        best = u;
        best_d2 = d2;
        improved = true;
      }
    }
  }
  return best;
}

VertexId TessKernel::nearest_site(const Vec3& q, CellId location_hint,
                                  std::uint64_t& rng) const {
  const Triangulation& tri = density_->triangulation();
  const auto loc = tri.locate_from(q, location_hint, rng);
  if (loc.status == Triangulation::LocateStatus::kOnVertex) return loc.vertex;

  // Start from the best vertex of the located cell (for kOutsideHull this is
  // the infinite cell: use its finite facet vertices).
  const auto& t = tri.cell(loc.cell);
  VertexId best = Triangulation::kInfinite;
  double best_d2 = 0.0;
  for (int s = 0; s < 4; ++s) {
    if (t.v[s] == Triangulation::kInfinite) continue;
    const double d2 = (tri.point(t.v[s]) - q).norm2();
    if (best == Triangulation::kInfinite || d2 < best_d2) {
      best = t.v[s];
      best_d2 = d2;
    }
  }
  DTFE_DCHECK(best != Triangulation::kInfinite);
  return nearest_site_from(q, best);
}

Grid2D TessKernel::render(const FieldSpec& spec) const {
  DTFE_CHECK_MSG(std::isfinite(spec.zmin) && std::isfinite(spec.zmax),
                 "tess kernel needs finite z bounds for its 3D grid");
  const std::size_t nx = spec.nx(), ny = spec.ny();
  const std::size_t nz = opt_.z_resolution ? opt_.z_resolution : nx;
  const double dz = (spec.zmax - spec.zmin) / static_cast<double>(nz);

  Grid2D grid(nx, ny);
  // The march's tile order, so the Fig. 6 comparison is like for like.
  auto column = [&](std::size_t ix, std::size_t iy, std::uint64_t& located) {
    const Vec2 xi = spec.cell_center(ix, iy);
    std::uint64_t rng = pixel_seed(opt_.seed, iy * nx + ix);
    double sigma = 0.0;
    VertexId site = Triangulation::kInfinite;
    for (std::size_t iz = 0; iz < nz; ++iz) {
      const Vec3 q{xi.x, xi.y,
                   spec.zmin + (static_cast<double>(iz) + 0.5) * dz};
      // First sample: full search (locate + climb). Later samples warm-start
      // the climb from the previous nearest site — the DENSE stage's
      // per-point cost is then a handful of distance comparisons.
      site = site == Triangulation::kInfinite
                 ? nearest_site(q, Triangulation::kNoCell, rng)
                 : nearest_site_from(q, site);
      ++located;
      // Zero-order: the density of the Voronoi cell containing q.
      sigma += site_density_[static_cast<std::size_t>(site)] * dz;
    }
    grid.at(ix, iy) = sigma;
  };
  // The march's tile order, so the Fig. 6 comparison is like for like.
  const auto run = render_tiles<std::uint64_t>(nx, ny, opt_.deadline, column);

  stats_ = TessStats{run.tally, run.thread_seconds};
  if (run.cancelled)
    throw Error("tess render cancelled: item deadline exceeded");
  return grid;
}

}  // namespace dtfe
