#include "dtfe/tess_kernel.h"

#include "delaunay/voronoi.h"

#include <omp.h>

#include <atomic>
#include <cmath>

#include "util/error.h"
#include "util/timer.h"

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
    return;
  }

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

void TessKernel::build_adjacency() {
  const Triangulation& tri = density_->triangulation();
  const std::size_t nv = tri.num_vertices();
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
  if (adj_.empty()) const_cast<TessKernel*>(this)->build_adjacency();
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
                                  std::uint64_t& rng,
                                  SearchScratch& scratch) const {
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

  // Greedy descent over the Delaunay neighbor graph: from any vertex, some
  // neighbor is strictly closer to q unless the vertex is q's nearest site.
  auto& nbrs = scratch.neighbors;
  bool improved = true;
  std::uint64_t steps = 0;
  while (improved) {
    improved = false;
    tri.vertex_neighbors(best, nbrs, scratch.cells);
    for (const VertexId u : nbrs) {
      const double d2 = (tri.point(u) - q).norm2();
      if (d2 < best_d2) {
        best = u;
        best_d2 = d2;
        improved = true;
      }
    }
    ++steps;
  }
  stats_.hillclimb_steps += steps;  // benign race under OpenMP; stats only
  return best;
}

Grid2D TessKernel::render(const FieldSpec& spec) const {
  DTFE_CHECK_MSG(std::isfinite(spec.zmin) && std::isfinite(spec.zmax),
                 "tess kernel needs finite z bounds for its 3D grid");
  if (adj_.empty())
    const_cast<TessKernel*>(this)->build_adjacency();
  const std::size_t nx = spec.nx(), ny = spec.ny();
  const std::size_t nz = opt_.z_resolution ? opt_.z_resolution : nx;
  const double dz = (spec.zmax - spec.zmin) / static_cast<double>(nz);

  Grid2D grid(nx, ny);
  TessStats stats;
  stats.thread_seconds.assign(
      static_cast<std::size_t>(omp_get_max_threads()), 0.0);
  std::uint64_t located = 0;
  std::atomic<bool> cancelled{false};
  const PixelTiles tiles(nx, ny);

#pragma omp parallel reduction(+ : located)
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    ThreadCpuTimer timer;
    std::uint64_t rng = (opt_.seed | 1) * (tid + 1) * 0x9e3779b97f4a7c15ull;
    SearchScratch scratch;

    std::uint64_t pixels_done = 0;

    auto render_column = [&](std::size_t ix, std::size_t iy) {
      // Cooperative watchdog (see marching_kernel.cpp for the pattern).
      if (opt_.deadline &&
          (cancelled.load(std::memory_order_relaxed) ||
           ((pixels_done++ & 15) == 0 && opt_.deadline->expired()))) {
        cancelled.store(true, std::memory_order_relaxed);
        return;
      }
      const Vec2 xi = spec.cell_center(ix, iy);
      double sigma = 0.0;
      VertexId site = Triangulation::kInfinite;
      for (std::size_t iz = 0; iz < nz; ++iz) {
        const Vec3 q{xi.x, xi.y,
                     spec.zmin + (static_cast<double>(iz) + 0.5) * dz};
        // First sample: full search (locate + climb). Later samples warm-
        // start the climb from the previous nearest site — the DENSE stage's
        // per-point cost is then a handful of distance comparisons.
        site = site == Triangulation::kInfinite
                   ? nearest_site(q, Triangulation::kNoCell, rng, scratch)
                   : nearest_site_from(q, site);
        ++located;
        // Zero-order: the density of the Voronoi cell containing q.
        sigma += site_density_[static_cast<std::size_t>(site)] * dz;
      }
      grid.at(ix, iy) = sigma;
    };

    // The march's tile order, so the Fig. 6 comparison is like for like.
#pragma omp for schedule(dynamic, 1)
    for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(tiles.count());
         ++t)
      tiles.for_each_pixel(static_cast<std::size_t>(t), render_column);
    stats.thread_seconds[tid] = timer.seconds();
  }

  stats.points_located = located;
  stats_.thread_seconds = stats.thread_seconds;
  stats_.points_located = located;
  if (cancelled.load(std::memory_order_relaxed))
    throw Error("tess render cancelled: item deadline exceeded");
  return grid;
}

}  // namespace dtfe
