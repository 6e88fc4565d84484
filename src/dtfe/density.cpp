#include "dtfe/density.h"

#include <algorithm>

#include "dtfe/parallel_rows.h"
#include "geometry/tetra_math.h"
#include "util/error.h"

namespace dtfe {

DensityField::DensityField(const Triangulation& tri, double particle_mass)
    : tri_(&tri) {
  std::vector<double> masses(tri.num_vertices(), particle_mass);
  build(masses);
}

DensityField::DensityField(const Triangulation& tri,
                           std::span<const double> masses)
    : tri_(&tri) {
  DTFE_CHECK_MSG(masses.size() == tri.num_vertices(),
                 "mass array size must match vertex count");
  build(masses);
}

DensityField DensityField::with_vertex_values(const Triangulation& tri,
                                              std::span<const double> values) {
  DTFE_CHECK_MSG(values.size() == tri.num_vertices(),
                 "value array size must match vertex count");
  DensityField f(tri);
  f.build_volumes_and_hull();
  f.mass_.assign(values.size(), 0.0);
  f.density_.assign(values.begin(), values.end());
  // Duplicates alias their representative's value.
  for (std::size_t v = 0; v < values.size(); ++v)
    f.density_[v] = values[static_cast<std::size_t>(
        tri.duplicate_of(static_cast<VertexId>(v)))];
  f.build_gradients();
  return f;
}

void DensityField::build_volumes_and_hull() {
  const std::size_t nv = tri_->num_vertices();
  volume_.assign(nv, 0.0);
  on_hull_.assign(nv, 0);

  // Accumulate incident tetra volumes per vertex (one sweep over cells).
  for (std::size_t i = 0; i < tri_->cell_storage_size(); ++i) {
    const auto c = static_cast<CellId>(i);
    if (!tri_->cell_alive(c)) continue;
    const auto& t = tri_->cell(c);
    if (tri_->is_infinite(c)) {
      // Hull vertices have unbounded Voronoi cells; flag them.
      for (int s = 0; s < 4; ++s)
        if (t.v[s] != Triangulation::kInfinite)
          on_hull_[static_cast<std::size_t>(t.v[s])] = 1;
      continue;
    }
    const auto p = tri_->cell_points(c);
    const double vol = tetra_volume(p[0], p[1], p[2], p[3]);
    for (int s = 0; s < 4; ++s)
      volume_[static_cast<std::size_t>(t.v[s])] += vol;
  }
  for (std::size_t v = 0; v < nv; ++v) {
    const auto rep =
        static_cast<std::size_t>(tri_->duplicate_of(static_cast<VertexId>(v)));
    volume_[v] = volume_[rep];
    on_hull_[v] = on_hull_[rep];
  }
}

void DensityField::build(std::span<const double> masses) {
  const std::size_t nv = tri_->num_vertices();
  density_.assign(nv, 0.0);
  build_volumes_and_hull();

  // Fold duplicated points' masses onto their representatives.
  mass_.assign(nv, 0.0);
  auto& mass = mass_;
  for (std::size_t v = 0; v < nv; ++v)
    mass[static_cast<std::size_t>(tri_->duplicate_of(static_cast<VertexId>(v)))] +=
        masses[v];

  // Eq. 2: ρ̂ = (d+1)m / ΣV with d = 3.
  interior_mass_ = 0.0;
  for (std::size_t v = 0; v < nv; ++v) {
    if (tri_->is_duplicate(static_cast<VertexId>(v))) continue;
    if (volume_[v] > 0.0) density_[v] = 4.0 * mass[v] / volume_[v];
    if (!on_hull_[v]) interior_mass_ += mass[v];
  }
  // Duplicates alias their representative's density for convenient lookup.
  for (std::size_t v = 0; v < nv; ++v) {
    const auto rep = tri_->duplicate_of(static_cast<VertexId>(v));
    density_[v] = density_[static_cast<std::size_t>(rep)];
  }

  build_gradients();
}

void DensityField::build_gradients() {
  const std::size_t n = tri_->cell_storage_size();
  gradient_.assign(n, Vec3{});
  // Per-cell constant gradients: solve the 3×3 system
  //   [x1−x0; x2−x0; x3−x0] · ∇ρ = [ρ1−ρ0; ρ2−ρ0; ρ3−ρ0]
  // Each cell writes only its own gradient. (The per-vertex volume scatter
  // in build_volumes_and_hull stays serial: its sums depend on the order
  // cells are visited.)
  parallel_rows(n, [&](std::size_t i) {
    const auto c = static_cast<CellId>(i);
    if (!tri_->cell_alive(c) || tri_->is_infinite(c)) return;
    const auto& t = tri_->cell(c);
    const auto p = tri_->cell_points(c);
    const Vec3 e1 = p[1] - p[0], e2 = p[2] - p[0], e3 = p[3] - p[0];
    const double d1 = density_[static_cast<std::size_t>(t.v[1])] -
                      density_[static_cast<std::size_t>(t.v[0])];
    const double d2 = density_[static_cast<std::size_t>(t.v[2])] -
                      density_[static_cast<std::size_t>(t.v[0])];
    const double d3 = density_[static_cast<std::size_t>(t.v[3])] -
                      density_[static_cast<std::size_t>(t.v[0])];
    const double det = e1.dot(e2.cross(e3));
    if (det == 0.0) return;  // cannot happen for valid finite cells
    // Cramer via the reciprocal basis: ∇ρ = (d1·(e2×e3) + d2·(e3×e1)
    //                                        + d3·(e1×e2)) / det.
    gradient_[i] =
        (e2.cross(e3) * d1 + e3.cross(e1) * d2 + e1.cross(e2) * d3) / det;
  });
}

}  // namespace dtfe
