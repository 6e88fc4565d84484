// DTFE interpolation of point-sampled VECTOR fields (velocities).
//
// The DTFE method was introduced by Bernardeau & van de Weygaert for
// "producing volume-weighted velocity fields" (paper §III-A): sample values
// live on the particles, the Delaunay provides the multidimensional linear
// interpolant, and — unlike mass-weighted grid assignment — averages over
// volumes are volume-weighted. This module applies the library's machinery
// to a per-particle Vec3 quantity: pointwise interpolation and the per-cell
// velocity-gradient tensor (divergence / vorticity / shear). Volume-weighted
// line-of-sight means are the engine's `velocity` field (DESIGN.md §10).
#pragma once

#include <array>
#include <memory>
#include <span>

#include "dtfe/density.h"

namespace dtfe {

class VectorField {
 public:
  /// `values[i]` is the vector sample carried by input point i.
  VectorField(const Triangulation& tri, std::span<const Vec3> values);

  const Triangulation& triangulation() const { return *tri_; }

  /// Linear interpolant at p inside finite cell c.
  Vec3 interpolate_in_cell(CellId c, const Vec3& p) const {
    return {component(0).interpolate_in_cell(c, p),
            component(1).interpolate_in_cell(c, p),
            component(2).interpolate_in_cell(c, p)};
  }

  /// Row i = ∇v_i within cell c (constant per cell, like the density
  /// gradient).
  std::array<Vec3, 3> gradient_tensor(CellId c) const {
    return {component(0).cell_gradient(c), component(1).cell_gradient(c),
            component(2).cell_gradient(c)};
  }

  /// ∇·v within cell c.
  double divergence(CellId c) const {
    const auto g = gradient_tensor(c);
    return g[0].x + g[1].y + g[2].z;
  }

  /// ∇×v within cell c.
  Vec3 vorticity(CellId c) const {
    const auto g = gradient_tensor(c);
    return {g[2].y - g[1].z, g[0].z - g[2].x, g[1].x - g[0].y};
  }

  /// Per-component DensityField (exposes vertex values, gradients, hull
  /// flags).
  const DensityField& component(int i) const { return *fields_[static_cast<std::size_t>(i)]; }

 private:
  const Triangulation* tri_;
  std::array<std::unique_ptr<DensityField>, 3> fields_;
};

}  // namespace dtfe
