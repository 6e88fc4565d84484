// DTFE on-site density estimates and per-cell gradients (paper §III-A).
//
// The density at each input point x_i is the inverse volume of its
// contiguous Voronoi cell (Eq. 2):
//     ρ̂(x_i) = (d+1)·m_i / Σ_j V(T_{j,i})
// where the sum runs over the tetrahedra incident to x_i, and (d+1)=4 is the
// 3D normalization that makes the piecewise-linear interpolant conserve the
// total mass. Within each tetrahedron the interpolant is linear with the
// constant gradient obtained from the four vertex densities (Eq. 1);
// DensityField stores it once per cell, as the row {d0, ∇ρ} that every
// reader (point queries, the marching kernel, the audits) evaluates.
#pragma once

#include <span>
#include <vector>

#include "delaunay/triangulation.h"
#include "geometry/vec3.h"

namespace dtfe {

/// The DTFE interpolant of one cell rebased to absolute coordinates:
/// value(x, y, z) = ((d0 + g.x·x) + g.y·y) + g.z·z, with g the cell's
/// constant gradient (Eq. 1's ∇̂f|Del). Dead and infinite cells hold zeros.
struct CellInterpolant {
  double d0 = 0.0;
  Vec3 g;
};

class DensityField {
 public:
  /// Equal-mass particles.
  DensityField(const Triangulation& tri, double particle_mass);
  /// Per-particle masses (size must match tri.num_vertices()); duplicated
  /// input points contribute their mass to the representative vertex.
  DensityField(const Triangulation& tri, std::span<const double> masses);

  /// DTFE interpolation of an arbitrary point-sampled field: use the given
  /// per-vertex values directly instead of the inverse-Voronoi-volume
  /// density estimate (Bernardeau & van de Weygaert's original use case was
  /// volume-weighted velocity fields). Volumes/hull flags are still built.
  static DensityField with_vertex_values(const Triangulation& tri,
                                         std::span<const double> values);

  const Triangulation& triangulation() const { return *tri_; }

  /// On-site DTFE density of vertex v (representative vertices only carry
  /// meaningful values; duplicates alias their representative).
  double vertex_density(VertexId v) const {
    return density_[static_cast<std::size_t>(v)];
  }
  std::span<const double> vertex_densities() const { return density_; }

  /// Volume of the contiguous Voronoi region around v: Σ incident tetra
  /// volumes (the denominator of Eq. 2, before the (d+1) normalization).
  double contiguous_volume(VertexId v) const {
    return volume_[static_cast<std::size_t>(v)];
  }

  /// True if v lies on the convex hull: its contiguous Voronoi cell is
  /// unbounded, so the density estimate there is biased (the paper handles
  /// this by ghost-zone padding around every sub-volume).
  bool on_hull(VertexId v) const { return on_hull_[static_cast<std::size_t>(v)]; }

  /// Constant density gradient within finite cell c (Eq. 1's ∇̂f|Del).
  /// Indexed by CellId; infinite cells hold zeros.
  const Vec3& cell_gradient(CellId c) const {
    return rows_[static_cast<std::size_t>(c)].g;
  }

  /// Linear interpolant evaluated at p, which must lie in finite cell c, in
  /// the (p − x0) form: the reference the audits and ablation oracles use.
  double interpolate_in_cell(CellId c, const Vec3& p) const {
    const auto& t = tri_->cell(c);
    const Vec3& x0 = tri_->point(t.v[0]);
    return density_[static_cast<std::size_t>(t.v[0])] +
           rows_[static_cast<std::size_t>(c)].g.dot(p - x0);
  }

  /// Every cell's interpolant row, indexed by raw cell id over
  /// cell_storage_size() (the marching kernel's coefficient table).
  std::span<const CellInterpolant> cell_rows() const { return rows_; }

  /// Mass carried by vertex v (duplicates' masses folded onto the
  /// representative; zero when built via with_vertex_values).
  double vertex_mass(VertexId v) const {
    return mass_[static_cast<std::size_t>(v)];
  }

 private:
  explicit DensityField(const Triangulation& tri) : tri_(&tri) {}
  void build(std::span<const double> masses);
  void build_volumes_and_hull();
  void build_rows();

  const Triangulation* tri_;
  std::vector<double> density_;   // per vertex
  std::vector<double> mass_;      // per vertex (folded)
  std::vector<double> volume_;    // per vertex
  std::vector<char> on_hull_;     // per vertex
  std::vector<CellInterpolant> rows_;  // per cell id (dense over storage)
};

}  // namespace dtfe
