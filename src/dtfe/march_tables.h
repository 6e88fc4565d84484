// Precomputed SoA tables for the marching kernel's vertical hot path
// (DESIGN.md §11).
//
// The per-call AoS march gathers four Vec3 per step (cell_points), rebuilds
// six edge vectors, and chases mirror_index through the neighbor's cell
// record — per ray, per channel, per crossing. The march instead reads two
// contiguous per-cell-id arrays, each with one owner:
//
//   * TetraGeomTable — the coefficient form of the six vertical edge
//     products (geometry/tetra_coef.h), the four vertex heights, and the
//     resolved walk topology (neighbor id with infinite neighbors collapsed
//     to kNoCell, plus the precomputed mirror slot). Geometry-only, so ALL
//     kernels over one triangulation share the single instance its
//     FieldCube builds — the density march and the unit-path and
//     per-channel kernels of a vector render.
//   * FieldCoefTable — a view of a DensityField's interpolant rows
//     (DensityField::cell_rows(), 4 doubles/cell), which the field builds
//     with its gradients: value(x,y,z) = ((d0 + gx·x) + gy·y) + gz·z. It
//     copies nothing, so every march over a field, density or vector
//     channel, reads the field's own rows.
//
// Tables are indexed by raw cell id over cell_storage_size(); dead and
// infinite slots hold zeros and are never dereferenced by a march (the walk
// starts from a hull entry and stops at kNoCell).
//
// The march is templated on its geometry source: a TetraGeomTable, or a
// MeshGeometry that computes the same rows from the mesh at each crossing.
// The table is built from MeshGeometry, so both give the same bits. The
// table costs ~196 B and one row build per cell up front and pays off only
// when rays cross each cell many times (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "delaunay/triangulation.h"
#include "dtfe/density.h"
#include "geometry/tetra_coef.h"

namespace dtfe {

/// The march's geometry read straight off the mesh: the crossing-test
/// coefficients, the neighbour (infinite neighbours collapsed to kNoCell)
/// and the mirror slot, computed on each call. TetraGeomTable stores exactly
/// these values per cell, so a march over either source is bitwise the same.
class MeshGeometry {
 public:
  explicit MeshGeometry(const Triangulation& tri) : tri_(&tri) {}

  VerticalTetraCoef coef(CellId c) const {
    return make_vertical_coef(tri_->cell_points(c));
  }
  CellId next(CellId c, int face) const {
    const CellId nb = tri_->cell(c).n[static_cast<std::size_t>(face)];
    return nb == Triangulation::kNoCell || tri_->is_infinite(nb)
               ? Triangulation::kNoCell
               : nb;
  }
  int mirror(CellId c, int face) const { return tri_->mirror_index(c, face); }

 private:
  const Triangulation* tri_;
};

/// Geometry-only march tables: crossing-test coefficients plus resolved walk
/// topology, one entry per raw cell id. Immutable after construction, safe
/// to share across threads and kernels.
class TetraGeomTable {
 public:
  explicit TetraGeomTable(const Triangulation& tri);

  const VerticalTetraCoef& coef(CellId c) const {
    return coef_[static_cast<std::size_t>(c)];
  }
  /// Neighbor across `face`; infinite neighbors collapse to kNoCell so the
  /// march's hull-exit test is one compare, no cell-record probe.
  CellId next(CellId c, int face) const {
    return next_[static_cast<std::size_t>(c) * 4 + static_cast<std::size_t>(face)];
  }
  /// Entry face in next(c, face) — the precomputed mirror_index.
  int mirror(CellId c, int face) const {
    return mirror_[static_cast<std::size_t>(c) * 4 +
                   static_cast<std::size_t>(face)];
  }
  std::size_t size() const { return coef_.size(); }

 private:
  std::vector<VerticalTetraCoef> coef_;
  std::vector<CellId> next_;
  std::vector<std::int8_t> mirror_;
};

/// Per-cell linear interpolant rebased to absolute coordinates:
/// value = ((d0 + gx·x) + gy·y) + gz·z — the midpoint-integral evaluation
/// without the per-call v[0]/gradient gather of interpolate_in_cell. A view
/// of the field's rows: the field must outlive it.
/// NOTE: rounds differently from interpolate_in_cell's (p − x0) form; the
/// table form is the production fast path, the AoS form stays the oracle.
class FieldCoefTable {
 public:
  explicit FieldCoefTable(const DensityField& field)
      : rows_(field.cell_rows()) {}

  double value(CellId c, double x, double y, double z) const {
    const CellInterpolant& k = rows_[static_cast<std::size_t>(c)];
    return ((k.d0 + k.g.x * x) + k.g.y * y) + k.g.z * z;
  }
  /// Interpolant restricted to the column through (x, y): base + gz·z.
  double column_base(CellId c, double x, double y) const {
    const CellInterpolant& k = rows_[static_cast<std::size_t>(c)];
    return (k.d0 + k.g.x * x) + k.g.y * y;
  }
  double gz(CellId c) const { return rows_[static_cast<std::size_t>(c)].g.z; }

 private:
  std::span<const CellInterpolant> rows_;
};

}  // namespace dtfe
