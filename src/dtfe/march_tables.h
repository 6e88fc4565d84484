// Precomputed SoA tables for the marching kernel's vertical hot path
// (DESIGN.md §11).
//
// The per-call AoS march gathers four Vec3 per step (cell_points), rebuilds
// six edge vectors, and chases mirror_index through the neighbor's cell
// record — per ray, per channel, per crossing. These tables hoist all of it
// into two contiguous per-cell-id arrays built once per triangulation:
//
//   * TetraGeomTable — the coefficient form of the six vertical edge
//     products (geometry/tetra_coef.h), the four vertex heights, and the
//     resolved walk topology (neighbor id with infinite neighbors collapsed
//     to kNoCell, plus the precomputed mirror slot). Geometry-only, so ALL
//     kernels over one triangulation share a single instance — the unit-path
//     and per-channel kernels of a vector render, every cached request once
//     the field service lands.
//   * FieldCoefTable — the per-cell interpolant rebased to absolute
//     coordinates: value(x,y,z) = ((d0 + gx·x) + gy·y) + gz·z. One per
//     DensityField (cheap: 4 doubles/cell).
//
// Tables are indexed by raw cell id over cell_storage_size(); dead and
// infinite slots hold zeros and are never dereferenced by a march (the walk
// starts from a hull entry and stops at kNoCell).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "delaunay/triangulation.h"
#include "geometry/tetra_coef.h"

namespace dtfe {

class DensityField;

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
/// without the per-call v[0]/gradient gather of interpolate_in_cell.
/// NOTE: rounds differently from interpolate_in_cell's (p − x0) form; the
/// table form is the production fast path, the AoS form stays the oracle.
class FieldCoefTable {
 public:
  explicit FieldCoefTable(const DensityField& field);

  double value(CellId c, double x, double y, double z) const {
    const Coef& k = coef_[static_cast<std::size_t>(c)];
    return ((k.d0 + k.gx * x) + k.gy * y) + k.gz * z;
  }
  /// Interpolant restricted to the column through (x, y): base + gz·z.
  double column_base(CellId c, double x, double y) const {
    const Coef& k = coef_[static_cast<std::size_t>(c)];
    return (k.d0 + k.gx * x) + k.gy * y;
  }
  double gz(CellId c) const { return coef_[static_cast<std::size_t>(c)].gz; }

 private:
  struct Coef {
    double d0 = 0.0, gx = 0.0, gy = 0.0, gz = 0.0;
  };
  std::vector<Coef> coef_;
};

}  // namespace dtfe
