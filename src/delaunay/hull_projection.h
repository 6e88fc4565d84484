// Lower-hull projection locator (paper §IV-A-2).
//
// To seed the line-of-sight march, the kernel needs, for a vertical line ℓ
// through image point ξ, the first tetrahedron ℓ intersects. The paper builds
// a 2D triangulation from the 3D hull facets facing opposite the direction of
// integration (n_hull · ẑ < 0, Eq. 14) and locates ξ in it. Because the
// downward-facing facets of a convex polytope project injectively onto the
// xy-plane, the projection *is* already a triangulation of the hull's
// silhouette polygon — no extra Delaunay construction is needed, only a point
// location structure. We bucket the projected triangles in a uniform grid of
// about √facets buckets per axis ("any point location method can be used");
// a walk over the projected facets was measured slower per query.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "delaunay/triangulation.h"
#include "geometry/vec3.h"

namespace dtfe {

class HullProjection {
 public:
  /// Collect the downward-facing hull facets of `tri` and index their xy
  /// projections.
  explicit HullProjection(const Triangulation& tri);

  /// The finite cell whose downward hull facet's projection contains ξ —
  /// i.e. the first tetrahedron a +z line through ξ intersects. Returns
  /// kNoCell if ξ is outside the hull silhouette.
  CellId first_cell(const Vec2& xi) const;

  /// Same, also reporting which face of the returned cell is the hull facet
  /// the line enters through (the marching kernel's initial entry face).
  struct Entry {
    CellId cell = -1;
    int entry_face = -1;
  };
  Entry first_entry(const Vec2& xi) const;

  std::size_t num_facets() const { return facets_.size(); }

  /// Axis-aligned bounds of the projected silhouette.
  Vec2 lo() const { return lo_; }
  Vec2 hi() const { return hi_; }

 private:
  struct Facet {
    Vec2 a, b, c;    ///< projected vertices, counterclockwise
    CellId cell;     ///< finite cell incident to the hull facet
    int entry_face;  ///< face index of `cell` that IS the hull facet
  };

  bool facet_contains(const Facet& f, const Vec2& p) const;

  std::vector<Facet> facets_;
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::size_t res_ = 1;
  Vec2 lo_{0, 0}, hi_{1, 1};
  double inv_cell_x_ = 1.0, inv_cell_y_ = 1.0;
};

}  // namespace dtfe
