// Plain (non-exact) tetrahedron geometry: volumes and circumcenters.
// Decisions are never made from these values alone;
// topological decisions go through predicates.h.
#pragma once

#include "geometry/vec3.h"

namespace dtfe {

/// Volume of tetra (a,b,c,d): |det[b−a; c−a; d−a]| / 6.
inline double tetra_volume(const Vec3& a, const Vec3& b, const Vec3& c,
                           const Vec3& d) {
  const double v = (b - a).dot((c - a).cross(d - a)) / 6.0;
  return v < 0.0 ? -v : v;
}

/// Circumcenter of the tetrahedron; degenerate (near-flat) tetras produce
/// large/inf coordinates — callers must tolerate that.
Vec3 tetra_circumcenter(const Vec3& a, const Vec3& b, const Vec3& c,
                        const Vec3& d);

}  // namespace dtfe
