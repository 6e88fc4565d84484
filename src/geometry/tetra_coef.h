// Coefficient (SoA-friendly) form of the vertical crossing test.
//
// For the +ẑ line through ξ, the Plücker permuted inner product against the
// tetra edge a→b reduces to the 2D orientation (b−a)×(a−ξ) (see
// ray_tetra.cpp's vertical_edge_products). Expanding that cross product in ξ
// with (ex, ey) = (b.x−a.x, b.y−a.y):
//
//     s_e(ξ) = (c_e + bx_e·ξ.x) + by_e·ξ.y
//     c_e  = ex·a.y − ey·a.x,   bx_e = ey,   by_e = −ex
//
// so everything the marching hot loop needs from a tetrahedron — six
// coefficient triples plus the four vertex heights — can be computed ONCE
// per cell (dtfe/march_tables.h packs them per cell id) and each crossing
// test costs two multiplies and two adds per edge, with no vertex gathers.
//
// The marching kernel evaluates it with the scalar coef_edge_products on
// every tetra step (plain mul/add, no FMA — the build forbids FP
// contraction, so the rounding is the same on every compiler and ISA).
//
// NOTE: the coefficient expansion rounds differently from the direct
// (b−a)×(a−ξ) expression, so near-zero products — hence degeneracy
// decisions — can differ from the AoS classifiers in ray_tetra.cpp by ~1
// ulp. The direct form stays available as the audit/ablation oracle; the
// perturb-retry loop absorbs any classification flip either way.
#pragma once

#include <array>
#include <cstddef>

#include "geometry/ray_tetra.h"
#include "geometry/vec3.h"

namespace dtfe {

/// Per-tetra coefficients of the six vertical edge products, plus vertex
/// heights for the exit-z interpolation.
struct VerticalTetraCoef {
  double c[6];   ///< constant term  ex·a.y − ey·a.x
  double bx[6];  ///< ξ.x coefficient  ey
  double by[6];  ///< ξ.y coefficient  −ex
  double z[4];   ///< vertex z, for the barycentric exit height
};

inline VerticalTetraCoef make_vertical_coef(const std::array<Vec3, 4>& v) {
  VerticalTetraCoef t;
  for (int e = 0; e < 6; ++e) {
    const Vec3& a = v[static_cast<std::size_t>(kTetraEdge[e][0])];
    const Vec3& b = v[static_cast<std::size_t>(kTetraEdge[e][1])];
    const double ex = b.x - a.x;
    const double ey = b.y - a.y;
    t.c[e] = ex * a.y - ey * a.x;
    t.bx[e] = ey;
    t.by[e] = -ex;
  }
  for (int k = 0; k < 4; ++k) t.z[k] = v[static_cast<std::size_t>(k)].z;
  return t;
}

/// Evaluate the six edge products at ξ, each as (c + bx·x) + by·y.
inline void coef_edge_products(const VerticalTetraCoef& t, const Vec2& xi,
                               double s[6]) {
  for (int e = 0; e < 6; ++e)
    s[e] = (t.c[e] + t.bx[e] * xi.x) + t.by[e] * xi.y;
}

/// Classify face f from precomputed edge products: +1 crossing (with *z set
/// to the intersection height), 0 no crossing, −1 degenerate. Branch order
/// matches ray_tetra.cpp's classify_vertical_face exactly: mixed signs
/// reject the face BEFORE the zero test, because an edge parallel to the
/// vertical line always yields a zero product that only signals a real
/// degeneracy when the remaining products agree.
inline int coef_classify_face(const VerticalTetraCoef& t, int f,
                              const double s[6], double* z) {
  const auto& row = kFaceEdgeTable[static_cast<std::size_t>(f)];
  const double w0 = row[0].sign * s[row[0].edge];
  const double w1 = row[1].sign * s[row[1].edge];
  const double w2 = row[2].sign * s[row[2].edge];
  const int pos = (w0 > 0.0) + (w1 > 0.0) + (w2 > 0.0);
  const int neg = (w0 < 0.0) + (w1 < 0.0) + (w2 < 0.0);
  if (pos > 0 && neg > 0) return 0;
  if (pos + neg < 3) return -1;  // a zero product on a candidate face
  const double inv = 1.0 / (w0 + w1 + w2);
  *z = (t.z[row[0].weight_vertex] * w0 + t.z[row[1].weight_vertex] * w1 +
        t.z[row[2].weight_vertex] * w2) *
       inv;
  return 1;
}

/// Entry/exit classification of a full tetra from precomputed products —
/// the coefficient-table counterpart of line_tetra_vertical, minus the
/// fields a vertical march never reads (hit points, line parameters).
struct VerticalSpan {
  bool intersects = false;
  bool degenerate = false;
  int enter_face = -1;
  int exit_face = -1;
  double z_enter = 0.0;
  double z_exit = 0.0;
};

inline VerticalSpan coef_vertical_span(const VerticalTetraCoef& t,
                                       const double s[6]) {
  VerticalSpan span;
  int found = 0;
  for (int f = 0; f < 4 && found < 2; ++f) {
    double z;
    const int r = coef_classify_face(t, f, s, &z);
    if (r == 0) continue;
    if (r < 0) {
      span.degenerate = true;
      return span;
    }
    if (found == 0) {
      span.enter_face = f;
      span.z_enter = z;
    } else {
      span.exit_face = f;
      span.z_exit = z;
    }
    ++found;
  }
  if (found == 2) {
    span.intersects = true;
    if (span.z_enter > span.z_exit) {
      std::swap(span.z_enter, span.z_exit);
      std::swap(span.enter_face, span.exit_face);
    }
  } else if (found == 1) {
    span.degenerate = true;  // second crossing went through an edge/vertex
  }
  return span;
}

/// Exit-only classification with the entry face known (the marching loop's
/// per-step test) — the coefficient-table counterpart of
/// line_tetra_vertical_exit.
inline VerticalExit coef_vertical_exit(const VerticalTetraCoef& t,
                                       const double s[6], int entry_face) {
  VerticalExit out;
  for (int f = 0; f < 4; ++f) {
    if (f == entry_face) continue;
    double z;
    const int r = coef_classify_face(t, f, s, &z);
    if (r == 0) continue;
    if (r < 0) {
      out.degenerate = true;
      return out;
    }
    out.found = true;
    out.exit_face = f;
    out.z_exit = z;
    return out;
  }
  out.degenerate = true;  // no exit through a face interior: edge/vertex case
  return out;
}

}  // namespace dtfe
