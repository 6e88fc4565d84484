#include "delaunay/hull_projection.h"

#include <algorithm>
#include <cmath>

#include "geometry/predicates.h"
#include "util/error.h"

namespace dtfe {

HullProjection::HullProjection(const Triangulation& tri) {
  // A hull facet is the face opposite the infinite vertex of an infinite
  // cell; its stored winding points INTO the hull. The facet faces downward
  // (outward normal with n·ẑ < 0, paper Eq. 14) exactly when its stored
  // winding projects counterclockwise — an exact orient2d test rather than a
  // floating-point normal comparison.
  for (const CellId ic : tri.infinite_cells()) {
    const int inf_slot = tri.index_of(ic, Triangulation::kInfinite);
    const auto& t = tri.cell(ic);
    const Vec3& a3 = tri.point(t.v[kTetraFace[inf_slot][0]]);
    const Vec3& b3 = tri.point(t.v[kTetraFace[inf_slot][1]]);
    const Vec3& c3 = tri.point(t.v[kTetraFace[inf_slot][2]]);
    const Vec2 a{a3.x, a3.y}, b{b3.x, b3.y}, c{c3.x, c3.y};
    if (orient2d(a, b, c) <= 0.0) continue;  // upward or vertical facet
    Facet f;
    f.a = a;
    f.b = b;
    f.c = c;
    f.cell = t.n[inf_slot];  // the finite tetra behind the hull facet
    f.entry_face = tri.mirror_index(ic, inf_slot);
    facets_.push_back(f);
  }
  DTFE_CHECK_MSG(!facets_.empty(), "triangulation has no downward hull facets");

  lo_ = {facets_[0].a.x, facets_[0].a.y};
  hi_ = lo_;
  for (const Facet& f : facets_) {
    for (const Vec2& p : {f.a, f.b, f.c}) {
      lo_.x = std::min(lo_.x, p.x);
      lo_.y = std::min(lo_.y, p.y);
      hi_.x = std::max(hi_.x, p.x);
      hi_.y = std::max(hi_.y, p.y);
    }
  }

  res_ = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(facets_.size())))),
      1, 2048);
  buckets_.assign(res_ * res_, {});
  const double ex = std::max(hi_.x - lo_.x, 1e-300);
  const double ey = std::max(hi_.y - lo_.y, 1e-300);
  inv_cell_x_ = static_cast<double>(res_) / ex;
  inv_cell_y_ = static_cast<double>(res_) / ey;

  auto bucket_coord = [&](double v, double lo, double inv) {
    auto c = static_cast<std::ptrdiff_t>((v - lo) * inv);
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(c, 0, static_cast<std::ptrdiff_t>(res_) - 1));
  };

  for (std::size_t i = 0; i < facets_.size(); ++i) {
    const Facet& f = facets_[i];
    const double fxlo = std::min({f.a.x, f.b.x, f.c.x});
    const double fxhi = std::max({f.a.x, f.b.x, f.c.x});
    const double fylo = std::min({f.a.y, f.b.y, f.c.y});
    const double fyhi = std::max({f.a.y, f.b.y, f.c.y});
    const std::size_t bx0 = bucket_coord(fxlo, lo_.x, inv_cell_x_);
    const std::size_t bx1 = bucket_coord(fxhi, lo_.x, inv_cell_x_);
    const std::size_t by0 = bucket_coord(fylo, lo_.y, inv_cell_y_);
    const std::size_t by1 = bucket_coord(fyhi, lo_.y, inv_cell_y_);
    for (std::size_t by = by0; by <= by1; ++by)
      for (std::size_t bx = bx0; bx <= bx1; ++bx)
        buckets_[by * res_ + bx].push_back(static_cast<std::uint32_t>(i));
  }
}

bool HullProjection::facet_contains(const Facet& f, const Vec2& p) const {
  return orient2d(f.a, f.b, p) >= 0.0 && orient2d(f.b, f.c, p) >= 0.0 &&
         orient2d(f.c, f.a, p) >= 0.0;
}

CellId HullProjection::first_cell(const Vec2& xi) const {
  return first_entry(xi).cell;
}

HullProjection::Entry HullProjection::first_entry(const Vec2& xi) const {
  if (xi.x < lo_.x || xi.x > hi_.x || xi.y < lo_.y || xi.y > hi_.y)
    return {Triangulation::kNoCell, -1};
  auto coord = [&](double v, double lo, double inv) {
    auto c = static_cast<std::ptrdiff_t>((v - lo) * inv);
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(c, 0, static_cast<std::ptrdiff_t>(res_) - 1));
  };
  const std::size_t bx = coord(xi.x, lo_.x, inv_cell_x_);
  const std::size_t by = coord(xi.y, lo_.y, inv_cell_y_);
  for (const std::uint32_t i : buckets_[by * res_ + bx])
    if (facet_contains(facets_[i], xi))
      return {facets_[i].cell, facets_[i].entry_face};
  return {Triangulation::kNoCell, -1};
}

}  // namespace dtfe
