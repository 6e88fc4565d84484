// See predicates.h. Filter constants follow Shewchuk, "Adaptive Precision
// Floating-Point Arithmetic and Fast Robust Geometric Predicates" (1997),
// §4: an approximate determinant together with a bound on its absolute error
// derived from the permanent of the matrix certifies the sign whenever
// |det| > errbound; otherwise we re-evaluate with exact expansions.
#include "geometry/predicates.h"

#include <cmath>

#include "geometry/expansion.h"

namespace dtfe {

namespace detail {

// Per-thread tallies: concurrent triangulations each count into their own
// thread's counters, so the hot path writes no shared cache line.
constinit thread_local PredicateStats t_predicate_stats;

}  // namespace detail

namespace {

using detail::kEpsilon;
constexpr double kCcwErrBoundA = (3.0 + 16.0 * kEpsilon) * kEpsilon;
constexpr double kIccErrBoundA = (10.0 + 96.0 * kEpsilon) * kEpsilon;

double orient2d_exact(const Vec2& a, const Vec2& b, const Vec2& c) {
  const Expansion acx = Expansion::from_diff(a.x, c.x);
  const Expansion acy = Expansion::from_diff(a.y, c.y);
  const Expansion bcx = Expansion::from_diff(b.x, c.x);
  const Expansion bcy = Expansion::from_diff(b.y, c.y);
  const Expansion det = acx * bcy - acy * bcx;
  return static_cast<double>(det.sign());
}

double incircle2d_exact(const Vec2& a, const Vec2& b, const Vec2& c,
                        const Vec2& d) {
  const Expansion adx = Expansion::from_diff(a.x, d.x);
  const Expansion ady = Expansion::from_diff(a.y, d.y);
  const Expansion bdx = Expansion::from_diff(b.x, d.x);
  const Expansion bdy = Expansion::from_diff(b.y, d.y);
  const Expansion cdx = Expansion::from_diff(c.x, d.x);
  const Expansion cdy = Expansion::from_diff(c.y, d.y);

  const Expansion alift = adx * adx + ady * ady;
  const Expansion blift = bdx * bdx + bdy * bdy;
  const Expansion clift = cdx * cdx + cdy * cdy;

  const Expansion det = alift * (bdx * cdy - cdx * bdy) -
                        blift * (adx * cdy - cdx * ady) +
                        clift * (adx * bdy - bdx * ady);
  return static_cast<double>(det.sign());
}

}  // namespace

namespace detail {

// Exact det[b−a; c−a; d−a].
double orient3d_exact(const Vec3& a, const Vec3& b, const Vec3& c,
                      const Vec3& d) {
  const Expansion bax = Expansion::from_diff(b.x, a.x);
  const Expansion bay = Expansion::from_diff(b.y, a.y);
  const Expansion baz = Expansion::from_diff(b.z, a.z);
  const Expansion cax = Expansion::from_diff(c.x, a.x);
  const Expansion cay = Expansion::from_diff(c.y, a.y);
  const Expansion caz = Expansion::from_diff(c.z, a.z);
  const Expansion dax = Expansion::from_diff(d.x, a.x);
  const Expansion day = Expansion::from_diff(d.y, a.y);
  const Expansion daz = Expansion::from_diff(d.z, a.z);

  const Expansion det = bax * (cay * daz - caz * day) -
                        bay * (cax * daz - caz * dax) +
                        baz * (cax * day - cay * dax);
  return static_cast<double>(det.sign());
}

// Exact −det of the 4×4 insphere matrix with rows (p−e, |p−e|²), p∈{a,b,c,d},
// evaluated by Laplace expansion along the first two columns.
double insphere_exact(const Vec3& a, const Vec3& b, const Vec3& c,
                      const Vec3& d, const Vec3& e) {
  const Expansion ax = Expansion::from_diff(a.x, e.x);
  const Expansion ay = Expansion::from_diff(a.y, e.y);
  const Expansion az = Expansion::from_diff(a.z, e.z);
  const Expansion bx = Expansion::from_diff(b.x, e.x);
  const Expansion by = Expansion::from_diff(b.y, e.y);
  const Expansion bz = Expansion::from_diff(b.z, e.z);
  const Expansion cx = Expansion::from_diff(c.x, e.x);
  const Expansion cy = Expansion::from_diff(c.y, e.y);
  const Expansion cz = Expansion::from_diff(c.z, e.z);
  const Expansion dx = Expansion::from_diff(d.x, e.x);
  const Expansion dy = Expansion::from_diff(d.y, e.y);
  const Expansion dz = Expansion::from_diff(d.z, e.z);

  const Expansion alift = ax * ax + ay * ay + az * az;
  const Expansion blift = bx * bx + by * by + bz * bz;
  const Expansion clift = cx * cx + cy * cy + cz * cz;
  const Expansion dlift = dx * dx + dy * dy + dz * dz;

  // 2×2 minors of columns (x, y) …
  const Expansion m_ab = ax * by - bx * ay;
  const Expansion m_ac = ax * cy - cx * ay;
  const Expansion m_ad = ax * dy - dx * ay;
  const Expansion m_bc = bx * cy - cx * by;
  const Expansion m_bd = bx * dy - dx * by;
  const Expansion m_cd = cx * dy - dx * cy;
  // … and complementary minors of columns (z, lift).
  const Expansion n_cd = cz * dlift - dz * clift;
  const Expansion n_bd = bz * dlift - dz * blift;
  const Expansion n_bc = bz * clift - cz * blift;
  const Expansion n_ad = az * dlift - dz * alift;
  const Expansion n_ac = az * clift - cz * alift;
  const Expansion n_ab = az * blift - bz * alift;

  const Expansion det = m_ab * n_cd - m_ac * n_bd + m_ad * n_bc + m_bc * n_ad -
                        m_bd * n_ac + m_cd * n_ab;
  return -static_cast<double>(det.sign());
}

}  // namespace detail

PredicateStats predicate_stats() { return detail::t_predicate_stats; }
void reset_predicate_stats() { detail::t_predicate_stats = {}; }

double orient2d(const Vec2& a, const Vec2& b, const Vec2& c) {
  const double detleft = (a.x - c.x) * (b.y - c.y);
  const double detright = (a.y - c.y) * (b.x - c.x);
  const double det = detleft - detright;

  double detsum;
  if (detleft > 0.0) {
    if (detright <= 0.0) return det;
    detsum = detleft + detright;
  } else if (detleft < 0.0) {
    if (detright >= 0.0) return det;
    detsum = -detleft - detright;
  } else {
    return det;
  }
  const double errbound = kCcwErrBoundA * detsum;
  if (det >= errbound || -det >= errbound) return det;
  return orient2d_exact(a, b, c);
}

double incircle2d(const Vec2& a, const Vec2& b, const Vec2& c, const Vec2& d) {
  const double adx = a.x - d.x, ady = a.y - d.y;
  const double bdx = b.x - d.x, bdy = b.y - d.y;
  const double cdx = c.x - d.x, cdy = c.y - d.y;

  const double bdxcdy = bdx * cdy, cdxbdy = cdx * bdy;
  const double cdxady = cdx * ady, adxcdy = adx * cdy;
  const double adxbdy = adx * bdy, bdxady = bdx * ady;
  const double alift = adx * adx + ady * ady;
  const double blift = bdx * bdx + bdy * bdy;
  const double clift = cdx * cdx + cdy * cdy;

  const double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                     clift * (adxbdy - bdxady);

  const double permanent = (std::abs(bdxcdy) + std::abs(cdxbdy)) * alift +
                           (std::abs(cdxady) + std::abs(adxcdy)) * blift +
                           (std::abs(adxbdy) + std::abs(bdxady)) * clift;
  const double errbound = kIccErrBoundA * permanent;
  if (det > errbound || -det > errbound) return det;
  return incircle2d_exact(a, b, c, d);
}

double orient3d_fast(const Vec3& a, const Vec3& b, const Vec3& c,
                     const Vec3& d) {
  const double bax = b.x - a.x, bay = b.y - a.y, baz = b.z - a.z;
  const double cax = c.x - a.x, cay = c.y - a.y, caz = c.z - a.z;
  const double dax = d.x - a.x, day = d.y - a.y, daz = d.z - a.z;
  return bax * (cay * daz - caz * day) - bay * (cax * daz - caz * dax) +
         baz * (cax * day - cay * dax);
}

double insphere_fast(const Vec3& a, const Vec3& b, const Vec3& c,
                     const Vec3& d, const Vec3& e) {
  const double aex = a.x - e.x, aey = a.y - e.y, aez = a.z - e.z;
  const double bex = b.x - e.x, bey = b.y - e.y, bez = b.z - e.z;
  const double cex = c.x - e.x, cey = c.y - e.y, cez = c.z - e.z;
  const double dex = d.x - e.x, dey = d.y - e.y, dez = d.z - e.z;

  const double ab = aex * bey - bex * aey;
  const double bc = bex * cey - cex * bey;
  const double cd = cex * dey - dex * cey;
  const double da = dex * aey - aex * dey;
  const double ac = aex * cey - cex * aey;
  const double bd = bex * dey - dex * bey;

  const double abc = aez * bc - bez * ac + cez * ab;
  const double bcd = bez * cd - cez * bd + dez * bc;
  const double cda = cez * da + dez * ac + aez * cd;
  const double dab = dez * ab + aez * bd + bez * da;

  const double alift = aex * aex + aey * aey + aez * aez;
  const double blift = bex * bex + bey * bey + bez * bez;
  const double clift = cex * cex + cey * cey + cez * cez;
  const double dlift = dex * dex + dey * dey + dez * dez;

  // The raw 4×4 determinant is NEGATIVE for an interior point when (a,b,c,d)
  // is positively oriented in our convention (hand-verified on the unit
  // tetrahedron; see tests), hence the negation.
  return -((dlift * abc - clift * dab) + (blift * cda - alift * bcd));
}

}  // namespace dtfe
