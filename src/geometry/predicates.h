// Robust geometric predicates: statically filtered double evaluation with an
// exact expansion-arithmetic fallback (Shewchuk-style two-stage).
//
// Conventions (fixed by tests/geometry/predicates_test.cpp):
//   orient3d(a,b,c,d)  > 0  ⇔  det[b−a; c−a; d−a] > 0, i.e. the tetrahedron
//                              (a,b,c,d) is positively oriented (d lies on the
//                              side of plane (a,b,c) pointed to by
//                              (b−a)×(c−a)).
//   insphere(a,b,c,d,e) > 0 ⇔  e lies strictly inside the circumsphere of the
//                              POSITIVELY oriented tetrahedron (a,b,c,d).
//   orient2d(a,b,c)    > 0  ⇔  (a,b,c) is counterclockwise.
//
// All predicates return the (possibly approximate) signed value whose *sign*
// is exact; callers must only rely on the sign.
//
// orient3d, insphere and the two-lane insphere2 are the triangulator's inner
// loop, so their filtered stages are inline here; the exact stages they fall
// back to stay out of line in predicates.cpp.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "geometry/vec3.h"

namespace dtfe {

/// Counters for filter effectiveness reporting. Each thread keeps its own
/// tallies (plain thread_local integers, so concurrent triangulations share
/// no cache line): predicate_stats() returns and reset_predicate_stats()
/// zeroes the calling thread's counts only. A two-lane insphere2 call counts
/// each real lane as one call.
struct PredicateStats {
  unsigned long long orient3d_calls = 0;
  unsigned long long orient3d_exact = 0;
  unsigned long long insphere_calls = 0;
  unsigned long long insphere_exact = 0;
};
PredicateStats predicate_stats();
void reset_predicate_stats();

double orient2d(const Vec2& a, const Vec2& b, const Vec2& c);
/// incircle(a,b,c,d) > 0 ⇔ d strictly inside the circle through a,b,c,
/// PROVIDED (a,b,c) is counterclockwise (flip the sign for clockwise).
double incircle2d(const Vec2& a, const Vec2& b, const Vec2& c, const Vec2& d);
inline double orient3d(const Vec3& a, const Vec3& b, const Vec3& c,
                       const Vec3& d);
inline double insphere(const Vec3& a, const Vec3& b, const Vec3& c,
                       const Vec3& d, const Vec3& e);

/// Two insphere tests against one query point e, two lanes per SSE2 op:
/// s[0] equals insphere(*t0[0], *t0[1], *t0[2], *t0[3], e) bit for bit, and
/// s[1] likewise for t1, each lane certified by its own dynamic error bound
/// and, if that fails, settled by its own exact evaluation. With `lanes` ==
/// 1 only t0 is real (pass it as t1 too): s[1] is s[0], counted once.
inline void insphere2(const Vec3* const (&t0)[4], const Vec3* const (&t1)[4],
                      const Vec3& e, int lanes, double (&s)[2]);

/// Non-robust plain double versions (used by ablation micro-benchmarks and
/// by callers that only need a fast approximate value, never a decision).
double orient3d_fast(const Vec3& a, const Vec3& b, const Vec3& c,
                     const Vec3& d);
double insphere_fast(const Vec3& a, const Vec3& b, const Vec3& c,
                     const Vec3& d, const Vec3& e);

// --- filtered stages, inline; exact stages out of line (predicates.cpp) ----

namespace detail {

constexpr double kEpsilon = 0x1p-53;  // half machine epsilon for double
constexpr double kO3dErrBoundA = (7.0 + 56.0 * kEpsilon) * kEpsilon;
constexpr double kIspErrBoundA = (16.0 + 224.0 * kEpsilon) * kEpsilon;

extern constinit thread_local PredicateStats t_predicate_stats;

/// Sign of the exact determinants, as ±1 or 0 (predicates.cpp).
double orient3d_exact(const Vec3& a, const Vec3& b, const Vec3& c,
                      const Vec3& d);
double insphere_exact(const Vec3& a, const Vec3& b, const Vec3& c,
                      const Vec3& d, const Vec3& e);

/// Two doubles, one per lane (GCC vector extension: SSE2 on x86-64).
using F64x2 = double __attribute__((vector_size(16)));
using U64x2 = std::uint64_t __attribute__((vector_size(16)));

inline double lane_abs(double v) { return std::abs(v); }
inline F64x2 lane_abs(F64x2 v) {
  constexpr U64x2 kMagnitude = {~(std::uint64_t{1} << 63),
                                ~(std::uint64_t{1} << 63)};
  return std::bit_cast<F64x2>(std::bit_cast<U64x2>(v) & kMagnitude);
}

/// The insphere determinant (raw sign: negative for e inside) and its
/// Shewchuk error bound, lane by lane. One body serves T = double and
/// T = F64x2, so both evaluate the same operations in the same order and
/// agree bit for bit (-ffp-contract=off keeps every product rounded).
template <class T>
struct InsphereFilter {
  T det;
  T errbound;
};

template <class T>
[[gnu::always_inline]] inline InsphereFilter<T> insphere_filter(
    T ax, T ay, T az, T bx, T by, T bz, T cx, T cy, T cz, T dx, T dy, T dz,
    T ex, T ey, T ez) {
  const T aex = ax - ex, aey = ay - ey, aez = az - ez;
  const T bex = bx - ex, bey = by - ey, bez = bz - ez;
  const T cex = cx - ex, cey = cy - ey, cez = cz - ez;
  const T dex = dx - ex, dey = dy - ey, dez = dz - ez;

  const T aexbey = aex * bey, bexaey = bex * aey;
  const T bexcey = bex * cey, cexbey = cex * bey;
  const T cexdey = cex * dey, dexcey = dex * cey;
  const T dexaey = dex * aey, aexdey = aex * dey;
  const T aexcey = aex * cey, cexaey = cex * aey;
  const T bexdey = bex * dey, dexbey = dex * bey;

  const T ab = aexbey - bexaey;
  const T bc = bexcey - cexbey;
  const T cd = cexdey - dexcey;
  const T da = dexaey - aexdey;
  const T ac = aexcey - cexaey;
  const T bd = bexdey - dexbey;

  const T abc = aez * bc - bez * ac + cez * ab;
  const T bcd = bez * cd - cez * bd + dez * bc;
  const T cda = cez * da + dez * ac + aez * cd;
  const T dab = dez * ab + aez * bd + bez * da;

  const T alift = aex * aex + aey * aey + aez * aez;
  const T blift = bex * bex + bey * bey + bez * bez;
  const T clift = cex * cex + cey * cey + cez * cez;
  const T dlift = dex * dex + dey * dey + dez * dez;

  const T det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd);

  const T aezplus = lane_abs(aez), bezplus = lane_abs(bez);
  const T cezplus = lane_abs(cez), dezplus = lane_abs(dez);
  const T aexbeyplus = lane_abs(aexbey), bexaeyplus = lane_abs(bexaey);
  const T bexceyplus = lane_abs(bexcey), cexbeyplus = lane_abs(cexbey);
  const T cexdeyplus = lane_abs(cexdey), dexceyplus = lane_abs(dexcey);
  const T dexaeyplus = lane_abs(dexaey), aexdeyplus = lane_abs(aexdey);
  const T aexceyplus = lane_abs(aexcey), cexaeyplus = lane_abs(cexaey);
  const T bexdeyplus = lane_abs(bexdey), dexbeyplus = lane_abs(dexbey);

  const T permanent =
      ((cexdeyplus + dexceyplus) * bezplus +
       (dexbeyplus + bexdeyplus) * cezplus +
       (bexceyplus + cexbeyplus) * dezplus) * alift +
      ((dexaeyplus + aexdeyplus) * cezplus +
       (aexceyplus + cexaeyplus) * dezplus +
       (cexdeyplus + dexceyplus) * aezplus) * blift +
      ((aexbeyplus + bexaeyplus) * dezplus +
       (bexdeyplus + dexbeyplus) * aezplus +
       (dexaeyplus + aexdeyplus) * bezplus) * clift +
      ((bexceyplus + cexbeyplus) * aezplus +
       (cexaeyplus + aexceyplus) * bezplus +
       (aexbeyplus + bexaeyplus) * cezplus) * dlift;

  return {det, kIspErrBoundA * permanent};
}

}  // namespace detail

inline double orient3d(const Vec3& a, const Vec3& b, const Vec3& c,
                       const Vec3& d) {
  ++detail::t_predicate_stats.orient3d_calls;
  const double bax = b.x - a.x, bay = b.y - a.y, baz = b.z - a.z;
  const double cax = c.x - a.x, cay = c.y - a.y, caz = c.z - a.z;
  const double dax = d.x - a.x, day = d.y - a.y, daz = d.z - a.z;

  const double caydaz = cay * daz, cazday = caz * day;
  const double caxdaz = cax * daz, cazdax = caz * dax;
  const double caxday = cax * day, caydax = cay * dax;

  const double det = bax * (caydaz - cazday) - bay * (caxdaz - cazdax) +
                     baz * (caxday - caydax);

  const double permanent = (std::abs(caydaz) + std::abs(cazday)) * std::abs(bax) +
                           (std::abs(caxdaz) + std::abs(cazdax)) * std::abs(bay) +
                           (std::abs(caxday) + std::abs(caydax)) * std::abs(baz);
  const double errbound = detail::kO3dErrBoundA * permanent;
  if (det > errbound || -det > errbound) return det;
  ++detail::t_predicate_stats.orient3d_exact;
  return detail::orient3d_exact(a, b, c, d);
}

inline double insphere(const Vec3& a, const Vec3& b, const Vec3& c,
                       const Vec3& d, const Vec3& e) {
  ++detail::t_predicate_stats.insphere_calls;
  const auto f = detail::insphere_filter(a.x, a.y, a.z, b.x, b.y, b.z, c.x,
                                         c.y, c.z, d.x, d.y, d.z, e.x, e.y,
                                         e.z);
  // f.det is the raw matrix determinant, NEGATIVE for an interior point when
  // (a,b,c,d) is positively oriented in our convention (hand-verified on the
  // unit tetrahedron; see tests). The filter test is symmetric, so certify,
  // then negate.
  if (f.det > f.errbound || -f.det > f.errbound) return -f.det;
  ++detail::t_predicate_stats.insphere_exact;
  return detail::insphere_exact(a, b, c, d, e);
}

inline void insphere2(const Vec3* const (&t0)[4], const Vec3* const (&t1)[4],
                      const Vec3& e, int lanes, double (&s)[2]) {
  using detail::F64x2;
  const auto x = [&](int v) { return F64x2{t0[v]->x, t1[v]->x}; };
  const auto y = [&](int v) { return F64x2{t0[v]->y, t1[v]->y}; };
  const auto z = [&](int v) { return F64x2{t0[v]->z, t1[v]->z}; };
  detail::t_predicate_stats.insphere_calls +=
      static_cast<unsigned long long>(lanes);
  const auto f = detail::insphere_filter(
      x(0), y(0), z(0), x(1), y(1), z(1), x(2), y(2), z(2), x(3), y(3), z(3),
      F64x2{e.x, e.x}, F64x2{e.y, e.y}, F64x2{e.z, e.z});
  const Vec3* const* t[2] = {t0, t1};
  for (int k = 0; k < lanes; ++k) {
    const double det = f.det[k], errbound = f.errbound[k];
    if (det > errbound || -det > errbound) {
      s[k] = -det;
    } else {
      ++detail::t_predicate_stats.insphere_exact;
      s[k] = detail::insphere_exact(*t[k][0], *t[k][1], *t[k][2], *t[k][3], e);
    }
  }
  if (lanes == 1) s[1] = s[0];
}

}  // namespace dtfe
