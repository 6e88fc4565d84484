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
#pragma once

#include "geometry/vec3.h"

namespace dtfe {

double orient2d(const Vec2& a, const Vec2& b, const Vec2& c);
/// incircle(a,b,c,d) > 0 ⇔ d strictly inside the circle through a,b,c,
/// PROVIDED (a,b,c) is counterclockwise (flip the sign for clockwise).
double incircle2d(const Vec2& a, const Vec2& b, const Vec2& c, const Vec2& d);
double orient3d(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d);
double insphere(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d,
                const Vec3& e);

/// Non-robust plain double versions (used by ablation micro-benchmarks and
/// by callers that only need a fast approximate value, never a decision).
double orient3d_fast(const Vec3& a, const Vec3& b, const Vec3& c,
                     const Vec3& d);
double insphere_fast(const Vec3& a, const Vec3& b, const Vec3& c,
                     const Vec3& d, const Vec3& e);

/// Counters for filter effectiveness reporting. Each thread keeps its own
/// tallies (plain thread_local integers, so concurrent triangulations share
/// no cache line): predicate_stats() returns and reset_predicate_stats()
/// zeroes the calling thread's counts only.
struct PredicateStats {
  unsigned long long orient3d_calls = 0;
  unsigned long long orient3d_exact = 0;
  unsigned long long insphere_calls = 0;
  unsigned long long insphere_exact = 0;
};
PredicateStats predicate_stats();
void reset_predicate_stats();

}  // namespace dtfe
