#include "geometry/predicates.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "util/rng.h"

namespace dtfe {
namespace {

const Vec3 kA{0, 0, 0}, kB{1, 0, 0}, kC{0, 1, 0}, kD{0, 0, 1};

TEST(Orient3d, UnitTetraConvention) {
  EXPECT_GT(orient3d(kA, kB, kC, kD), 0.0);
  EXPECT_LT(orient3d(kA, kC, kB, kD), 0.0);  // swap two vertices flips sign
  EXPECT_GT(orient3d_fast(kA, kB, kC, kD), 0.0);
}

TEST(Orient3d, CoplanarIsExactZero) {
  EXPECT_EQ(orient3d(kA, kB, kC, {0.3, 0.7, 0.0}), 0.0);
  EXPECT_EQ(orient3d(kA, kB, kC, {-5.0, 11.0, 0.0}), 0.0);
}

TEST(Orient3d, ExactOnPlaneZEqualsXPlusY) {
  // Dyadic rationals keep x+y exact, so (x, y, x+y) lies EXACTLY on the
  // plane z = x + y through a=(0,0,0), b=(1,0,1), c=(0,1,1). The plane
  // normal for (a,b,c) is (−1,−1,1), so one-ulp nudges in z flip the sign
  // deterministically — a naive double evaluation gets many of these wrong.
  const Vec3 a{0, 0, 0}, b{1, 0, 1}, c{0, 1, 1};
  Rng rng(42);
  int disagreements = 0;
  for (int iter = 0; iter < 500; ++iter) {
    const double x = static_cast<double>(rng.uniform_index(1 << 20)) * 0x1p-20;
    const double y = static_cast<double>(rng.uniform_index(1 << 20)) * 0x1p-20;
    const double z = x + y;  // exact for these dyadics
    ASSERT_EQ(orient3d(a, b, c, {x, y, z}), 0.0);
    const Vec3 up{x, y, std::nextafter(z, 1e30)};
    const Vec3 down{x, y, std::nextafter(z, -1e30)};
    EXPECT_GT(orient3d(a, b, c, up), 0.0);
    EXPECT_LT(orient3d(a, b, c, down), 0.0);
    if (orient3d_fast(a, b, c, up) <= 0.0 || orient3d_fast(a, b, c, down) >= 0.0)
      ++disagreements;
  }
  // Informational: the fast predicate may or may not survive these; the
  // robust one must (asserted above). Keep the counter referenced.
  (void)disagreements;
}

TEST(Insphere, CenterInsideFarOutside) {
  // Circumsphere of the unit tetra: center (.5,.5,.5), r² = .75.
  EXPECT_GT(insphere(kA, kB, kC, kD, {0.25, 0.25, 0.25}), 0.0);
  EXPECT_GT(insphere(kA, kB, kC, kD, {0.5, 0.5, 0.5}), 0.0);
  EXPECT_LT(insphere(kA, kB, kC, kD, {2.0, 2.0, 2.0}), 0.0);
  EXPECT_LT(insphere(kA, kB, kC, kD, {-1.0, 0.0, 0.0}), 0.0);
}

TEST(Insphere, FastVariantAgreesOnEasyCases) {
  EXPECT_GT(insphere_fast(kA, kB, kC, kD, {0.25, 0.25, 0.25}), 0.0);
  EXPECT_LT(insphere_fast(kA, kB, kC, kD, {2.0, 2.0, 2.0}), 0.0);
}

TEST(Insphere, CosphericalIsExactZero) {
  // The 4th vertex itself and the antipodal-ish point (1,1,0) lie exactly on
  // the circumsphere (center .5,.5,.5, r²=.75): (1,1,0) → (.5² + .5² + .5²).
  EXPECT_EQ(insphere(kA, kB, kC, kD, {1.0, 1.0, 0.0}), 0.0);
  EXPECT_EQ(insphere(kA, kB, kC, kD, {1.0, 0.0, 1.0}), 0.0);
  EXPECT_EQ(insphere(kA, kB, kC, kD, {0.0, 1.0, 1.0}), 0.0);
  EXPECT_EQ(insphere(kA, kB, kC, kD, {1.0, 1.0, 1.0}), 0.0);
}

TEST(Insphere, ExactOnPerturbedSphere) {
  // Points on a sphere of radius 1/2 centered at (.5,.5,.5) expressed in
  // doubles; nudging the query by one ulp must flip/zero correctly.
  const Vec3 a{0.5, 0.5, 0.0}, b{0.5, 0.5, 1.0}, c{0.0, 0.5, 0.5},
      d{0.5, 0.0, 0.5};
  ASSERT_GT(orient3d(a, b, c, d), 0.0) << "test tetra must be positive";
  const Vec3 on{1.0, 0.5, 0.5};
  EXPECT_EQ(insphere(a, b, c, d, on), 0.0);
  EXPECT_GT(insphere(a, b, c, d, {std::nextafter(1.0, 0.0), 0.5, 0.5}), 0.0);
  EXPECT_LT(insphere(a, b, c, d, {std::nextafter(1.0, 2.0), 0.5, 0.5}), 0.0);
}

TEST(Insphere, SignFlipsWithOrientation) {
  // Swapping two tetra vertices flips the insphere sign.
  const Vec3 q{0.25, 0.25, 0.25};
  EXPECT_GT(insphere(kA, kB, kC, kD, q), 0.0);
  EXPECT_LT(insphere(kB, kA, kC, kD, q), 0.0);
}

TEST(Orient2d, BasicAndDegenerate) {
  EXPECT_GT(orient2d({0, 0}, {1, 0}, {0, 1}), 0.0);
  EXPECT_LT(orient2d({0, 0}, {0, 1}, {1, 0}), 0.0);
  EXPECT_EQ(orient2d({0, 0}, {1, 1}, {2, 2}), 0.0);
  EXPECT_EQ(orient2d({0, 0}, {1, 1}, {0.5, 0.5}), 0.0);
}

TEST(Incircle2d, UnitCircle) {
  const Vec2 a{1, 0}, b{0, 1}, c{-1, 0};
  ASSERT_GT(orient2d(a, b, c), 0.0);
  EXPECT_GT(incircle2d(a, b, c, {0, 0}), 0.0);
  EXPECT_LT(incircle2d(a, b, c, {2, 0}), 0.0);
  EXPECT_EQ(incircle2d(a, b, c, {0, -1}), 0.0);  // on the circle
}

TEST(Incircle2d, NearCocircularExactness) {
  const Vec2 a{1, 0}, b{0, 1}, c{-1, 0};
  EXPECT_LT(incircle2d(a, b, c, {0, std::nextafter(-1.0, -2.0)}), 0.0);
  EXPECT_GT(incircle2d(a, b, c, {0, std::nextafter(-1.0, 0.0)}), 0.0);
}

TEST(PredicatesProperty, Orient3dAntisymmetryRandom) {
  Rng rng(3);
  for (int iter = 0; iter < 300; ++iter) {
    auto rv = [&] { return Vec3{rng.uniform(), rng.uniform(), rng.uniform()}; };
    const Vec3 a = rv(), b = rv(), c = rv(), d = rv();
    const double s1 = orient3d(a, b, c, d);
    const double s2 = orient3d(b, a, c, d);
    EXPECT_EQ(s1 > 0, s2 < 0);
    EXPECT_EQ(s1 == 0, s2 == 0);
  }
}

TEST(PredicatesProperty, InsphereConsistentWithCircumcenterDistance) {
  Rng rng(11);
  int tested = 0;
  for (int iter = 0; iter < 500; ++iter) {
    auto rv = [&] { return Vec3{rng.uniform(), rng.uniform(), rng.uniform()}; };
    Vec3 a = rv(), b = rv(), c = rv(), d = rv();
    double o = orient3d(a, b, c, d);
    if (o == 0.0) continue;
    if (o < 0.0) std::swap(c, d);
    const Vec3 q = rv();
    // Reference via circumcenter computed in long-double-ish arithmetic —
    // only trust it away from the boundary.
    const Vec3 u = b - a, v = c - a, w = d - a;
    const double det = 2.0 * u.dot(v.cross(w));
    if (std::abs(det) < 1e-6) continue;
    const Vec3 center = a + (v.cross(w) * u.norm2() + w.cross(u) * v.norm2() +
                             u.cross(v) * w.norm2()) /
                                det;
    const double r2 = (a - center).norm2();
    const double d2 = (q - center).norm2();
    if (std::abs(d2 - r2) < 1e-9 * (r2 + 1.0)) continue;  // too close to call
    ++tested;
    EXPECT_EQ(insphere(a, b, c, d, q) > 0.0, d2 < r2)
        << "iter " << iter << " d2=" << d2 << " r2=" << r2;
  }
  EXPECT_GT(tested, 300);
}

TEST(PredicateStatsCounters, ExactPathIsRareOnRandomInput) {
  reset_predicate_stats();
  Rng rng(5);
  for (int iter = 0; iter < 2000; ++iter) {
    auto rv = [&] { return Vec3{rng.uniform(), rng.uniform(), rng.uniform()}; };
    (void)orient3d(rv(), rv(), rv(), rv());
  }
  const auto& st = predicate_stats();
  EXPECT_EQ(st.orient3d_calls, 2000u);
  EXPECT_LT(st.orient3d_exact, 20u);
}

TEST(PredicateStatsCounters, OtherThreadsCallsAreNotCounted) {
  reset_predicate_stats();
  (void)orient3d(kA, kB, kC, kD);
  PredicateStats other;
  std::thread worker([&] {
    for (int i = 0; i < 100; ++i) {
      (void)orient3d(kA, kB, kC, kD);
      (void)insphere(kA, kB, kC, kD, Vec3{0.1, 0.1, 0.1});
    }
    other = predicate_stats();
  });
  worker.join();
  EXPECT_EQ(other.orient3d_calls, 100u);
  EXPECT_EQ(other.insphere_calls, 100u);
  const PredicateStats mine = predicate_stats();
  EXPECT_EQ(mine.orient3d_calls, 1u);
  EXPECT_EQ(mine.insphere_calls, 0u);
}

}  // namespace
}  // namespace dtfe
