#include "geometry/expansion.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace dtfe {
namespace {

TEST(TwoSum, ExactForContrivedCancellation) {
  double x, y;
  two_sum(1e16, 1.0, x, y);
  // x + y must equal 1e16 + 1 exactly; x alone cannot represent it.
  EXPECT_EQ(x, 1e16);
  EXPECT_EQ(y, 1.0);
}

TEST(TwoDiff, RecoversLostLowBits) {
  double x, y;
  two_diff(1.0, 1e-20, x, y);
  EXPECT_EQ(x, 1.0);
  EXPECT_EQ(y, -1e-20);
}

TEST(TwoProduct, ExactViaFma) {
  double x, y;
  const double a = 1.0 + 0x1p-30;
  const double b = 1.0 - 0x1p-30;
  two_product(a, b, x, y);
  // a*b = 1 - 2^-60 exactly; x = 1.0 rounded, y = -2^-60.
  EXPECT_EQ(x, 1.0);
  EXPECT_EQ(y, -0x1p-60);
}

TEST(Expansion, ZeroHasSignZero) {
  EXPECT_EQ(Expansion{}.sign(), 0);
  EXPECT_EQ(Expansion(0.0).sign(), 0);
  EXPECT_TRUE(Expansion::from_diff(3.5, 3.5).is_zero());
}

TEST(Expansion, SingleComponentSign) {
  EXPECT_EQ(Expansion(2.0).sign(), 1);
  EXPECT_EQ(Expansion(-0.25).sign(), -1);
}

TEST(Expansion, SumCancelsExactly) {
  // (2^53+2)(2^53−2) = 2^106 − 4; all operands exactly representable.
  const Expansion a = Expansion::from_product(0x1p53 + 2.0, 0x1p53 - 2.0);
  Expansion r = a - Expansion(0x1p106) + Expansion(4.0);
  EXPECT_EQ(r.sign(), 0) << "value ~ " << r.approx();
  // And one ulp off is detected:
  EXPECT_EQ((a - Expansion(0x1p106) + Expansion(3.0)).sign(), -1);
  EXPECT_EQ((a - Expansion(0x1p106) + Expansion(5.0)).sign(), 1);
}

TEST(Expansion, ScaledMatchesLongArithmetic) {
  // (2^53 + 1) * 3 is not representable in a double, but the expansion
  // must carry it exactly: subtracting the true value gives zero.
  Expansion e = Expansion(0x1p53) + Expansion(1.0);
  Expansion tripled = e.scaled(3.0);
  Expansion expect = Expansion(3.0 * 0x1p53) + Expansion(3.0);
  EXPECT_EQ((tripled - expect).sign(), 0);
}

TEST(Expansion, ProductDistributes) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    const double a = rng.uniform(-1e6, 1e6);
    const double b = rng.uniform(-1e-6, 1e-6);
    const double c = rng.uniform(-1.0, 1.0);
    const Expansion ea = Expansion(a) + Expansion(b);
    const Expansion prod = ea * Expansion(c);
    const Expansion expect =
        Expansion::from_product(a, c) + Expansion::from_product(b, c);
    EXPECT_EQ((prod - expect).sign(), 0);
  }
}

TEST(Expansion, SignMatchesLongDoubleOnRandomPolynomials) {
  // Evaluate a*b + c*d - e*f both ways; where long double magnitude is well
  // above its epsilon the signs must agree.
  Rng rng(7);
  for (int iter = 0; iter < 2000; ++iter) {
    const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    const double c = rng.uniform(-1, 1), d = rng.uniform(-1, 1);
    const double e = rng.uniform(-1, 1), f = rng.uniform(-1, 1);
    const Expansion ex = Expansion::from_product(a, b) +
                         Expansion::from_product(c, d) -
                         Expansion::from_product(e, f);
    const long double ld = static_cast<long double>(a) * b +
                           static_cast<long double>(c) * d -
                           static_cast<long double>(e) * f;
    if (std::abs(static_cast<double>(ld)) > 1e-15) {
      EXPECT_EQ(ex.sign(), ld > 0 ? 1 : -1);
    }
  }
}

TEST(Expansion, ApproxCloseToTrueValue) {
  const Expansion e = Expansion(1e10) + Expansion(1e-10);
  EXPECT_NEAR(e.approx(), 1e10, 1.0);
}

}  // namespace
}  // namespace dtfe
