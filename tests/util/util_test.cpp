#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/binpack.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/fit.h"
#include "util/grid_index.h"
#include "util/image.h"
#include "util/morton.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace dtfe {
namespace {

// ---------- RunningStats / Histogram -----------------------------------------

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(1);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal() * 3.0 + 1.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamped to bin 0
  h.add(42.0);   // clamped to bin 9
  h.add(5.0);    // bin 5
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_center(5), 5.5);
  EXPECT_EQ(h.mode_bin(), 0u);
  EXPECT_FALSE(h.render().empty());
}

// ---------- fitting -----------------------------------------------------------

TEST(Fit, ProportionalExact) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> t = {2, 4, 6, 8};
  EXPECT_DOUBLE_EQ(fit_proportional(x, t), 2.0);
  EXPECT_DOUBLE_EQ(fit_proportional(std::vector<double>{0, 0},
                                    std::vector<double>{1, 2}),
                   0.0);
}

TEST(Fit, NlognIgnoresTinyN) {
  std::vector<double> n = {1.0, 1024.0, 2048.0};  // n=1 has log2=0, dropped
  std::vector<double> t = {999.0, 3e-5 * 1024 * 10, 3e-5 * 2048 * 11};
  EXPECT_NEAR(fit_nlogn(n, t), 3e-5, 1e-8);
}

TEST(Fit, LinearRecoversLine) {
  Rng rng(2);
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(rng.uniform(-5, 5));
    y.push_back(3.0 - 0.5 * x.back());
  }
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.intercept, 3.0, 1e-12);
  EXPECT_NEAR(f.slope, -0.5, 1e-12);
}

TEST(Fit, PowerLawGaussNewtonRefinesLogFit) {
  // Additive noise makes the log-space fit biased; Gauss–Newton must land
  // closer in least-squares terms.
  Rng rng(3);
  std::vector<double> n, t;
  for (int i = 0; i < 300; ++i) {
    n.push_back(rng.uniform(10.0, 1e5));
    t.push_back(2.5e-6 * std::pow(n.back(), 1.4) + 0.01 * rng.uniform());
  }
  const PowerLawFit f = fit_power_law(n, t);
  EXPECT_NEAR(f.beta, 1.4, 0.03);
  EXPECT_NEAR(f.alpha, 2.5e-6, 1e-6);
  EXPECT_TRUE(f.converged);
}

TEST(Fit, PowerLawDegenerateInputs) {
  EXPECT_EQ(fit_power_law({}, {}).alpha, 0.0);
  const std::vector<double> n = {5.0};
  const std::vector<double> t = {1.0};
  EXPECT_EQ(fit_power_law(n, t).alpha, 0.0);  // < 2 usable samples
}

// ---------- bin packing --------------------------------------------------------

TEST(BinPack, AllFitWhenRoomy) {
  const std::vector<double> items = {3, 1, 2};
  const std::vector<double> bins = {10};
  const auto r = pack_first_fit(items, bins);
  EXPECT_EQ(r.overflow, 0.0);
  for (const auto b : r.item_to_bin) EXPECT_EQ(b, 0);
  EXPECT_DOUBLE_EQ(r.slack[0], 4.0);
}

TEST(BinPack, FirstFitDecreasingOrder) {
  // Items {5,4,3} into bins {5,7}: FFD sorted desc, bins asc: 5→[5], 4→[7],
  // 3→[7] leaves slack {0, 0}.
  const std::vector<double> items = {3, 5, 4};
  const std::vector<double> bins = {7, 5};
  const auto r = pack_first_fit(items, bins);
  EXPECT_DOUBLE_EQ(r.overflow, 0.0);
  EXPECT_DOUBLE_EQ(r.slack[0], 0.0);
  EXPECT_DOUBLE_EQ(r.slack[1], 0.0);
  EXPECT_EQ(r.item_to_bin[1], 1);  // the 5 goes to the size-5 bin
}

TEST(BinPack, OverflowReported) {
  const std::vector<double> items = {4, 4, 4};
  const std::vector<double> bins = {5};
  const auto r = pack_first_fit(items, bins);
  EXPECT_DOUBLE_EQ(r.overflow, 8.0);
  int placed = 0;
  for (const auto b : r.item_to_bin)
    if (b >= 0) ++placed;
  EXPECT_EQ(placed, 1);
}

TEST(BinPack, NeverOverfillsProperty) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> items(1 + rng.uniform_index(40));
    std::vector<double> bins(1 + rng.uniform_index(10));
    for (auto& x : items) x = rng.uniform(0.1, 3.0);
    for (auto& b : bins) b = rng.uniform(0.5, 6.0);
    const auto r = pack_first_fit(items, bins);
    std::vector<double> load(bins.size(), 0.0);
    double unplaced = 0.0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (r.item_to_bin[i] >= 0)
        load[static_cast<std::size_t>(r.item_to_bin[i])] += items[i];
      else
        unplaced += items[i];
    }
    EXPECT_NEAR(unplaced, r.overflow, 1e-12);
    for (std::size_t b = 0; b < bins.size(); ++b) {
      EXPECT_LE(load[b], bins[b] + 1e-12);
      EXPECT_NEAR(bins[b] - load[b], r.slack[b], 1e-12);
    }
  }
}

// ---------- morton --------------------------------------------------------------

TEST(Morton, OrderRespectsOctants) {
  // Points in the low octant sort before the high octant.
  const auto lo = morton_key(0.1, 0.1, 0.1, 0.0, 1.0);
  const auto hi = morton_key(0.9, 0.9, 0.9, 0.0, 1.0);
  EXPECT_LT(lo, hi);
}

TEST(Morton, EncodeInterleavesBits) {
  EXPECT_EQ(morton_encode(1, 0, 0), 1ull);
  EXPECT_EQ(morton_encode(0, 1, 0), 2ull);
  EXPECT_EQ(morton_encode(0, 0, 1), 4ull);
  EXPECT_EQ(morton_encode(2, 0, 0), 8ull);
  EXPECT_EQ(morton_encode(3, 3, 3), 63ull);
}

// ---------- grid index ------------------------------------------------------------

TEST(GridIndex, CountMatchesBruteForce) {
  Rng rng(9);
  std::vector<Vec3> pts(2000);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  GridIndex idx(pts, {0, 0, 0}, 1.0, 8);
  for (int trial = 0; trial < 100; ++trial) {
    const Vec3 c{rng.uniform(), rng.uniform(), rng.uniform()};
    const double side = rng.uniform(0.05, 0.5);
    std::size_t brute = 0;
    const double h = side / 2;
    for (const Vec3& p : pts)
      if (std::abs(p.x - c.x) <= h && std::abs(p.y - c.y) <= h &&
          std::abs(p.z - c.z) <= h)
        ++brute;
    EXPECT_EQ(idx.count_in_cube(c, side), brute) << "trial " << trial;
  }
}

TEST(GridIndex, PeriodicCountWrapsImages) {
  std::vector<Vec3> pts = {{0.05, 0.5, 0.5}, {0.95, 0.5, 0.5}, {0.5, 0.5, 0.5}};
  GridIndex idx(pts, {0, 0, 0}, 1.0, 4, /*periodic=*/true);
  // Cube centered at the boundary catches both edge points.
  EXPECT_EQ(idx.count_in_cube({0.0, 0.5, 0.5}, 0.3), 2u);
  EXPECT_EQ(idx.count_in_cube({0.5, 0.5, 0.5}, 0.2), 1u);
}

TEST(GridIndex, GatherReturnsIndices) {
  std::vector<Vec3> pts = {{0.1, 0.1, 0.1}, {0.9, 0.9, 0.9}, {0.12, 0.1, 0.1}};
  GridIndex idx(pts, {0, 0, 0}, 1.0, 4);
  std::vector<std::uint32_t> out;
  idx.gather_in_cube({0.1, 0.1, 0.1}, 0.1, out);
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 2u);
}

// ---------- images / csv -----------------------------------------------------------

TEST(Image, PgmRoundTripHeader) {
  std::vector<double> v(16, 0.0);
  v[5] = 1.0;
  const std::string path = "/tmp/pdtfe_test.pgm";
  write_pgm(path, v, 4, 4, 0.0, 1.0);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  std::size_t w, h;
  int maxv;
  in >> w >> h >> maxv;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 4u);
  EXPECT_EQ(h, 4u);
  EXPECT_EQ(maxv, 255);
  in.get();  // newline
  std::vector<unsigned char> data(16);
  in.read(reinterpret_cast<char*>(data.data()), 16);
  EXPECT_EQ(data[5], 255);
  EXPECT_EQ(data[0], 0);
  std::remove(path.c_str());
}

TEST(Image, DivergingPpmEncodesSign) {
  std::vector<double> v = {-1.0, 0.0, 1.0};
  const std::string path = "/tmp/pdtfe_test.ppm";
  write_diverging_ppm(path, v, 3, 1, 1.0);
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::getline(in, line);  // P6
  std::getline(in, line);  // dims
  std::getline(in, line);  // maxval
  std::vector<unsigned char> rgb(9);
  in.read(reinterpret_cast<char*>(rgb.data()), 9);
  // negative → blue dominant, zero → white, positive → red dominant
  EXPECT_LT(rgb[0], rgb[2]);
  EXPECT_EQ(rgb[3], 255);
  EXPECT_EQ(rgb[4], 255);
  EXPECT_EQ(rgb[5], 255);
  EXPECT_GT(rgb[6], rgb[8]);
  std::remove(path.c_str());
}

TEST(Csv, WritesRows) {
  const std::string path = "/tmp/pdtfe_test.csv";
  {
    CsvWriter csv(path);
    csv.header({"a", "b", "c"});
    csv.row(1, 2.5, "x");
  }
  std::ifstream in(path);
  std::string l1, l2;
  std::getline(in, l1);
  std::getline(in, l2);
  EXPECT_EQ(l1, "a,b,c");
  EXPECT_EQ(l2, "1,2.5,x");
  std::remove(path.c_str());
}

// ---------- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicAndUniformish) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Rng r(7);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, NormalMomentsAndPoissonMean) {
  Rng r(8);
  RunningStats n;
  for (int i = 0; i < 20000; ++i) n.add(r.normal());
  EXPECT_NEAR(n.mean(), 0.0, 0.03);
  EXPECT_NEAR(n.stddev(), 1.0, 0.03);
  RunningStats p;
  for (int i = 0; i < 5000; ++i) p.add(static_cast<double>(r.poisson(3.5)));
  EXPECT_NEAR(p.mean(), 3.5, 0.1);
}

TEST(Rng, UniformIndexInRangeAndCoversAll) {
  Rng r(9);
  bool seen[7] = {};
  for (int i = 0; i < 1000; ++i) {
    const auto k = r.uniform_index(7);
    ASSERT_LT(k, 7u);
    seen[k] = true;
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(CommonFieldFlags, ParsesDefaultsAndRejectsNonPositiveGrid) {
  const char* plain[] = {"pdtfe", "render", "--in", "snap.bin"};
  const CommonFieldFlags f =
      parse_common_field_flags(CliArgs(4, const_cast<char**>(plain)), 512L);
  EXPECT_EQ(f.in, "snap.bin");
  EXPECT_EQ(f.grid, 512u);
  EXPECT_EQ(f.method, "march");

  const char* one[] = {"pdtfe", "render", "--grid=1"};
  EXPECT_EQ(
      parse_common_field_flags(CliArgs(3, const_cast<char**>(one)), 512L).grid,
      1u);

  // A negative grid must not wrap through the unsigned cast.
  for (const char* const bad : {"--grid=0", "--grid=-3", "--grid=x"}) {
    const char* argv[] = {"pdtfe", "render", bad};
    try {
      parse_common_field_flags(CliArgs(3, const_cast<char**>(argv)), 512L);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--grid"), std::string::npos);
    }
  }
}

TEST(Timer, ThreadCpuAdvancesUnderWork) {
  ThreadCpuTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(t.seconds(), 0.0);
}

}  // namespace
}  // namespace dtfe
