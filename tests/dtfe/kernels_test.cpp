#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "delaunay/hull_projection.h"
#include "dtfe/density.h"
#include "dtfe/marching_kernel.h"
#include "dtfe/tess_kernel.h"
#include "dtfe/walking_kernel.h"
#include "geometry/tetra_math.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace dtfe {
namespace {

std::vector<Vec3> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pts(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  return pts;
}

struct Fixture {
  std::vector<Vec3> pts;
  Triangulation tri;
  DensityField rho;
  HullProjection hull;

  Fixture(std::size_t n, std::uint64_t seed, double mass = 1.0)
      : pts(random_points(n, seed)), tri(pts), rho(tri, mass), hull(tri) {}
};

TEST(HullProjection, FirstCellContainsTheLine) {
  Fixture fx(200, 5);
  Rng rng(31);
  int inside = 0;
  for (int iter = 0; iter < 500; ++iter) {
    const Vec2 xi{rng.uniform(), rng.uniform()};
    const CellId c = fx.hull.first_cell(xi);
    if (c == Triangulation::kNoCell) continue;
    ++inside;
    ASSERT_FALSE(fx.tri.is_infinite(c));
    // The vertical line through ξ must cross this cell (or touch its
    // boundary — count clean hits).
    const Vec3 origin{xi.x, xi.y, 0.0};
    const Vec3 dir{0, 0, 1};
    const auto hit = line_tetra_plucker(
        PluckerLine::from_point_dir(origin, dir), origin, dir,
        fx.tri.cell_points(c));
    EXPECT_TRUE(hit.intersects || hit.degenerate);
  }
  EXPECT_GT(inside, 300);  // most of [0,1]² is inside the hull silhouette
}

TEST(HullProjection, OutsideSilhouetteReturnsNoCell) {
  Fixture fx(100, 6);
  EXPECT_EQ(fx.hull.first_cell({5.0, 5.0}), Triangulation::kNoCell);
  EXPECT_EQ(fx.hull.first_cell({-3.0, 0.5}), Triangulation::kNoCell);
}

TEST(MarchingKernel, ExactOnGlobalLinearField) {
  // Vertex values from ρ(x) = c0 + g·x: the DTFE interpolant is exactly that
  // linear function inside the hull, so the LOS integral has a closed form:
  // ∫ρ dz over [a,b] = (c0 + gx·ξx + gy·ξy + gz·(a+b)/2)(b−a) where [a,b] is
  // the line's intersection with the hull. Verified midpoint optimality.
  const auto pts = random_points(300, 7);
  Triangulation tri(pts);
  const Vec3 g{0.4, -0.3, 1.1};
  const double c0 = 2.0;
  std::vector<double> vals(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) vals[i] = c0 + g.dot(pts[i]);
  const DensityField f = DensityField::with_vertex_values(tri, vals);
  HullProjection hull(tri);
  MarchingKernel kernel(f, hull);

  Rng rng(41);
  int tested = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Vec2 xi{rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)};
    // Reference: find hull entry/exit of the vertical line by brute force
    // over all finite cells.
    double a = 1e300, b = -1e300;
    const Vec3 origin{xi.x, xi.y, 0.0};
    const Vec3 dir{0, 0, 1};
    const PluckerLine line = PluckerLine::from_point_dir(origin, dir);
    bool degenerate = false;
    for (const CellId c : tri.finite_cells()) {
      const auto hit = line_tetra_plucker(line, origin, dir, tri.cell_points(c));
      if (hit.degenerate) degenerate = true;
      if (hit.intersects) {
        a = std::min(a, hit.t_enter);
        b = std::max(b, hit.t_exit);
      }
    }
    if (degenerate || b <= a) continue;
    ++tested;
    const double expect = (c0 + g.x * xi.x + g.y * xi.y + g.z * 0.5 * (a + b)) * (b - a);
    const double got = kernel.integrate_line(xi, -1e30, 1e30);
    EXPECT_NEAR(got, expect, 1e-9 * std::abs(expect) + 1e-10) << "iter " << iter;
  }
  EXPECT_GT(tested, 100);
}

TEST(MarchingKernel, SingleTetraAnalytic) {
  // One tetra with prescribed vertex values; integrate through the middle.
  const std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  Triangulation tri(pts);
  // Constant field: integral = value × chord length.
  const DensityField f =
      DensityField::with_vertex_values(tri, std::vector<double>{3.0, 3.0, 3.0, 3.0});
  HullProjection hull(tri);
  MarchingKernel kernel(f, hull);
  // Vertical chord at (0.2, 0.2): from z=0 to z=0.6.
  EXPECT_NEAR(kernel.integrate_line({0.2, 0.2}, -10, 10), 3.0 * 0.6, 1e-12);
  // Clamped to [0.1, 0.3]: length 0.2.
  EXPECT_NEAR(kernel.integrate_line({0.2, 0.2}, 0.1, 0.3), 3.0 * 0.2, 1e-12);
  // Entirely outside the z-range: zero.
  EXPECT_EQ(kernel.integrate_line({0.2, 0.2}, 2.0, 3.0), 0.0);
}

TEST(MarchingKernel, MassRecovery) {
  // ∫∫ Σ̂ dA = total mass (up to x/y discretization): render a grid covering
  // the whole hull and sum.
  Fixture fx(500, 8);
  MarchingOptions opt;
  opt.monte_carlo_samples = 4;
  MarchingKernel kernel(fx.rho, fx.hull, opt);
  FieldSpec spec;
  spec.origin = {fx.hull.lo().x, fx.hull.lo().y};
  spec.length = std::max(fx.hull.hi().x - fx.hull.lo().x,
                         fx.hull.hi().y - fx.hull.lo().y);
  spec.resolution = 96;
  const Grid2D grid = kernel.render(spec);
  const double cell_area = spec.cell_size() * spec.cell_size();
  const double mass = grid.sum() * cell_area;
  EXPECT_NEAR(mass, 500.0, 0.05 * 500.0);
  EXPECT_EQ(kernel.stats().failed_cells, 0u);
  EXPECT_GT(kernel.stats().tetra_crossed, 0u);
}

TEST(MarchingKernel, DegenerateRaysThroughVertices) {
  // Aim lines exactly at projected vertices: every march must recover via
  // Perturb and produce a finite, positive-ish integral.
  Fixture fx(150, 9);
  MarchingKernel kernel(fx.rho, fx.hull);
  int recovered = 0;
  for (std::size_t v = 0; v < 40; ++v) {
    const Vec3& p = fx.pts[v];
    const double sigma = kernel.integrate_line({p.x, p.y}, -1e30, 1e30);
    EXPECT_TRUE(std::isfinite(sigma));
    if (sigma > 0.0) ++recovered;
  }
  EXPECT_GE(recovered, 38);  // hull-vertex rays may legitimately graze out
}

TEST(MarchingKernel, MollerAblationAgrees) {
  Fixture fx(200, 10);
  MarchingKernel plucker(fx.rho, fx.hull);
  MarchingOptions mopt;
  mopt.use_moller_trumbore = true;
  MarchingKernel moller(fx.rho, fx.hull, mopt);
  Rng rng(13);
  for (int iter = 0; iter < 100; ++iter) {
    const Vec2 xi{rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)};
    const double a = plucker.integrate_line(xi, -1e30, 1e30);
    const double b = moller.integrate_line(xi, -1e30, 1e30);
    EXPECT_NEAR(a, b, 1e-6 * (std::abs(a) + 1.0));
  }
}

TEST(WalkingKernel, ConvergesToMarching) {
  // The 3D-grid walking estimate converges to the exact marching integral as
  // the z-resolution increases.
  Fixture fx(300, 11);
  MarchingKernel marching(fx.rho, fx.hull);
  FieldSpec spec;
  spec.origin = {0.25, 0.25};
  spec.length = 0.5;
  spec.resolution = 12;
  spec.zmin = 0.0;
  spec.zmax = 1.0;
  const Grid2D exact = marching.render(spec);

  WalkingOptions wopt;
  wopt.z_resolution = 1024;
  WalkingKernel walking(fx.rho, wopt);
  const Grid2D approx = walking.render(spec);

  double rel_err_sum = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    rel_err_sum += std::abs(approx.flat(i) - exact.flat(i)) /
                   (std::abs(exact.flat(i)) + 1e-12);
  }
  EXPECT_LT(rel_err_sum / static_cast<double>(exact.size()), 0.02);
}

TEST(WalkingKernel, MonteCarloVariantIsUnbiasedish) {
  Fixture fx(300, 14);
  FieldSpec spec;
  spec.origin = {0.3, 0.3};
  spec.length = 0.4;
  spec.resolution = 8;
  spec.zmin = 0.1;
  spec.zmax = 0.9;

  WalkingOptions det;
  det.z_resolution = 256;
  WalkingOptions mc;
  mc.z_resolution = 256;
  mc.monte_carlo_samples = 4;
  const Grid2D a = WalkingKernel(fx.rho, det).render(spec);
  const Grid2D b = WalkingKernel(fx.rho, mc).render(spec);
  // MC jitters within cells: same field, so grids agree to sampling noise.
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(b.flat(i), a.flat(i), 0.5 * std::abs(a.flat(i)) + 1e-9);
}

TEST(TessKernel, NearestSiteMatchesBruteForce) {
  Fixture fx(250, 15);
  TessKernel tess(fx.rho);
  Rng rng(99);
  std::uint64_t walk_rng = 1;
  for (int iter = 0; iter < 300; ++iter) {
    const Vec3 q{rng.uniform(), rng.uniform(), rng.uniform()};
    const VertexId got = tess.nearest_site(q, Triangulation::kNoCell, walk_rng);
    // brute force
    VertexId best = 0;
    double bd = 1e300;
    for (std::size_t v = 0; v < fx.pts.size(); ++v) {
      const double d = (fx.pts[v] - q).norm2();
      if (d < bd) {
        bd = d;
        best = static_cast<VertexId>(v);
      }
    }
    EXPECT_EQ(got, best) << "iter " << iter;
  }
}

TEST(TessKernel, RenderRoughlyMatchesDtfeMass) {
  // Zero- and first-order estimators must agree on the aggregate mass scale.
  Fixture fx(400, 16);
  FieldSpec spec;
  spec.origin = {0.1, 0.1};
  spec.length = 0.8;
  spec.resolution = 32;
  spec.zmin = 0.1;
  spec.zmax = 0.9;

  TessOptions topt;
  topt.z_resolution = 64;
  const Grid2D tess = TessKernel(fx.rho, topt).render(spec);
  MarchingKernel marching(fx.rho, fx.hull);
  const Grid2D dtfe = marching.render(spec);

  const double area = spec.cell_size() * spec.cell_size();
  const double m1 = tess.sum() * area;
  const double m2 = dtfe.sum() * area;
  EXPECT_NEAR(m1, m2, 0.35 * m2);
}

TEST(MarchingKernel, StatsPopulated) {
  Fixture fx(150, 17);
  MarchingKernel kernel(fx.rho, fx.hull);
  FieldSpec spec;
  spec.origin = {0.2, 0.2};
  spec.length = 0.6;
  spec.resolution = 16;
  (void)kernel.render(spec);
  const auto& st = kernel.stats();
  EXPECT_EQ(st.cells_rendered, 256u);
  EXPECT_GT(st.tetra_crossed, 256u);
  EXPECT_FALSE(st.thread_seconds.empty());
}

TEST(PixelTiles, VisitEveryPixelOnceInTileOrder) {
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {1, 1}, {7, 9}, {9, 7}, {16, 8}, {37, 37}};
  for (const auto& [nx, ny] : sizes) {
    const PixelTiles tiles(nx, ny);
    std::vector<int> visits(nx * ny, 0);
    for (std::size_t t = 0; t < tiles.count(); ++t) {
      std::size_t first_x = nx, first_y = ny;
      tiles.for_each_pixel(t, [&](std::size_t ix, std::size_t iy) {
        ASSERT_LT(ix, nx);
        ASSERT_LT(iy, ny);
        if (first_x == nx) first_x = ix, first_y = iy;
        // Every pixel of a tile lies in the same kSide×kSide block.
        EXPECT_EQ(ix / PixelTiles::kSide, first_x / PixelTiles::kSide);
        EXPECT_EQ(iy / PixelTiles::kSide, first_y / PixelTiles::kSide);
        ++visits[iy * nx + ix];
      });
      EXPECT_LT(first_x, nx) << "empty tile " << t;
    }
    for (std::size_t i = 0; i < visits.size(); ++i)
      EXPECT_EQ(visits[i], 1) << nx << "x" << ny << " pixel " << i;
  }
}

// Position-weighted grid sum: a value rendered into the wrong pixel moves it.
double weighted_checksum(const Grid2D& g) {
  double s = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i)
    s += g.flat(i) * static_cast<double>(i + 1);
  return s;
}

// A grid over the unit cube's footprint that reaches past the hull
// silhouette on every side, so edge pixels also march empty rays.
FieldSpec unit_cube_spec(std::size_t resolution) {
  FieldSpec spec;
  spec.origin = {-0.05, -0.05};
  spec.length = 1.1;
  spec.resolution = resolution;
  spec.zmin = 0.0;
  spec.zmax = 1.0;
  return spec;
}

TEST(MarchingKernel, RenderIsPinnedAcrossThreadsAndRaggedTiles) {
  // Grids of 1, 7, 9 and 37 pixels make ragged edge tiles; Monte Carlo > 1
  // draws from the per-pixel RNG, so a pixel bound to the wrong ray seed
  // changes the checksum. The pins were recorded from the row-by-row loop
  // that preceded the tiled one.
  Fixture fx(400, 21);
  MarchingOptions mc, adaptive, zs;
  mc.monte_carlo_samples = 4;
  adaptive.adaptive_max_depth = 2;
  zs.z_samples = 16;
  const MarchingOptions modes[] = {MarchingOptions{}, mc, adaptive, zs};
  const std::size_t sizes[] = {1, 7, 9, 37};
  const double pinned[4][4] = {
      {0x1.e3d4c28e61a0ap+8, 0x1.aa47fb1d7725ep+18, 0x1.f29ef7de133a2p+19,
       0x1.21c2df81ef276p+28},
      {0x1.8d9b405f449ep+8, 0x1.6fe437711037dp+18, 0x1.03dd922ece8f8p+20,
       0x1.214f09547298bp+28},
      {0x1.7433a8065e65fp+8, 0x1.7eeacf4673198p+18, 0x1.0615e6eca72dp+20,
       0x1.20c0782a179c9p+28},
      {0x1.ea01eb69afb6cp+8, 0x1.ae97dd5c3e2c9p+18, 0x1.fadb41fe001d7p+19,
       0x1.255416c4b00abp+28},
  };
  const int saved = omp_get_max_threads();
  for (std::size_t m = 0; m < 4; ++m) {
    const MarchingKernel kernel(fx.rho, fx.hull, modes[m]);
    for (std::size_t g = 0; g < 4; ++g) {
      const FieldSpec spec = unit_cube_spec(sizes[g]);
      omp_set_num_threads(1);
      const Grid2D one = kernel.render(spec);
      omp_set_num_threads(4);
      const Grid2D four = kernel.render(spec);
      ASSERT_EQ(one.size(), four.size());
      for (std::size_t i = 0; i < one.size(); ++i)
        ASSERT_EQ(one.flat(i), four.flat(i))
            << "mode " << m << " grid " << sizes[g] << " pixel " << i;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%a", weighted_checksum(one));
      EXPECT_EQ(weighted_checksum(one), pinned[m][g])
          << "mode " << m << " grid " << sizes[g] << " checksum " << buf;
    }
  }
  omp_set_num_threads(saved);
}

TEST(MarchingKernel, ExpiredDeadlineCancelsTheRender) {
  Fixture fx(200, 25);
  const FieldSpec spec = unit_cube_spec(37);
  const Deadline expired = Deadline::after_ms(0);
  const Deadline unarmed;
  MarchingOptions cancel_opt, plain_opt;
  cancel_opt.deadline = &expired;
  plain_opt.deadline = &unarmed;
  const MarchingKernel cancelling(fx.rho, fx.hull, cancel_opt);
  const MarchingKernel plain(fx.rho, fx.hull, plain_opt);
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    try {
      (void)cancelling.render(spec);
      ADD_FAILURE() << "expired deadline did not cancel (" << threads
                    << " threads)";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
          << e.what();
    }
    EXPECT_NO_THROW((void)plain.render(spec)) << threads << " threads";
  }
  omp_set_num_threads(saved);
}

TEST(MarchingKernel, AdaptiveRenderCountsEmptyRays) {
  // The grid reaches past the hull silhouette, so some refined rays leave
  // it; the adaptive path must count them like the plain path does.
  Fixture fx(200, 23);
  MarchingOptions opt;
  opt.adaptive_max_depth = 2;
  const MarchingKernel kernel(fx.rho, fx.hull, opt);
  FieldSpec spec;
  spec.origin = {-0.5, -0.5};
  spec.length = 2.0;
  spec.resolution = 16;
  (void)kernel.render(spec);
  const MarchingStats& st = kernel.stats();
  EXPECT_GT(st.empty_cells, 0u);
  EXPECT_LT(st.empty_cells, st.rays_marched);
}

}  // namespace
}  // namespace dtfe
