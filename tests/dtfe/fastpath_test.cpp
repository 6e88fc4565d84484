// Tests for the marching kernel's vertical-line fast path (the AoS vertical
// test and the coefficient-table route the march runs), the Reconstructor
// view against the pipeline's march, and the zero-order kernel's
// warm-started nearest-site search: the optimized code must agree with the
// general-purpose reference implementations.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>

#include "core/reconstructor.h"
#include "dtfe/tess_kernel.h"
#include "engine/field_kernel.h"
#include "geometry/predicates.h"
#include "geometry/ray_tetra.h"
#include "geometry/tetra_coef.h"
#include "nbody/generators.h"
#include "util/rng.h"

namespace dtfe {
namespace {

TEST(VerticalRayTetra, AgreesWithGeneralPluckerOnRandomTetras) {
  Rng rng(3);
  int hits = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    std::array<Vec3, 4> tet;
    for (auto& p : tet) p = {rng.uniform(), rng.uniform(), rng.uniform()};
    if (orient3d(tet[0], tet[1], tet[2], tet[3]) <= 0.0)
      std::swap(tet[2], tet[3]);
    if (orient3d(tet[0], tet[1], tet[2], tet[3]) <= 0.0) continue;
    const Vec2 xi{rng.uniform(), rng.uniform()};
    const Vec3 origin{xi.x, xi.y, 0.0};
    const Vec3 dir{0, 0, 1};
    const auto hv = line_tetra_vertical(xi, tet);
    const auto hp = line_tetra_plucker(
        PluckerLine::from_point_dir(origin, dir), origin, dir, tet);
    ASSERT_EQ(hv.degenerate, hp.degenerate) << iter;
    if (hv.degenerate) continue;
    ASSERT_EQ(hv.intersects, hp.intersects) << iter;
    if (!hv.intersects) continue;
    ++hits;
    EXPECT_EQ(hv.enter_face, hp.enter_face);
    EXPECT_EQ(hv.exit_face, hp.exit_face);
    EXPECT_NEAR(hv.t_enter, hp.t_enter, 1e-9);
    EXPECT_NEAR(hv.t_exit, hp.t_exit, 1e-9);
  }
  EXPECT_GT(hits, 500);
}

TEST(VerticalRayTetra, ExitOnlyMatchesFull) {
  Rng rng(5);
  for (int iter = 0; iter < 3000; ++iter) {
    std::array<Vec3, 4> tet;
    for (auto& p : tet) p = {rng.uniform(), rng.uniform(), rng.uniform()};
    if (orient3d(tet[0], tet[1], tet[2], tet[3]) <= 0.0)
      std::swap(tet[2], tet[3]);
    if (orient3d(tet[0], tet[1], tet[2], tet[3]) <= 0.0) continue;
    const Vec2 xi{rng.uniform(), rng.uniform()};
    const auto full = line_tetra_vertical(xi, tet);
    if (!full.intersects || full.degenerate) continue;
    const auto ve = line_tetra_vertical_exit(xi, tet, full.enter_face);
    ASSERT_TRUE(ve.found);
    EXPECT_EQ(ve.exit_face, full.exit_face);
    EXPECT_NEAR(ve.z_exit, full.t_exit, 1e-12);
  }
}

TEST(VerticalRayTetra, ParallelEdgeIsNotSpuriouslyDegenerate) {
  // A tetra with a vertical edge: lines not THROUGH the edge must classify
  // cleanly even though the parallel edge's product is identically zero.
  const std::array<Vec3, 4> tet = {Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0},
                                   Vec3{0, 0, 1}};  // edge v0-v3 is vertical
  const auto hit = line_tetra_vertical({0.2, 0.2}, tet);
  EXPECT_TRUE(hit.intersects);
  EXPECT_FALSE(hit.degenerate);
  // And a line exactly through the vertical edge is degenerate.
  const auto deg = line_tetra_vertical({0.0, 0.0}, tet);
  EXPECT_TRUE(deg.degenerate);
}

// The coefficient form rounds ~1 ulp away from the direct AoS geometry
// (which is why the AoS path is the ablation oracle, not a second route) —
// but on clean crossings the classification must agree and the heights
// must match to ~1e-12 relative.
TEST(VerticalRayTetra, CoefMatchesAosOracleWithinTolerance) {
  Rng rng(17);
  int compared = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    std::array<Vec3, 4> v;
    for (auto& p : v)
      p = {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0),
           rng.uniform(0.0, 10.0)};
    const VerticalTetraCoef c = make_vertical_coef(v);
    const Vec2 xi{(v[0].x + v[1].x + v[2].x + v[3].x) * 0.25,
                  (v[0].y + v[1].y + v[2].y + v[3].y) * 0.25};
    double sp[6];
    coef_edge_products(c, xi, sp);
    const VerticalSpan span = coef_vertical_span(c, sp);
    const LineTetraHit aos = line_tetra_vertical(xi, v);
    if (span.degenerate || aos.degenerate) continue;
    ASSERT_EQ(span.intersects, aos.intersects) << iter;
    if (!span.intersects) continue;
    ++compared;
    EXPECT_NEAR(span.z_enter, aos.t_enter, 1e-12 * (1.0 + std::abs(aos.t_enter)));
    EXPECT_NEAR(span.z_exit, aos.t_exit, 1e-12 * (1.0 + std::abs(aos.t_exit)));
  }
  EXPECT_GT(compared, 500);
}

TEST(MarchingAblations, AllThreeIntersectionBackendsAgree) {
  HaloModelOptions gen;
  gen.n_particles = 3000;
  gen.box_length = 1.0;
  gen.n_halos = 4;
  gen.seed = 9;
  const auto set = generate_halo_model(gen);
  const Reconstructor recon(set.positions, 1.0);

  MarchingOptions fast;                      // vertical fast path
  MarchingOptions gplucker;
  gplucker.use_general_plucker = true;
  MarchingOptions moller;
  moller.use_moller_trumbore = true;

  const MarchingKernel k1(recon.density(), recon.hull(), fast);
  const MarchingKernel k2(recon.density(), recon.hull(), gplucker);
  const MarchingKernel k3(recon.density(), recon.hull(), moller);
  Rng rng(11);
  for (int iter = 0; iter < 150; ++iter) {
    const Vec2 xi{rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)};
    const double a = k1.integrate_line(xi, 0.0, 1.0);
    const double b = k2.integrate_line(xi, 0.0, 1.0);
    const double c = k3.integrate_line(xi, 0.0, 1.0);
    EXPECT_NEAR(a, b, 1e-7 * (std::abs(a) + 1.0)) << iter;
    EXPECT_NEAR(a, c, 1e-6 * (std::abs(a) + 1.0)) << iter;
  }

  // Render level: the table route against the general-Plücker oracle with
  // jittered Monte Carlo samples and with the fixed-z-plane integral.
  FieldSpec spec;
  spec.origin = {0.1, 0.1};
  spec.length = 0.8;
  spec.resolution = 16;
  spec.zmin = 0.0;
  spec.zmax = 1.0;
  for (const auto& [mc, nz] : {std::pair{4, 0}, std::pair{1, 32}}) {
    fast.monte_carlo_samples = gplucker.monte_carlo_samples = mc;
    fast.z_samples = gplucker.z_samples = nz;
    const Grid2D ga =
        MarchingKernel(recon.density(), recon.hull(), fast).render(spec);
    const Grid2D gb =
        MarchingKernel(recon.density(), recon.hull(), gplucker).render(spec);
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t i = 0; i < ga.size(); ++i)
      EXPECT_NEAR(ga.flat(i), gb.flat(i), 1e-7 * (std::abs(ga.flat(i)) + 1.0))
          << "cell " << i << " mc " << mc << " z_samples " << nz;
  }
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Reconstructor is a view over one FieldCube: its marching render and line
// integral are exactly what the pipeline's march kernel computes over a
// cube of the same points, in every sampling mode.
TEST(Reconstructor, RendersExactlyWhatThePipelineRenders) {
  HaloModelOptions gen;
  gen.n_particles = 3000;
  gen.box_length = 1.0;
  gen.n_halos = 4;
  gen.seed = 9;
  const auto set = generate_halo_model(gen);
  const Reconstructor recon(set.positions, 1.0);
  const FieldCube cube(set.positions, 1.0);

  FieldSpec spec;
  spec.origin = {0.1, 0.1};
  spec.length = 0.8;
  spec.resolution = 16;
  spec.zmin = 0.0;
  spec.zmax = 1.0;
  MarchingOptions mc, adaptive, planes;
  mc.monte_carlo_samples = 4;
  adaptive.adaptive_max_depth = 2;
  planes.z_samples = 16;
  for (const MarchingOptions& opt :
       {MarchingOptions{}, mc, adaptive, planes}) {
    engine::KernelOptions kopt;
    kopt.marching = opt;
    engine::KernelStats stats;
    const FieldGrid pipeline =
        engine::KernelRegistry::builtin()
            .create("march", kopt)
            ->render(cube, engine::RenderRequest{spec}, nullptr, stats);
    const Grid2D view = recon.surface_density(spec, opt);
    EXPECT_TRUE(bitwise_equal(view.values(), pipeline.plane(0).values()))
        << "mc " << opt.monte_carlo_samples << " adaptive "
        << opt.adaptive_max_depth << " z_samples " << opt.z_samples;
  }

  const MarchingKernel line(cube);
  Rng rng(23);
  for (int iter = 0; iter < 100; ++iter) {
    const double x = rng.uniform(0.1, 0.9), y = rng.uniform(0.1, 0.9);
    const double a = recon.integrate_los(x, y, 0.0, 1.0);
    const double b = line.integrate_line({x, y}, 0.0, 1.0);
    EXPECT_TRUE(bitwise_equal({&a, 1}, {&b, 1})) << iter;
  }
}

TEST(TessWarmStart, NearestSiteFromSeedMatchesBruteForce) {
  const auto pts = generate_uniform(800, 1.0, 31).positions;
  Triangulation tri(pts);
  DensityField rho(tri, 1.0);
  TessKernel tess(rho);
  // Trigger adjacency construction through a tiny render.
  FieldSpec spec;
  spec.origin = {0.4, 0.4};
  spec.length = 0.2;
  spec.resolution = 2;
  spec.zmin = 0.4;
  spec.zmax = 0.6;
  (void)tess.render(spec);

  Rng rng(13);
  for (int iter = 0; iter < 400; ++iter) {
    const Vec3 q{rng.uniform(), rng.uniform(), rng.uniform()};
    const auto seed =
        static_cast<VertexId>(rng.uniform_index(pts.size()));  // arbitrary
    const VertexId got = tess.nearest_site_from(q, seed);
    VertexId best = 0;
    double bd = 1e300;
    for (std::size_t v = 0; v < pts.size(); ++v) {
      const double d = (pts[v] - q).norm2();
      if (d < bd) {
        bd = d;
        best = static_cast<VertexId>(v);
      }
    }
    EXPECT_EQ(got, best) << "iter " << iter;
  }
}

}  // namespace
}  // namespace dtfe
