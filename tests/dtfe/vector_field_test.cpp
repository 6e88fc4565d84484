#include "dtfe/vector_field.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "delaunay/hull_projection.h"
#include "dtfe/march_tables.h"
#include "dtfe/marching_kernel.h"
#include "util/rng.h"

namespace dtfe {
namespace {

std::vector<Vec3> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pts(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  return pts;
}

TEST(VectorField, LinearVelocityFieldIsExact) {
  // v(x) = A·x + b sampled at particles: every cell must carry gradient
  // tensor A exactly, hence divergence tr(A) and vorticity from the
  // antisymmetric part.
  const auto pts = random_points(300, 5);
  Triangulation tri(pts);
  const Vec3 A0{0.5, -1.0, 2.0};  // rows of A
  const Vec3 A1{1.5, 0.25, -0.5};
  const Vec3 A2{-2.0, 1.0, 0.75};
  const Vec3 b{3.0, -1.0, 0.5};
  std::vector<Vec3> vel(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    vel[i] = Vec3{A0.dot(pts[i]), A1.dot(pts[i]), A2.dot(pts[i])} + b;

  const VectorField field(tri, vel);
  const double div_expect = A0.x + A1.y + A2.z;
  const Vec3 curl_expect{A2.y - A1.z, A0.z - A2.x, A1.x - A0.y};

  Rng rng(7);
  for (const CellId c : tri.finite_cells()) {
    EXPECT_NEAR(field.divergence(c), div_expect, 1e-6);
    const Vec3 curl = field.vorticity(c);
    EXPECT_NEAR(curl.x, curl_expect.x, 1e-6);
    EXPECT_NEAR(curl.y, curl_expect.y, 1e-6);
    EXPECT_NEAR(curl.z, curl_expect.z, 1e-6);
    // pointwise interpolation is exact
    const auto p = tri.cell_points(c);
    Vec3 q{0, 0, 0};
    double wsum = 0.0;
    for (int s = 0; s < 4; ++s) {
      const double w = rng.uniform(0.1, 1.0);
      q += p[static_cast<std::size_t>(s)] * w;
      wsum += w;
    }
    q = q / wsum;
    const Vec3 v = field.interpolate_in_cell(c, q);
    const Vec3 expect = Vec3{A0.dot(q), A1.dot(q), A2.dot(q)} + b;
    EXPECT_NEAR(v.x, expect.x, 1e-8);
    EXPECT_NEAR(v.y, expect.y, 1e-8);
    EXPECT_NEAR(v.z, expect.z, 1e-8);
  }
}

TEST(VectorField, LosMeanOfLinearFieldIsMidpointValue) {
  // For v_z(x) = α z, the volume-weighted LOS mean over the chord [a,b]
  // equals α·(a+b)/2. The mean is built the way the engine's velocity field
  // builds it — ∫v_z dz / ∫dz per rendered cell, two marching kernels
  // sharing one TetraGeomTable — and checked against the midpoint of the
  // hull chord through each cell center.
  const auto pts = random_points(400, 9);
  Triangulation tri(pts);
  const double alpha = 2.0;
  std::vector<Vec3> vel(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    vel[i] = {0.0, 0.0, alpha * pts[i].z};
  const VectorField field(tri, vel);

  FieldSpec spec;
  spec.origin = {0.3, 0.3};
  spec.length = 0.4;
  spec.resolution = 8;
  const HullProjection hull(tri);
  const auto geom = std::make_shared<const TetraGeomTable>(tri);
  std::vector<double> ones(pts.size(), 1.0);
  const DensityField ufield = DensityField::with_vertex_values(tri, ones);
  const MarchingKernel vk(field.component(2), hull, {}, geom);
  const MarchingKernel uk(ufield, hull, {}, geom);
  const Grid2D integral = vk.render(spec);
  const Grid2D path = uk.render(spec);

  // Reference midpoint: ∫z dz / ∫dz = (a+b)/2 along the same chord.
  std::vector<double> zvals(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) zvals[i] = pts[i].z;
  const DensityField zfield = DensityField::with_vertex_values(tri, zvals);
  const MarchingKernel zk(zfield, hull, {}, geom);

  int inside = 0;
  for (std::size_t iy = 0; iy < 8; ++iy)
    for (std::size_t ix = 0; ix < 8; ++ix) {
      const Vec2 xi = spec.cell_center(ix, iy);
      const double len = uk.integrate_line(xi, -10, 10);
      if (len <= 0.0) continue;
      ++inside;
      ASSERT_GT(path.at(ix, iy), 0.0);
      const double mean = integral.at(ix, iy) / path.at(ix, iy);
      const double zmid = zk.integrate_line(xi, -10, 10) / len;
      EXPECT_NEAR(mean, alpha * zmid, 1e-8);
    }
  EXPECT_GT(inside, 32);
}

TEST(VectorField, RejectsSizeMismatch) {
  const auto pts = random_points(50, 11);
  Triangulation tri(pts);
  std::vector<Vec3> too_few(10);
  EXPECT_THROW(VectorField(tri, too_few), Error);
}

}  // namespace
}  // namespace dtfe
