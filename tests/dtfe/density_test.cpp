#include "dtfe/density.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dtfe/march_tables.h"
#include "geometry/tetra_math.h"
#include "util/rng.h"

namespace dtfe {
namespace {

std::vector<Vec3> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pts(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  return pts;
}

TEST(DensityField, MassConservation) {
  // ∫ρ̂ dV over the whole mesh equals the total mass EXACTLY (up to fp
  // roundoff): the (d+1) normalization of Eq. 2 is precisely what makes the
  // linear interpolant integrate to Σm. The integral over one tetra is
  // V·mean(vertex densities).
  const auto pts = random_points(400, 3);
  Triangulation tri(pts);
  const double m = 2.5;
  DensityField rho(tri, m);

  double integral = 0.0;
  for (const CellId c : tri.finite_cells()) {
    const auto p = tri.cell_points(c);
    const auto& t = tri.cell(c);
    const double vol = tetra_volume(p[0], p[1], p[2], p[3]);
    double mean = 0.0;
    for (int s = 0; s < 4; ++s) mean += rho.vertex_density(t.v[s]);
    integral += vol * mean / 4.0;
  }
  EXPECT_NEAR(integral, m * 400.0, 1e-8 * m * 400.0);
}

TEST(DensityField, PerParticleMassesAndDuplicates) {
  auto pts = random_points(100, 4);
  pts.push_back(pts[7]);  // duplicate carrying extra mass
  std::vector<double> masses(pts.size(), 1.0);
  masses.back() = 3.0;
  Triangulation tri(pts);
  DensityField rho(tri, masses);

  // Vertex 7 absorbed the duplicate's mass (1+3) while the all-ones baseline
  // folds 1+1 at the same site: same Voronoi volume, so the ratio is 2.
  DensityField rho1(tri, std::vector<double>(pts.size(), 1.0));
  EXPECT_NEAR(rho.vertex_density(7), 2.0 * rho1.vertex_density(7), 1e-9);
  // And the duplicate vertex aliases the representative.
  EXPECT_EQ(rho.vertex_density(static_cast<VertexId>(pts.size() - 1)),
            rho.vertex_density(7));
}

TEST(DensityField, UniformLatticeInteriorDensity) {
  // Uniform lattice with spacing s: interior contiguous volumes must average
  // 4s³, giving ρ = m/s³ on average (exact per-vertex values depend on the
  // degenerate tie-break, so test the mean over interior vertices).
  std::vector<Vec3> pts;
  const double s = 0.25;
  for (int x = 0; x < 7; ++x)
    for (int y = 0; y < 7; ++y)
      for (int z = 0; z < 7; ++z) pts.push_back({x * s, y * s, z * s});
  Triangulation tri(pts);
  DensityField rho(tri, 1.0);

  double sum = 0.0;
  int count = 0;
  for (std::size_t v = 0; v < pts.size(); ++v) {
    if (rho.on_hull(static_cast<VertexId>(v))) continue;
    sum += rho.contiguous_volume(static_cast<VertexId>(v));
    ++count;
  }
  ASSERT_EQ(count, 125);  // 5³ interior vertices
  EXPECT_NEAR(sum / count, 4.0 * s * s * s, 1e-12);
}

TEST(DensityField, HullFlags) {
  const auto pts = random_points(200, 9);
  Triangulation tri(pts);
  DensityField rho(tri, 1.0);
  int hull = 0;
  for (std::size_t v = 0; v < pts.size(); ++v)
    if (rho.on_hull(static_cast<VertexId>(v))) ++hull;
  EXPECT_GT(hull, 4);
  EXPECT_LT(hull, 200);
}

TEST(DensityField, GradientReproducesLinearField) {
  // With vertex values from a global linear function, every cell gradient
  // must equal the function's gradient and interpolation must be exact.
  const auto pts = random_points(150, 10);
  Triangulation tri(pts);
  const Vec3 g{1.5, -2.0, 0.75};
  const double c0 = 3.0;
  std::vector<double> vals(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) vals[i] = c0 + g.dot(pts[i]);
  const DensityField f = DensityField::with_vertex_values(tri, vals);

  Rng rng(77);
  for (const CellId c : tri.finite_cells()) {
    const Vec3 grad = f.cell_gradient(c);
    EXPECT_NEAR(grad.x, g.x, 1e-6);
    EXPECT_NEAR(grad.y, g.y, 1e-6);
    EXPECT_NEAR(grad.z, g.z, 1e-6);
    // interpolate at a random interior point
    const auto p = tri.cell_points(c);
    double w[4] = {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    const double ws = w[0] + w[1] + w[2] + w[3];
    Vec3 q{0, 0, 0};
    for (int i = 0; i < 4; ++i) q += p[static_cast<std::size_t>(i)] * (w[i] / ws);
    EXPECT_NEAR(f.interpolate_in_cell(c, q), c0 + g.dot(q), 1e-8);
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The marching kernel's FieldCoefTable reads the field's own interpolant
// rows: for every cell it evaluates exactly the row the field built, and the
// row's offset is ((ρ0 − gx·x0) − gy·y0) − gz·z0 bit for bit.
TEST(DensityField, CoefTableReadsTheFieldRows) {
  const auto pts = random_points(400, 21);
  Triangulation tri(pts);
  const DensityField rho(tri, 1.0);
  const FieldCoefTable table(rho);
  const auto rows = rho.cell_rows();
  ASSERT_EQ(rows.size(), tri.cell_storage_size());
  Rng rng(5);
  std::size_t finite = 0;
  for (const CellId c : tri.finite_cells()) {
    ++finite;
    const CellInterpolant& r = rows[static_cast<std::size_t>(c)];
    const Vec3& g = rho.cell_gradient(c);
    EXPECT_EQ(&g, &r.g);
    const VertexId v0 = tri.cell(c).v[0];
    const Vec3& x0 = tri.point(v0);
    EXPECT_TRUE(same_bits(
        r.d0, ((rho.vertex_density(v0) - g.x * x0.x) - g.y * x0.y) - g.z * x0.z));
    const double x = rng.uniform(), y = rng.uniform(), z = rng.uniform();
    EXPECT_TRUE(same_bits(table.value(c, x, y, z),
                          ((r.d0 + g.x * x) + g.y * y) + g.z * z));
    EXPECT_TRUE(same_bits(table.column_base(c, x, y), (r.d0 + g.x * x) + g.y * y));
    EXPECT_TRUE(same_bits(table.gz(c), g.z));
    // Same linear function as the (p − x0) oracle form, up to rounding.
    const Vec3 q = x0 + Vec3{1e-3, 2e-3, -1e-3};
    EXPECT_NEAR(table.value(c, q.x, q.y, q.z), rho.interpolate_in_cell(c, q),
                1e-9 * (1.0 + std::abs(rho.interpolate_in_cell(c, q))));
  }
  EXPECT_GT(finite, 1000u);
}

TEST(DensityField, DensityPositive) {
  const auto pts = random_points(300, 12);
  Triangulation tri(pts);
  DensityField rho(tri, 1.0);
  for (std::size_t v = 0; v < pts.size(); ++v) {
    EXPECT_GT(rho.vertex_density(static_cast<VertexId>(v)), 0.0);
    EXPECT_GT(rho.contiguous_volume(static_cast<VertexId>(v)), 0.0);
  }
}

}  // namespace
}  // namespace dtfe
