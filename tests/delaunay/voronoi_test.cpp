#include "delaunay/voronoi.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dtfe/density.h"
#include "util/rng.h"

namespace dtfe {
namespace {

std::vector<Vec3> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pts(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  return pts;
}

TEST(EdgeCellRing, RingCellsShareTheEdgeAndChain) {
  const auto pts = random_points(120, 3);
  Triangulation tri(pts);
  std::vector<VertexId> nbrs;
  std::vector<CellId> scratch, ring;
  for (VertexId v : {5, 40, 99}) {
    tri.vertex_neighbors(v, nbrs, scratch);
    for (const VertexId u : nbrs) {
      const bool closed = edge_cell_ring(tri, v, u, ring);
      ASSERT_GE(ring.size(), closed ? 3u : 1u);
      for (const CellId c : ring) {
        EXPECT_GE(tri.index_of(c, v), 0);
        EXPECT_GE(tri.index_of(c, u), 0);
      }
      if (closed) {
        // consecutive ring cells are adjacent
        for (std::size_t k = 0; k < ring.size(); ++k) {
          const CellId a = ring[k];
          const CellId b = ring[(k + 1) % ring.size()];
          bool adjacent = false;
          for (int f = 0; f < 4; ++f)
            if (tri.cell(a).n[f] == b) adjacent = true;
          EXPECT_TRUE(adjacent);
        }
      }
    }
  }
}

TEST(VoronoiVolumes, JitteredLatticeInteriorCellsAreCorrect) {
  // A jittered lattice (jitter avoids degenerate cospherical ties whose
  // tie-broken duals have ambiguous per-cell volumes): each interior Voronoi
  // volume must be close to s³ and their sum exact within the jitter scale.
  Rng rng(7);
  std::vector<Vec3> pts;
  const double s = 0.2;
  const int n = 8;
  for (int x = 0; x < n; ++x)
    for (int y = 0; y < n; ++y)
      for (int z = 0; z < n; ++z)
        pts.push_back({(x + 0.5) * s + 0.01 * s * rng.normal(),
                       (y + 0.5) * s + 0.01 * s * rng.normal(),
                       (z + 0.5) * s + 0.01 * s * rng.normal()});
  Triangulation tri(pts);
  const auto vol = voronoi_volumes(tri);
  DensityField rho(tri, 1.0);
  int deep = 0;
  for (std::size_t v = 0; v < pts.size(); ++v) {
    if (rho.on_hull(static_cast<VertexId>(v))) {
      EXPECT_TRUE(std::isinf(vol[v]));
      continue;
    }
    // Only DEEP interior sites have lattice-regular cells: cells one layer
    // under the hull legitimately balloon (the unclipped Voronoi diagram has
    // huge near-boundary cells bounded by distant sliver circumcenters).
    const Vec3& p = pts[v];
    const double margin = 2.0 * s;
    if (p.x < margin || p.x > n * s - margin || p.y < margin ||
        p.y > n * s - margin || p.z < margin || p.z > n * s - margin)
      continue;
    ++deep;
    EXPECT_NEAR(vol[v], s * s * s, 0.15 * s * s * s);
  }
  EXPECT_GT(deep, 50);
}

TEST(VoronoiVolumes, BoundedCellsArePositiveAndFiniteOffHull) {
  const auto pts = random_points(300, 9);
  Triangulation tri(pts);
  const auto vol = voronoi_volumes(tri);
  DensityField rho(tri, 1.0);
  for (std::size_t v = 0; v < pts.size(); ++v) {
    const auto vid = static_cast<VertexId>(v);
    if (rho.on_hull(vid)) {
      EXPECT_TRUE(std::isinf(vol[v]));
    } else {
      EXPECT_TRUE(std::isfinite(vol[v]));
      EXPECT_GT(vol[v], 0.0);
    }
  }
}

TEST(VoronoiVolumes, InteriorVolumesPartitionInteriorSpace) {
  // Monte Carlo: sample points in a central sub-box; the fraction whose
  // nearest site is v estimates V_vor(v) ∩ box. Check the aggregate: the sum
  // of interior Voronoi volumes over sites well inside equals the measure of
  // space they claim.
  const auto pts = random_points(400, 11);
  Triangulation tri(pts);
  const auto vol = voronoi_volumes(tri);

  Rng rng(21);
  const int samples = 20000;
  std::vector<int> hits(pts.size(), 0);
  for (int i = 0; i < samples; ++i) {
    const Vec3 q{rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                 rng.uniform(0.2, 0.8)};
    std::size_t best = 0;
    double bd = 1e300;
    for (std::size_t v = 0; v < pts.size(); ++v) {
      const double d = (pts[v] - q).norm2();
      if (d < bd) {
        bd = d;
        best = v;
      }
    }
    ++hits[best];
  }
  const double sample_vol = 0.6 * 0.6 * 0.6;
  // Compare MC volume with exact for well-sampled interior sites.
  int tested = 0;
  for (std::size_t v = 0; v < pts.size(); ++v) {
    if (hits[v] < 100 || std::isinf(vol[v])) continue;
    const double mc = sample_vol * hits[v] / samples;
    // Only trust sites whose cell is fully inside the sampling box: cell
    // diameter heuristic via mc≈vol agreement demanded loosely.
    if (pts[v].x < 0.3 || pts[v].x > 0.7 || pts[v].y < 0.3 ||
        pts[v].y > 0.7 || pts[v].z < 0.3 || pts[v].z > 0.7)
      continue;
    ++tested;
    EXPECT_NEAR(mc, vol[v], 0.35 * vol[v]) << "site " << v;
  }
  EXPECT_GT(tested, 3);
}

TEST(VoronoiVolumes, ZeroOrderDensityConservesMass) {
  // The whole point of the exact volumes: ρ₀ = m/V_vor summed over the deep
  // interior recovers ~1 particle per cell worth of mass when integrated
  // against the cell volumes — i.e. Σ ρ₀·V_vor = Σ m trivially, and the MC
  // column render built on it agrees with the DTFE mass scale (checked end
  // to end in kernels_test); here verify the per-site identity holds with
  // folded duplicate masses.
  auto pts = random_points(200, 13);
  pts.push_back(pts[3]);  // duplicate
  Triangulation tri(pts);
  const auto vol = voronoi_volumes(tri);
  DensityField rho(tri, 1.0);
  for (std::size_t v = 0; v < pts.size(); ++v) {
    const auto vid = static_cast<VertexId>(v);
    if (std::isinf(vol[v]) || tri.is_duplicate(vid)) continue;
    const double density = rho.vertex_mass(vid) / vol[v];
    EXPECT_NEAR(density * vol[v], rho.vertex_mass(vid), 1e-12);
    if (v == 3) {
      EXPECT_DOUBLE_EQ(rho.vertex_mass(vid), 2.0);
    }
  }
}

}  // namespace
}  // namespace dtfe
