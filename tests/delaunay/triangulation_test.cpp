#include "delaunay/triangulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "geometry/predicates.h"
#include "geometry/tetra_math.h"
#include "nbody/generators.h"
#include "util/error.h"
#include "util/rng.h"

namespace dtfe {
namespace {

std::vector<Vec3> random_points(std::size_t n, std::uint64_t seed,
                                double lo = 0.0, double hi = 1.0) {
  Rng rng(seed);
  std::vector<Vec3> pts(n);
  for (auto& p : pts)
    p = {rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi)};
  return pts;
}

// FNV-1a over num_cells() and every live cell's v/n arrays, in cell-id
// order: equal hashes mean the same mesh with the same cell ids.
std::uint64_t mesh_hash(const Triangulation& tri) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t word, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(tri.num_cells(), 8);
  for (std::size_t i = 0; i < tri.cell_storage_size(); ++i) {
    const auto c = static_cast<CellId>(i);
    if (!tri.cell_alive(c)) continue;
    for (const VertexId v : tri.cell(c).v) mix(static_cast<std::uint32_t>(v), 4);
    for (const CellId n : tri.cell(c).n) mix(static_cast<std::uint32_t>(n), 4);
  }
  return h;
}

// 20k points in 8 NFW halos plus background: the micro_delaunay
// BM_DelaunayBuildClustered fixture.
std::vector<Vec3> clustered_points() {
  HaloModelOptions gen;
  gen.n_particles = 20000;
  gen.box_length = 1.0;
  gen.n_halos = 8;
  gen.seed = 3;
  return generate_halo_model(gen).positions;
}

TEST(Triangulation, SingleTetra) {
  const std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  Triangulation tri(pts);
  tri.validate(true);
  EXPECT_EQ(tri.finite_cells().size(), 1u);
  EXPECT_EQ(tri.infinite_cells().size(), 4u);
  EXPECT_EQ(tri.num_unique_vertices(), 4u);
}

TEST(Triangulation, FivePointsInteriorPoint) {
  // 4 corners + strictly interior point → 4 finite tets.
  const std::vector<Vec3> pts = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0.2, 0.2, 0.2}};
  Triangulation tri(pts);
  tri.validate(true);
  EXPECT_EQ(tri.finite_cells().size(), 4u);
}

TEST(Triangulation, FivePointsOutsideHull) {
  const std::vector<Vec3> pts = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {2.0, 2.0, 2.0}};
  Triangulation tri(pts);
  tri.validate(true);
  EXPECT_GE(tri.finite_cells().size(), 2u);
}

TEST(Triangulation, RandomPointsAreDelaunay) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto pts = random_points(120, seed);
    Triangulation tri(pts);
    tri.validate(/*check_delaunay=*/true);
  }
}

TEST(Triangulation, RandomWithoutSpatialSort) {
  auto pts = random_points(120, 9);
  Triangulation::Options opt;
  opt.spatial_sort = false;
  Triangulation tri(pts, opt);
  tri.validate(true);
}

TEST(Triangulation, GridPointsHighlyDegenerate) {
  // Integer grid: massively cospherical/coplanar configurations exercise the
  // exact predicate fallbacks and the coplanar hull-conflict rule.
  std::vector<Vec3> pts;
  for (int x = 0; x < 5; ++x)
    for (int y = 0; y < 5; ++y)
      for (int z = 0; z < 5; ++z) pts.push_back({double(x), double(y), double(z)});
  Triangulation tri(pts);
  tri.validate(/*check_delaunay=*/true);
  EXPECT_EQ(tri.num_unique_vertices(), 125u);
  // The convex hull of the 5³ grid is the cube; total volume of all finite
  // tetras must be 4³.
  double vol = 0.0;
  for (const CellId c : tri.finite_cells()) {
    const auto p = tri.cell_points(c);
    vol += tetra_volume(p[0], p[1], p[2], p[3]);
  }
  EXPECT_NEAR(vol, 64.0, 1e-9);
}

TEST(Triangulation, DuplicatePointsAreMapped) {
  auto pts = random_points(50, 4);
  pts.push_back(pts[10]);
  pts.push_back(pts[20]);
  pts.push_back(pts[10]);
  Triangulation tri(pts);
  tri.validate(true);
  EXPECT_EQ(tri.num_unique_vertices(), 50u);
  EXPECT_TRUE(tri.is_duplicate(50));
  EXPECT_EQ(tri.duplicate_of(50), 10);
  EXPECT_EQ(tri.duplicate_of(51), 20);
  EXPECT_EQ(tri.duplicate_of(52), 10);
  EXPECT_EQ(tri.duplicate_of(5), 5);
}

TEST(Triangulation, CollinearStartThenFull) {
  // The first points are collinear/coplanar: initial simplex search must
  // skip past them.
  std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0},
                           {0, 1, 0}, {1, 2, 0}, {0.3, 0.3, 2.0}};
  Triangulation::Options opt;
  opt.spatial_sort = false;
  Triangulation tri(pts, opt);
  tri.validate(true);
  EXPECT_EQ(tri.num_unique_vertices(), 7u);
}

TEST(Triangulation, ThrowsOnDegenerateInputs) {
  EXPECT_THROW(Triangulation(std::vector<Vec3>{{0, 0, 0}, {1, 1, 1}}), Error);
  // all coplanar
  std::vector<Vec3> plane;
  for (int i = 0; i < 10; ++i)
    plane.push_back({double(i), double(i * i % 7), 0.0});
  EXPECT_THROW(Triangulation{plane}, Error);
  // all collinear
  std::vector<Vec3> line;
  for (int i = 0; i < 8; ++i) line.push_back({double(i), double(2 * i), double(-i)});
  EXPECT_THROW(Triangulation{line}, Error);
  // all identical
  std::vector<Vec3> same(6, Vec3{1, 2, 3});
  EXPECT_THROW(Triangulation{same}, Error);
}

TEST(Triangulation, LocateInsideEveryCell) {
  auto pts = random_points(80, 12);
  Triangulation tri(pts);
  Rng rng(55);
  CellId hint = Triangulation::kNoCell;  // remembering walk: last result
  std::uint64_t walk_rng = 0;
  for (const CellId c : tri.finite_cells()) {
    const auto p = tri.cell_points(c);
    // Random strictly interior point via barycentric mix.
    double w[4] = {rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0),
                   rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)};
    const double ws = w[0] + w[1] + w[2] + w[3];
    Vec3 q{0, 0, 0};
    for (int i = 0; i < 4; ++i) q += p[static_cast<std::size_t>(i)] * (w[i] / ws);
    const auto loc = tri.locate_from(q, hint, walk_rng);
    hint = loc.cell;
    ASSERT_EQ(loc.status, Triangulation::LocateStatus::kInside);
    // q must be inside (or on boundary of) the reported cell.
    const auto lp = tri.cell_points(loc.cell);
    for (int f = 0; f < 4; ++f) {
      EXPECT_LE(orient3d(lp[kTetraFace[f][0]], lp[kTetraFace[f][1]],
                         lp[kTetraFace[f][2]], q),
                0.0);
    }
  }
}

TEST(Triangulation, LocateOutsideHull) {
  auto pts = random_points(60, 13);
  Triangulation tri(pts);
  std::uint64_t walk_rng = 0;
  const auto loc =
      tri.locate_from({5.0, 5.0, 5.0}, Triangulation::kNoCell, walk_rng);
  EXPECT_EQ(loc.status, Triangulation::LocateStatus::kOutsideHull);
  EXPECT_TRUE(tri.is_infinite(loc.cell));
}

TEST(Triangulation, LocateOnVertex) {
  auto pts = random_points(60, 14);
  Triangulation tri(pts);
  std::uint64_t walk_rng = 0;
  for (VertexId v : {0, 17, 59}) {
    const auto loc = tri.locate_from(pts[static_cast<std::size_t>(v)],
                                     Triangulation::kNoCell, walk_rng);
    ASSERT_EQ(loc.status, Triangulation::LocateStatus::kOnVertex);
    EXPECT_EQ(loc.vertex, v);
  }
}

TEST(Triangulation, IncidentCellIsIncident) {
  auto pts = random_points(100, 15);
  Triangulation tri(pts);
  for (std::size_t v = 0; v < pts.size(); ++v) {
    const CellId c = tri.incident_cell(static_cast<VertexId>(v));
    ASSERT_NE(c, Triangulation::kNoCell);
    EXPECT_TRUE(tri.cell_alive(c));
    EXPECT_GE(tri.index_of(c, static_cast<VertexId>(v)), 0);
  }
}

TEST(Triangulation, EulerCharacteristicOnRandomInput) {
  // For a 3D triangulation of a convex region including the infinite vertex,
  // the one-point compactification is a triangulated 3-sphere:
  // V − E + F − T = 0, with V counting the infinite vertex.
  auto pts = random_points(150, 21);
  Triangulation tri(pts);

  std::set<std::pair<VertexId, VertexId>> edges;
  std::set<std::array<VertexId, 3>> faces;
  std::size_t ncells = 0;
  for (std::size_t i = 0; i < tri.cell_storage_size(); ++i) {
    const CellId c = static_cast<CellId>(i);
    if (!tri.cell_alive(c)) continue;
    ++ncells;
    const auto& t = tri.cell(c);
    for (int a = 0; a < 4; ++a)
      for (int b = a + 1; b < 4; ++b)
        edges.insert({std::min(t.v[a], t.v[b]), std::max(t.v[a], t.v[b])});
    for (int f = 0; f < 4; ++f) {
      std::array<VertexId, 3> fv = {t.v[kTetraFace[f][0]],
                                    t.v[kTetraFace[f][1]],
                                    t.v[kTetraFace[f][2]]};
      std::sort(fv.begin(), fv.end());
      faces.insert(fv);
    }
  }
  const std::ptrdiff_t V = static_cast<std::ptrdiff_t>(tri.num_unique_vertices()) + 1;
  const auto E = static_cast<std::ptrdiff_t>(edges.size());
  const auto F = static_cast<std::ptrdiff_t>(faces.size());
  const auto T = static_cast<std::ptrdiff_t>(ncells);
  EXPECT_EQ(V - E + F - T, 0);
  // Each facet is shared by exactly two cells.
  EXPECT_EQ(2 * F, 4 * T);
}

TEST(Triangulation, ClusteredPointsStressTest) {
  // Dense Gaussian blob plus sparse background — the N-body-like regime.
  Rng rng(31);
  std::vector<Vec3> pts;
  for (int i = 0; i < 300; ++i)
    pts.push_back({0.5 + 0.02 * rng.normal(), 0.5 + 0.02 * rng.normal(),
                   0.5 + 0.02 * rng.normal()});
  for (int i = 0; i < 100; ++i)
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  Triangulation tri(pts);
  tri.validate(/*check_delaunay=*/true);
}

TEST(Triangulation, CosphericalShellPoints) {
  // Many points on (near) a common sphere: worst case for insphere ties.
  Rng rng(77);
  std::vector<Vec3> pts;
  for (int i = 0; i < 200; ++i) {
    Vec3 v{rng.normal(), rng.normal(), rng.normal()};
    v = v.normalized();
    // snap to a coarse lattice to force exact cosphericality often
    auto snap = [](double x) { return std::round(x * 64.0) / 64.0; };
    pts.push_back({snap(v.x), snap(v.y), snap(v.z)});
  }
  pts.push_back({0, 0, 0});
  Triangulation tri(pts);
  tri.validate(/*check_delaunay=*/true);
}

TEST(Triangulation, ClusteredMeshIsPinned) {
  // Pins cell ids and adjacency, not just the Delaunay property: insertion
  // order, walk RNG and cavity retriangulation must all stay unchanged.
  const Triangulation tri(clustered_points());
  EXPECT_EQ(tri.num_cells(), 132379u);
  EXPECT_EQ(mesh_hash(tri), 0xddb93bb9fec9b063ull);
}

TEST(Triangulation, ConcurrentBuildsMatchSerial) {
  // Builds share no state: four threads triangulating the same points at
  // once each get the serial mesh.
  const std::vector<Vec3> pts = clustered_points();
  const std::uint64_t serial = mesh_hash(Triangulation(pts));
  std::vector<std::uint64_t> hashes(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < hashes.size(); ++t)
    threads.emplace_back([&, t] { hashes[t] = mesh_hash(Triangulation(pts)); });
  for (auto& th : threads) th.join();
  for (const std::uint64_t h : hashes) EXPECT_EQ(h, serial);
}

}  // namespace
}  // namespace dtfe
