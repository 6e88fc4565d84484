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
#include "obs/metrics.h"
#include "util/cancel.h"
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

// 64-bit FNV-1a, fed little-endian words.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t word, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

// FNV-1a over num_cells() and every live cell's v/n arrays, in cell-id
// order: equal hashes mean the same mesh with the same cell ids.
std::uint64_t mesh_hash(const Triangulation& tri) {
  Fnv1a f;
  f.mix(tri.num_cells(), 8);
  for (std::size_t i = 0; i < tri.cell_storage_size(); ++i) {
    const auto c = static_cast<CellId>(i);
    if (!tri.cell_alive(c)) continue;
    for (const VertexId v : tri.cell(c).v) f.mix(static_cast<std::uint32_t>(v), 4);
    for (const CellId n : tri.cell(c).n) f.mix(static_cast<std::uint32_t>(n), 4);
  }
  return f.h;
}

// FNV-1a over every input vertex's incident_cell and duplicate_of, in vertex
// order: the parts of a build mesh_hash cannot see. The density star walk
// starts at incident_cell(v), so a retriangulation that keeps the cells but
// hands a vertex a different incident cell changes what reads it.
std::uint64_t vertex_hash(const Triangulation& tri) {
  Fnv1a f;
  f.mix(tri.num_vertices(), 8);
  for (std::size_t i = 0; i < tri.num_vertices(); ++i) {
    const auto v = static_cast<VertexId>(i);
    f.mix(static_cast<std::uint32_t>(tri.incident_cell(v)), 4);
    f.mix(static_cast<std::uint32_t>(tri.duplicate_of(v)), 4);
  }
  return f.h;
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
  // Exact cospherical ties make the largest, least regular cavities: pin the
  // mesh so a change to the cavity wiring shows here first.
  EXPECT_EQ(tri.num_cells(), 576u);
  EXPECT_EQ(mesh_hash(tri), 0x7e2eedb99e010c17ull);
  EXPECT_EQ(vertex_hash(tri), 0x623f61e8ee24b601ull);
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
  EXPECT_EQ(tri.num_cells(), 903u);
  EXPECT_EQ(mesh_hash(tri), 0x4c27dde330da0377ull);
  EXPECT_EQ(vertex_hash(tri), 0xf8785a8cbbaea815ull);
}

TEST(Triangulation, WholeMeshCavityIsWatertight) {
  // ~1000 points on the unit sphere, then the centre, inserted last: the
  // centre lies inside every finite cell's circumsphere, so its cavity is the
  // whole finite mesh and its boundary the whole hull, far beyond the
  // scratch buffers' initial reservations.
  Rng rng(5);
  std::vector<Vec3> pts;
  for (int i = 0; i < 1000; ++i)
    pts.push_back(Vec3{rng.normal(), rng.normal(), rng.normal()}.normalized());
  pts.push_back({0, 0, 0});
  Triangulation::Options opt;
  opt.spatial_sort = false;
  const Triangulation tri(pts, opt);
  tri.validate(/*check_delaunay=*/true);
  const auto centre = static_cast<VertexId>(pts.size() - 1);
  const std::vector<CellId> finite = tri.finite_cells();
  for (const CellId c : finite) ASSERT_GE(tri.index_of(c, centre), 0);
  EXPECT_EQ(finite.size(), tri.infinite_cells().size());
  EXPECT_EQ(tri.num_cells(), 3992u);
  EXPECT_EQ(mesh_hash(tri), 0x11cb8f47072fe4a8ull);
  EXPECT_EQ(vertex_hash(tri), 0x7f2c3334d17b31d4ull);
}

TEST(Triangulation, ClusteredMeshIsPinned) {
  // Pins cell ids and adjacency, not just the Delaunay property: insertion
  // order, walk RNG and cavity retriangulation must all stay unchanged.
  const Triangulation tri(clustered_points());
  EXPECT_EQ(tri.num_cells(), 132379u);
  EXPECT_EQ(mesh_hash(tri), 0xddb93bb9fec9b063ull);
  EXPECT_EQ(vertex_hash(tri), 0x8e4550f393c6fcbfull);
}

TEST(Triangulation, ClusteredPredicateCountsArePinned) {
  // The same build's predicate work, on this thread's counters: every
  // conflict test is one insphere call (or one orient3d for an infinite
  // cell) and every walk face one orient3d, so a change to the walk, the
  // conflict BFS or the per-lane counting of a batched test shows here.
  const std::vector<Vec3> pts = clustered_points();
  reset_predicate_stats();
  const Triangulation tri(pts);
  const PredicateStats s = predicate_stats();
#ifdef NDEBUG
  EXPECT_EQ(s.insphere_calls, 1039500ull);
  EXPECT_EQ(s.orient3d_calls, 275101ull);
#else
  // Debug builds also re-test each located cell (a DTFE_DCHECK in insert):
  // one more conflict test for each of the 19,996 inserts.
  EXPECT_EQ(s.insphere_calls, 1058202ull);
  EXPECT_EQ(s.orient3d_calls, 276395ull);
#endif
  EXPECT_EQ(tri.num_cells(), 132379u);
}

TEST(Triangulation, WorkTalliesReachTheMetricsAlsoFromACancelledBuild) {
  // A build adds its locate, walk-step and conflict-cell tallies to the
  // metrics once, when it ends, and a deadline throw must not lose them.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const std::vector<Vec3> pts = clustered_points();
  reg.reset();
  reg.set_enabled(true);
  { const Triangulation tri(pts); }
  const obs::MetricsSnapshot whole = reg.snapshot();
  reg.reset();
  Triangulation::Options opt;
  const Deadline expired = Deadline::after_ms(0.0);
  opt.deadline = &expired;
  EXPECT_THROW(Triangulation(pts, opt), Error);
  const obs::MetricsSnapshot cancelled = reg.snapshot();
  reg.set_enabled(false);
  reg.reset();

  // Every point but the first simplex's four is located once.
  EXPECT_EQ(whole.counter("dtfe.delaunay.locates"), 19996.0);
  EXPECT_GT(whole.counter("dtfe.delaunay.walk_steps"), 19996.0);
  EXPECT_GT(whole.counter("dtfe.delaunay.conflict_cells"), 19996.0);
  // The deadline is polled every 64 points, so the cancelled build inserted
  // some points first, and reports them.
  const double located = cancelled.counter("dtfe.delaunay.locates");
  EXPECT_GT(located, 0.0);
  EXPECT_LT(located, 64.0);
  EXPECT_GE(cancelled.counter("dtfe.delaunay.walk_steps"), located);
  EXPECT_GE(cancelled.counter("dtfe.delaunay.conflict_cells"), located);
  EXPECT_EQ(cancelled.counter("dtfe.delaunay.constructions"), 0.0);
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
