// Delaunay construction and point-location ablations: spatial sort on/off,
// uniform vs clustered input, walk hint strategies.
#include <benchmark/benchmark.h>

#include "delaunay/hull_projection.h"
#include "delaunay/triangulation.h"
#include "nbody/generators.h"
#include "util/rng.h"

namespace dtfe {
namespace {

void BM_DelaunayBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool sorted = state.range(1) != 0;
  Rng rng(1);
  std::vector<Vec3> pts(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  TriangulationOptions opt;
  opt.spatial_sort = sorted;
  for (auto _ : state) {
    Triangulation tri(pts, opt);
    benchmark::DoNotOptimize(tri.num_cells());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DelaunayBuild)
    ->Args({2000, 1})
    ->Args({2000, 0})
    ->Args({20000, 1})
    ->Args({20000, 0})
    ->Unit(benchmark::kMillisecond);

void BM_DelaunayBuildClustered(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  HaloModelOptions gen;
  gen.n_particles = n;
  gen.box_length = 1.0;
  gen.n_halos = 8;
  gen.seed = 3;
  const auto set = generate_halo_model(gen);
  for (auto _ : state) {
    Triangulation tri(set.positions);
    benchmark::DoNotOptimize(tri.num_cells());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DelaunayBuildClustered)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_DelaunayInsertScratch(benchmark::State& state) {
  // A/B for the insertion fast path: reusing the conflict-BFS scratch and
  // cavity boundary buffers across insertions vs per-insert allocation.
  // Reports inserts/sec and allocations-per-insert (container regrowth
  // events counted by the triangulation itself).
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool reuse = state.range(1) != 0;
  Rng rng(1);
  std::vector<Vec3> pts(n);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  TriangulationOptions opt;
  opt.reuse_insert_scratch = reuse;
  std::size_t alloc_events = 0;
  for (auto _ : state) {
    Triangulation tri(pts, opt);
    benchmark::DoNotOptimize(tri.num_cells());
    alloc_events = tri.alloc_events();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["allocs_per_insert"] =
      static_cast<double>(alloc_events) / static_cast<double>(n);
}
BENCHMARK(BM_DelaunayInsertScratch)
    ->Args({20000, 1})
    ->Args({20000, 0})
    ->Unit(benchmark::kMillisecond);

void BM_LocateWithHints(benchmark::State& state) {
  // Coherent queries (a z-column walk) with remembering hints.
  Rng rng(5);
  std::vector<Vec3> pts(20000);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  Triangulation tri(pts);
  std::uint64_t wrng = 1;
  double z = 0.0;
  CellId hint = Triangulation::kNoCell;
  for (auto _ : state) {
    z += 1.0 / 4096.0;
    if (z >= 1.0) z = 0.0;
    const auto loc = tri.locate_from({0.5, 0.5, z}, hint, wrng);
    hint = loc.cell;
    benchmark::DoNotOptimize(loc.cell);
  }
}
BENCHMARK(BM_LocateWithHints);

void BM_LocateCold(benchmark::State& state) {
  // Random queries without hints: full walks from an arbitrary cell.
  Rng rng(5);
  std::vector<Vec3> pts(20000);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  Triangulation tri(pts);
  std::uint64_t wrng = 1;
  Rng qrng(9);
  for (auto _ : state) {
    const Vec3 q{qrng.uniform(), qrng.uniform(), qrng.uniform()};
    benchmark::DoNotOptimize(
        tri.locate_from(q, Triangulation::kNoCell, wrng).cell);
  }
}
BENCHMARK(BM_LocateCold);

void BM_HullLocatorBuckets(benchmark::State& state) {
  Rng rng(7);
  std::vector<Vec3> pts(20000);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  static const Triangulation tri(pts);
  static const HullProjection hull(tri);
  Rng qrng(3);
  for (auto _ : state) {
    const Vec2 xi{qrng.uniform(), qrng.uniform()};
    benchmark::DoNotOptimize(hull.first_entry(xi).cell);
  }
}
BENCHMARK(BM_HullLocatorBuckets);

}  // namespace
}  // namespace dtfe

BENCHMARK_MAIN();
