// Delaunay construction and point-location ablations: spatial sort on/off,
// uniform vs clustered input, concurrent builds, walk hint strategies.
#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "delaunay/hull_projection.h"
#include "delaunay/triangulation.h"
#include "geometry/predicates.h"
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

std::vector<Vec3> clustered_points(std::size_t n) {
  HaloModelOptions gen;
  gen.n_particles = n;
  gen.box_length = 1.0;
  gen.n_halos = 8;
  gen.seed = 3;
  return generate_halo_model(gen).positions;
}

void BM_DelaunayBuildClustered(benchmark::State& state) {
  // Also reports allocations-per-insert (container regrowth events counted
  // by the triangulation itself, alloc_events()) and the predicate calls
  // per insert beside the rate, from this thread's predicate_stats(): a
  // faster build that does the same tests shows the same op counts.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = clustered_points(n);
  std::size_t alloc_events = 0;
  reset_predicate_stats();
  for (auto _ : state) {
    Triangulation tri(pts);
    benchmark::DoNotOptimize(tri.num_cells());
    alloc_events = tri.alloc_events();
  }
  const PredicateStats ops = predicate_stats();
  const double inserts =
      static_cast<double>(state.iterations()) * static_cast<double>(n);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["allocs_per_insert"] =
      static_cast<double>(alloc_events) / static_cast<double>(n);
  state.counters["insphere_per_insert"] =
      static_cast<double>(ops.insphere_calls) / inserts;
  state.counters["orient3d_per_insert"] =
      static_cast<double>(ops.orient3d_calls) / inserts;
}
BENCHMARK(BM_DelaunayBuildClustered)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_DelaunayBuildConcurrent(benchmark::State& state) {
  // T threads each build their own 20k-point clustered mesh at once;
  // items_per_second is the per-thread insert rate over wall time, so equal
  // rates at 1 and 4 threads mean concurrent builds share nothing hot.
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 20000;
  const auto pts = clustered_points(n);
  for (auto _ : state) {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
      pool.emplace_back([&pts] {
        Triangulation tri(pts);
        benchmark::DoNotOptimize(tri.num_cells());
      });
    for (auto& th : pool) th.join();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DelaunayBuildConcurrent)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
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
