// Kernel ablations: marching vs walking vs zero-order per rendered cell,
// Monte Carlo sampling counts, walking z-resolution sweep (the cost knob the
// marching kernel eliminates), the Plücker-vs-Möller march, and the
// vertical-crossing-test A/B (AoS vs SoA coefficient tables).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "core/reconstructor.h"
#include "dtfe/march_tables.h"
#include "dtfe/marching_kernel.h"
#include "geometry/ray_tetra.h"
#include "geometry/tetra_coef.h"
#include "nbody/generators.h"
#include "util/simd.h"

namespace dtfe {
namespace {

const Reconstructor& shared_recon() {
  static const Reconstructor* recon = [] {
    HaloModelOptions gen;
    gen.n_particles = 30000;
    gen.box_length = 10.0;
    gen.n_halos = 12;
    gen.seed = 4;
    const auto set = generate_halo_model(gen);
    return new Reconstructor(set.positions, set.particle_mass);
  }();
  return *recon;
}

FieldSpec bench_spec(std::size_t ng) {
  FieldSpec spec;
  spec.origin = {1.0, 1.0};
  spec.length = 8.0;
  spec.resolution = ng;
  spec.zmin = 1.0;
  spec.zmax = 9.0;
  return spec;
}

// The two halves of a march render, timed apart: the per-triangulation
// geometry table (built at most once per cube in the pipeline, by the first
// render that amortises it; the interpolant rows come with the
// DensityField) and the rays over them.
void BM_MarchTables(benchmark::State& state) {
  const auto& recon = shared_recon();
  for (auto _ : state) {
    const TetraGeomTable geom(recon.triangulation());
    benchmark::DoNotOptimize(geom.size());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(recon.triangulation().num_cells()));
}
BENCHMARK(BM_MarchTables)->Unit(benchmark::kMillisecond);

void BM_MarchRays(benchmark::State& state) {
  const auto& recon = shared_recon();
  const auto spec = bench_spec(static_cast<std::size_t>(state.range(0)));
  MarchingOptions opt;
  opt.monte_carlo_samples = static_cast<int>(state.range(1));
  const MarchingKernel kernel(recon.cube(), opt);
  for (auto _ : state) benchmark::DoNotOptimize(kernel.render(spec).sum());
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_MarchRays)
    ->Args({32, 1})
    ->Args({64, 1})
    ->Args({64, 4})
    ->Unit(benchmark::kMillisecond);

void BM_MarchingRenderMoller(benchmark::State& state) {
  const auto& recon = shared_recon();
  const auto spec = bench_spec(64);
  MarchingOptions opt;
  opt.use_moller_trumbore = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(recon.surface_density(spec, opt).sum());
  state.SetItemsProcessed(state.iterations() * 64 * 64);
}
BENCHMARK(BM_MarchingRenderMoller)->Unit(benchmark::kMillisecond);

void BM_WalkingRender(benchmark::State& state) {
  const auto& recon = shared_recon();
  const auto spec = bench_spec(64);
  WalkingOptions opt;
  opt.z_resolution = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(recon.surface_density_walking(spec, opt).sum());
  state.SetItemsProcessed(state.iterations() * 64 * 64);
}
BENCHMARK(BM_WalkingRender)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_ZeroOrderRender(benchmark::State& state) {
  const auto& recon = shared_recon();
  const auto spec = bench_spec(64);
  TessOptions opt;
  opt.z_resolution = 64;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        recon.surface_density_zero_order(spec, opt).sum());
}
BENCHMARK(BM_ZeroOrderRender)->Unit(benchmark::kMillisecond);

// ---- vertical crossing test A/B ------------------------------------------
// The marching hot loop is one crossing test per tetra step. These benches
// classify the SAME crossings two ways: the pre-table AoS geometry test
// (the old production path, kept as oracle) and the SoA coefficient form
// the march runs. items == crossing tests, so the items_per_second ratio is
// the speedup run_bench records.
struct CrossingFixture {
  std::vector<std::array<Vec3, 4>> tets;
  std::vector<VerticalTetraCoef> coef;
  std::vector<Vec2> xi;
  std::vector<int> entry;
};

const CrossingFixture& crossing_fixture() {
  static const CrossingFixture* fx = [] {
    auto* f = new CrossingFixture;
    std::uint64_t s = 0x5eedULL;
    auto unit = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return static_cast<double>(s >> 11) * 0x1.0p-53;
    };
    while (f->tets.size() < 4096) {
      std::array<Vec3, 4> v;
      for (auto& p : v)
        p = {unit() * 10.0, unit() * 10.0, unit() * 10.0};
      const Vec2 cen{(v[0].x + v[1].x + v[2].x + v[3].x) * 0.25,
                     (v[0].y + v[1].y + v[2].y + v[3].y) * 0.25};
      const VerticalTetraCoef c = make_vertical_coef(v);
      double sp[6];
      coef_edge_products(c, cen, sp);
      const VerticalSpan span = coef_vertical_span(c, sp);
      if (!span.intersects || span.degenerate) continue;  // sliver: skip
      f->tets.push_back(v);
      f->coef.push_back(c);
      f->xi.push_back(cen);
      f->entry.push_back(span.enter_face);
    }
    return f;
  }();
  return *fx;
}

void BM_VerticalCrossingAos(benchmark::State& state) {
  const auto& fx = crossing_fixture();
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < fx.tets.size(); ++i) {
      const VerticalExit ve =
          line_tetra_vertical_exit(fx.xi[i], fx.tets[i], fx.entry[i]);
      acc += ve.z_exit;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.tets.size()));
}
BENCHMARK(BM_VerticalCrossingAos);

void BM_VerticalCrossingCoef(benchmark::State& state) {
  const auto& fx = crossing_fixture();
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < fx.coef.size(); ++i) {
      double s[6];
      coef_edge_products(fx.coef[i], fx.xi[i], s);
      const VerticalExit ve = coef_vertical_exit(fx.coef[i], s, fx.entry[i]);
      acc += ve.z_exit;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.coef.size()));
}
BENCHMARK(BM_VerticalCrossingCoef);

void BM_IntegrateSingleLine(benchmark::State& state) {
  const auto& recon = shared_recon();
  double x = 1.0;
  for (auto _ : state) {
    x += 0.013;
    if (x > 9.0) x = 1.0;
    benchmark::DoNotOptimize(recon.integrate_los(x, 5.0, 1.0, 9.0));
  }
}
BENCHMARK(BM_IntegrateSingleLine);

}  // namespace
}  // namespace dtfe

// Custom main so the JSON "context" records which SIMD ISA the build
// targets — run_bench copies it into the host stanza of BENCH_kernel.json.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("simd_isa", dtfe::simd::isa_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
