// Engine-layer tests: the kernel registry contract, cross-kernel grid
// parity on one fixture cube, stage-by-stage equivalence with the one-call
// pipeline, and Engine::run_batch re-entrancy/determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/field_kernel.h"
#include "engine/stages.h"
#include "framework/pipeline.h"
#include "nbody/generators.h"
#include "util/error.h"

namespace dtfe::engine {
namespace {

/// One shared fixture cube: uniform particles, dense enough that every
/// kernel interpolates real tetrahedra rather than hull edge cases.
const ParticleSet& fixture_set() {
  static const ParticleSet set = generate_uniform(4000, 10.0, 7);
  return set;
}

FieldSpec fixture_spec(std::size_t ng = 32) {
  return FieldSpec::centered({5.0, 5.0, 5.0}, 4.0, ng);
}

TEST(KernelRegistry, BuiltinNamesRoundTrip) {
  const KernelRegistry& reg = KernelRegistry::builtin();
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "march");
  EXPECT_EQ(names[1], "tess");
  EXPECT_EQ(names[2], "walk");
  for (const auto& name : names) {
    EXPECT_TRUE(reg.contains(name));
    const auto kernel = reg.create(name);
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->name(), name);
  }
  EXPECT_FALSE(reg.contains("cic"));
  EXPECT_THROW(reg.create("cic"), Error);
}

TEST(KernelRegistry, CustomRegistryIsIndependent) {
  KernelRegistry reg;
  EXPECT_TRUE(reg.names().empty());
  reg.add("march2", [](const KernelOptions& o) {
    return std::make_unique<MarchingFieldKernel>(o.marching);
  });
  EXPECT_TRUE(reg.contains("march2"));
  EXPECT_FALSE(reg.contains("march"));  // builtin() is untouched
  EXPECT_TRUE(KernelRegistry::builtin().contains("march"));
  const auto kernel = reg.create("march2");
  EXPECT_STREQ(kernel->name(), "march");
}

TEST(FieldKernel, AllRegisteredKernelsRenderFiniteGrids) {
  const ParticleSet& set = fixture_set();
  const FieldCube cube(set.positions, set.particle_mass);
  EXPECT_EQ(cube.n_particles(), set.size());
  EXPECT_GT(cube.triangulate_seconds(), 0.0);
  const FieldSpec spec = fixture_spec();
  for (const auto& name : KernelRegistry::builtin().names()) {
    KernelStats stats;
    const FieldGrid grid = KernelRegistry::builtin().create(name)->render(
        cube, RenderRequest{spec}, nullptr, stats);
    EXPECT_EQ(grid.kind(), FieldKind::kDensity) << name;
    ASSERT_EQ(grid.channels(), 1u) << name;
    ASSERT_EQ(grid.nx(), spec.nx()) << name;
    double sum = 0.0;
    for (const double v : grid.plane(0).values()) {
      ASSERT_TRUE(std::isfinite(v)) << name;
      sum += v;
    }
    EXPECT_GT(sum, 0.0) << name;
  }
}

// The paper's Fig. 6 protocol as a whole-grid assertion: the marching kernel
// in fixed-z-plane mode and the walking 3D-grid baseline sample the SAME
// z planes (zmin + (k+0.5)·dz), so cell-by-cell they must agree to float
// tolerance — they evaluate the same interpolant at the same points.
TEST(FieldKernel, MarchingAndWalkingAgreeOnEqualCells) {
  const ParticleSet& set = fixture_set();
  const FieldCube cube(set.positions, set.particle_mass);
  const std::size_t ng = 24;
  const FieldSpec spec = fixture_spec(ng);

  KernelOptions kopt;
  kopt.marching.z_samples = static_cast<int>(ng);
  kopt.walking.z_resolution = ng;
  kopt.walking.monte_carlo_samples = 1;  // deterministic cell centers

  KernelStats ms, ws;
  const Grid2D march =
      KernelRegistry::builtin()
          .create("march", kopt)
          ->render(cube, RenderRequest{spec}, nullptr, ms)
          .plane(0);
  const Grid2D walk = KernelRegistry::builtin()
                          .create("walk", kopt)
                          ->render(cube, RenderRequest{spec}, nullptr, ws)
                          .plane(0);

  ASSERT_EQ(march.size(), walk.size());
  for (std::size_t i = 0; i < march.size(); ++i) {
    const double a = march.flat(i), b = walk.flat(i);
    const double scale = std::max({std::abs(a), std::abs(b), 1e-12});
    EXPECT_LE(std::abs(a - b) / scale, 1e-6) << "cell " << i;
  }
}

bool planes_bitwise_equal(const FieldGrid& a, const FieldGrid& b) {
  if (a.kind() != b.kind() || a.channels() != b.channels()) return false;
  for (std::size_t c = 0; c < a.channels(); ++c) {
    const auto& av = a.plane(c).values();
    const auto& bv = b.plane(c).values();
    if (av.size() != bv.size()) return false;
    for (std::size_t i = 0; i < av.size(); ++i)
      if (av[i] != bv[i]) return false;
  }
  return true;
}

// Every vector channel renders the declared number of planes, all finite,
// on both line-integrating kernels. The velocity planes must stay inside
// the analytic model's vertex-velocity envelope (each LOS-mean cell is a
// volume-weighted average of the linear interpolant).
TEST(FieldKernel, VectorChannelsRenderFiniteMultiChannelGrids) {
  const ParticleSet& set = fixture_set();
  const FieldCube cube(set.positions, set.particle_mass);
  const FieldSpec spec = fixture_spec(16);
  for (const char* kernel : {"march", "walk"}) {
    for (const FieldKind kind :
         {FieldKind::kVelocity, FieldKind::kVdiv, FieldKind::kGrad}) {
      RenderRequest request{spec};
      request.field = kind;
      request.model_seed = 42;
      KernelStats stats;
      const FieldGrid grid =
          KernelRegistry::builtin().create(kernel)->render(cube, request,
                                                           nullptr, stats);
      EXPECT_EQ(grid.kind(), kind) << kernel;
      ASSERT_EQ(grid.channels(), field_channels(kind)) << kernel;
      for (std::size_t c = 0; c < grid.channels(); ++c)
        for (const double v : grid.plane(c).values())
          ASSERT_TRUE(std::isfinite(v))
              << kernel << " " << field_kind_name(kind) << " channel " << c;
    }
  }
}

TEST(FieldKernel, TessRendersDensityOnly) {
  const ParticleSet& set = fixture_set();
  const FieldCube cube(set.positions, set.particle_mass);
  RenderRequest request{fixture_spec(16)};
  request.field = FieldKind::kVelocity;
  KernelStats stats;
  EXPECT_THROW(KernelRegistry::builtin().create("tess")->render(
                   cube, request, nullptr, stats),
               Error);
}

// Ensemble smoothing is a pure function of (item seed, N): repeated renders
// are bitwise identical, N=1 short-circuits to the exact single render, and
// N>1 genuinely changes the grid (the jitter is real).
TEST(FieldKernel, EnsembleSmoothingIsDeterministic) {
  const ParticleSet& set = fixture_set();
  const FieldCube cube(set.positions, set.particle_mass);
  RenderRequest request{fixture_spec(16)};
  request.seed = 99;

  const auto kernel = KernelRegistry::builtin().create("march");
  KernelStats s1, s2;
  const FieldGrid single = kernel->render(cube, request, nullptr, s1);
  const FieldGrid single_again = kernel->render(cube, request, nullptr, s2);
  EXPECT_TRUE(planes_bitwise_equal(single, single_again));

  request.smooth_ensemble = 3;
  KernelStats e1, e2;
  const FieldGrid smoothed = kernel->render(cube, request, nullptr, e1);
  const FieldGrid smoothed_again = kernel->render(cube, request, nullptr, e2);
  EXPECT_TRUE(planes_bitwise_equal(smoothed, smoothed_again));
  EXPECT_FALSE(planes_bitwise_equal(smoothed, single));
  // The averaged ray mass stays consistent with the averaged grid — the
  // audit identity the pipeline checks for every committed item.
  EXPECT_NEAR(e1.ray_mass, smoothed.sum(), 1e-9 * std::abs(e1.ray_mass));
}

std::vector<Vec3> fixture_centers() {
  return {{5.0, 5.0, 5.0}, {2.5, 3.5, 6.5}, {7.5, 2.0, 4.0}, {3.0, 8.0, 8.0}};
}

PipelineOptions fixture_pipeline_options() {
  PipelineOptions opt;
  opt.field_length = 3.0;
  opt.field_resolution = 24;
  opt.keep_grids = true;
  return opt;
}

// Driving the five stages one at a time must reproduce the one-call
// pipeline exactly — and the intermediate context must make sense at each
// boundary (that is what "individually testable stages" buys).
TEST(Stages, StageByStageMatchesRunPipeline) {
  const ParticleSet& set = fixture_set();
  const auto centers = fixture_centers();
  const PipelineOptions opt = fixture_pipeline_options();

  std::map<std::ptrdiff_t, std::vector<double>> staged;
  simmpi::run(1, [&](simmpi::Comm& comm) {
    const CubeFetcher fetch = [&](const Vec3& center, double side) {
      return extract_cube(set, center, side);
    };
    StageContext ctx(comm, opt, EngineState::process_default(),
                     set.box_length, set.particle_mass, set.positions,
                     centers, fetch);
    ExchangeStage{}.run(ctx);
    EXPECT_TRUE(ctx.decomp.has_value());
    EXPECT_EQ(ctx.my_requests.size(), centers.size());  // single rank owns all
    EXPECT_EQ(ctx.res.local_items, centers.size());

    ScheduleStage{}.run(ctx);
    EXPECT_TRUE(ctx.index.has_value());
    EXPECT_GE(ctx.test_item, 0);
    EXPECT_EQ(ctx.remaining.size(), centers.size() - 1);

    ComputeStage{}.run(ctx);
    EXPECT_EQ(ctx.res.items.size(), centers.size());

    RecoverStage{}.run(ctx);
    ReduceStage{}.run(ctx);
    for (std::size_t k = 0; k < ctx.res.items.size(); ++k) {
      const auto v = ctx.res.grids[k].plane(0).values();
      staged[ctx.res.items[k].request_index].assign(v.begin(), v.end());
    }
  });

  std::map<std::ptrdiff_t, std::vector<double>> direct;
  simmpi::run(1, [&](simmpi::Comm& comm) {
    const PipelineResult res = run_pipeline(comm, set, centers, opt);
    for (std::size_t k = 0; k < res.items.size(); ++k) {
      const auto v = res.grids[k].plane(0).values();
      direct[res.items[k].request_index].assign(v.begin(), v.end());
    }
  });

  ASSERT_EQ(staged.size(), direct.size());
  for (const auto& [id, grid] : staged) {
    ASSERT_TRUE(direct.count(id)) << "request " << id;
    ASSERT_EQ(grid.size(), direct[id].size());
    for (std::size_t i = 0; i < grid.size(); ++i)
      EXPECT_EQ(grid[i], direct[id][i]) << "request " << id << " cell " << i;
  }
}

TEST(Engine, RunBatchCompletesEveryRequest) {
  EngineConfig cfg;
  cfg.ranks = 4;
  cfg.pipeline = fixture_pipeline_options();
  Engine engine(cfg, fixture_set());

  std::vector<FieldRequest> requests;
  for (const Vec3& c : fixture_centers()) requests.push_back({c});
  const auto results = engine.run_batch(requests);

  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].request, static_cast<std::ptrdiff_t>(i));
    EXPECT_TRUE(results[i].completed);
    EXPECT_FALSE(results[i].failed);
    EXPECT_GT(results[i].checksum, 0.0);
    double sum = 0.0;
    for (std::size_t c = 0; c < results[i].grid.channels(); ++c)
      for (const double v : results[i].grid.plane(c).values()) sum += v;
    EXPECT_EQ(sum, results[i].checksum);
  }
  EXPECT_EQ(engine.last_rank_runs().size(), 4u);
  for (std::size_t r = 0; r < engine.last_rank_runs().size(); ++r)
    EXPECT_EQ(engine.last_rank_runs()[r].rank, static_cast<int>(r));
}

// The tentpole's re-entrancy contract: several batches per process — and
// several engines — with bitwise-identical grids every time, equal to what
// the legacy one-shot entry point produces.
TEST(Engine, RunBatchIsReentrantAndBitwiseDeterministic) {
  EngineConfig cfg;
  cfg.ranks = 4;
  cfg.pipeline = fixture_pipeline_options();
  Engine engine(cfg, fixture_set());

  std::vector<FieldRequest> requests;
  for (const Vec3& c : fixture_centers()) requests.push_back({c});

  const auto first = engine.run_batch(requests);
  const auto second = engine.run_batch(requests);  // same engine, re-run
  Engine other(cfg, fixture_set());
  const auto third = other.run_batch(requests);    // separate engine instance

  ASSERT_EQ(first.size(), requests.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i].completed);
    ASSERT_TRUE(second[i].completed);
    ASSERT_TRUE(third[i].completed);
    const auto& a = first[i].grid.plane(0).values();
    const auto& b = second[i].grid.plane(0).values();
    const auto& c = third[i].grid.plane(0).values();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), c.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k], b[k]) << "request " << i << " cell " << k;
      EXPECT_EQ(a[k], c[k]) << "request " << i << " cell " << k;
    }
  }

  // The legacy entry point renders the same grids (same seeds, same
  // canonical cube ordering), rank count and data path notwithstanding.
  std::map<std::ptrdiff_t, double> legacy_sums;
  std::mutex mtx;
  simmpi::run(2, [&](simmpi::Comm& comm) {
    const PipelineResult res =
        run_pipeline(comm, fixture_set(), fixture_centers(), cfg.pipeline);
    std::lock_guard<std::mutex> lock(mtx);
    for (const ItemRecord& it : res.items)
      legacy_sums[it.request_index] = it.grid_sum;
  });
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(legacy_sums.count(static_cast<std::ptrdiff_t>(i)));
    EXPECT_EQ(first[i].checksum, legacy_sums[static_cast<std::ptrdiff_t>(i)]);
  }
}

TEST(Engine, CustomKernelRegistrySelectsTheKernel) {
  KernelRegistry reg;
  reg.add("walk", [](const KernelOptions& o) {
    return std::make_unique<WalkingFieldKernel>(o.walking);
  });
  EngineConfig cfg;
  cfg.ranks = 2;
  cfg.pipeline = fixture_pipeline_options();
  cfg.pipeline.kernel = "walk";
  Engine engine(cfg, fixture_set());
  engine.set_kernels(&reg);

  std::vector<FieldRequest> requests = {{{5.0, 5.0, 5.0}}};
  const auto results = engine.run_batch(requests);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].completed);
  EXPECT_FALSE(results[0].failed);
  EXPECT_GT(results[0].checksum, 0.0);

  // An unknown kernel name is a contained per-item failure, not a crash.
  cfg.pipeline.kernel = "no-such-kernel";
  Engine broken(cfg, fixture_set());
  const auto failed = broken.run_batch(requests);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_TRUE(failed[0].failed);
}

TEST(EngineConfig, FromCliParsesAndValidates) {
  {
    const char* argv[] = {"pdtfe", "pipeline", "--in", "snap.bin", "--ranks",
                          "3",     "--grid",   "48",   "--length", "6",
                          "--kernel", "walk"};
    const CliArgs args(static_cast<int>(std::size(argv)),
                       const_cast<char**>(argv));
    const EngineConfig cfg = EngineConfig::from_cli(args);
    EXPECT_EQ(cfg.snapshot, "snap.bin");
    EXPECT_EQ(cfg.ranks, 3);
    EXPECT_EQ(cfg.pipeline.field_resolution, 48u);
    EXPECT_DOUBLE_EQ(cfg.pipeline.field_length, 6.0);
    EXPECT_EQ(cfg.pipeline.kernel, "walk");
  }
  {
    const char* argv[] = {"pdtfe", "pipeline", "--kernel", "bogus"};
    const CliArgs args(static_cast<int>(std::size(argv)),
                       const_cast<char**>(argv));
    EXPECT_THROW(EngineConfig::from_cli(args), Error);
  }
  {
    const char* argv[] = {"pdtfe", "pipeline", "--resume", "1"};
    const CliArgs args(static_cast<int>(std::size(argv)),
                       const_cast<char**>(argv));
    EXPECT_THROW(EngineConfig::from_cli(args), Error);
  }
  {
    const char* argv[] = {"pdtfe", "pipeline", "--bad-particles", "explode"};
    const CliArgs args(static_cast<int>(std::size(argv)),
                       const_cast<char**>(argv));
    EXPECT_THROW(EngineConfig::from_cli(args), Error);
  }
  {
    const char* argv[] = {"pdtfe", "pipeline", "--field", "velocity",
                          "--smooth-ensemble", "4"};
    const CliArgs args(static_cast<int>(std::size(argv)),
                       const_cast<char**>(argv));
    const EngineConfig cfg = EngineConfig::from_cli(args);
    EXPECT_EQ(cfg.pipeline.field, FieldKind::kVelocity);
    EXPECT_EQ(cfg.pipeline.smooth_ensemble, 4);
  }
  {
    const char* argv[] = {"pdtfe", "pipeline", "--field", "bogus"};
    const CliArgs args(static_cast<int>(std::size(argv)),
                       const_cast<char**>(argv));
    EXPECT_THROW(EngineConfig::from_cli(args), Error);
  }
  {
    const char* argv[] = {"pdtfe", "pipeline", "--smooth-ensemble", "0"};
    const CliArgs args(static_cast<int>(std::size(argv)),
                       const_cast<char**>(argv));
    EXPECT_THROW(EngineConfig::from_cli(args), Error);
  }
  {
    // tess is density-only: reject the combination up front rather than
    // failing every item of the run.
    const char* argv[] = {"pdtfe", "pipeline", "--kernel", "tess",
                          "--field", "velocity"};
    const CliArgs args(static_cast<int>(std::size(argv)),
                       const_cast<char**>(argv));
    EXPECT_THROW(EngineConfig::from_cli(args), Error);
  }
  // Field geometry is rejected before any work: a non-positive grid would
  // wrap through the unsigned cast or render an empty run, and a
  // non-positive or non-finite length would reach the decomposition.
  const std::pair<const char*, const char*> bad_geometry[] = {
      {"--grid", "0"},   {"--grid", "-3"},    {"--length", "0"},
      {"--length", "-2"}, {"--length", "inf"}, {"--length", "nan"}};
  for (const auto& [flag, value] : bad_geometry) {
    const char* argv[] = {"pdtfe", "pipeline", flag, value};
    const CliArgs args(static_cast<int>(std::size(argv)),
                       const_cast<char**>(argv));
    try {
      EngineConfig::from_cli(args);
      ADD_FAILURE() << flag << " " << value << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }
}

// A non-density batch flows the multi-channel grids through the full staged
// pipeline: every result carries field_channels(kind) planes and the item
// checksum equals the sum over all of them.
TEST(Engine, RunBatchCarriesVelocityChannels) {
  EngineConfig cfg;
  cfg.ranks = 2;
  cfg.pipeline = fixture_pipeline_options();
  cfg.pipeline.field = FieldKind::kVelocity;
  Engine engine(cfg, fixture_set());

  std::vector<FieldRequest> requests;
  for (const Vec3& c : fixture_centers()) requests.push_back({c});
  const auto results = engine.run_batch(requests);

  ASSERT_EQ(results.size(), requests.size());
  for (const FieldResult& res : results) {
    ASSERT_TRUE(res.completed);
    EXPECT_FALSE(res.failed);
    EXPECT_EQ(res.grid.kind(), FieldKind::kVelocity);
    ASSERT_EQ(res.grid.channels(), 3u);
    for (std::size_t c = 0; c < res.grid.channels(); ++c)
      for (const double v : res.grid.plane(c).values())
        ASSERT_TRUE(std::isfinite(v));
    // The item checksum is the plane-sum total, the same reduction the
    // thread-vs-socket parity check compares per channel.
    EXPECT_EQ(res.checksum, res.grid.sum());
  }
}

}  // namespace
}  // namespace dtfe::engine
