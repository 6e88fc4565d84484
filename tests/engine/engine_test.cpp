// Engine-layer tests: the kernel registry contract, cross-kernel grid
// parity on one fixture cube, concurrent renders over one shared cube,
// stage-by-stage equivalence with the one-call pipeline, Engine::run_batch
// re-entrancy/determinism (sequential and from concurrent threads), and
// grids and checkpoint journals that do not depend on the thread budget.
#include <gtest/gtest.h>
#include <omp.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/reconstructor.h"
#include "dtfe/audit.h"
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

TEST(FieldKernel, AllRegisteredKernelsRenderFiniteGrids) {
  const ParticleSet& set = fixture_set();
  const FieldCube cube(set.positions, set.particle_mass);
  EXPECT_EQ(cube.n_particles(), set.size());
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
// volume-weighted average of the linear interpolant): the cheap audit's
// velocity_mean check, run over the same cube and model seed.
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
      if (kind != FieldKind::kVelocity) continue;
      AuditOptions aopt;
      aopt.level = AuditLevel::kCheap;
      const AuditResult audit = audit_field_item(
          grid, spec, stats.ray_mass, &cube, aopt, request.model_seed);
      EXPECT_TRUE(audit.ok()) << kernel << ": " << audit.summary();
      // The non-finite scan plus one envelope check per velocity channel.
      EXPECT_EQ(audit.checks_run, 4) << kernel;
    }
  }
}

// Concurrent renders share one cube's tables. Two threads march the same
// FieldCube (density and velocity) and query the same Reconstructor
// (surface_density, integrate_los, density_at) at once; every result must
// equal a serial run bit for bit. Under TSan this is the race check for the
// shared tables and for Reconstructor::density_at's point location.
TEST(FieldCube, ConcurrentRendersShareOneCube) {
  const ParticleSet& set = fixture_set();
  const FieldSpec spec = fixture_spec(16);
  const auto kernel = KernelRegistry::builtin().create("march");

  struct Results {
    FieldGrid density, velocity;
    Grid2D surface;
    std::vector<double> los, rho;
  };
  auto run = [&](const FieldCube& cube, const Reconstructor& recon,
                 Results& r) {
    KernelStats ds, vs;
    r.density = kernel->render(cube, RenderRequest{spec}, nullptr, ds);
    RenderRequest vreq{spec};
    vreq.field = FieldKind::kVelocity;
    vreq.model_seed = 42;
    r.velocity = kernel->render(cube, vreq, nullptr, vs);
    r.surface = recon.surface_density(spec);
    for (int i = 0; i < 32; ++i) {
      const double x = 3.1 + 0.12 * i, y = 4.9 + 0.01 * i;
      r.los.push_back(recon.integrate_los(x, y, spec.zmin, spec.zmax));
      r.rho.push_back(recon.density_at({x, y, 5.0 - 0.05 * i}));
    }
  };
  Results serial;
  {
    const FieldCube cube(set.positions, set.particle_mass);
    const Reconstructor recon(set.positions, set.particle_mass);
    run(cube, recon, serial);
  }
  // Fresh cube and view: both threads make their first reads of it at once.
  const FieldCube cube(set.positions, set.particle_mass);
  const Reconstructor recon(set.positions, set.particle_mass);
  Results a, b;
  std::thread ta(run, std::cref(cube), std::cref(recon), std::ref(a));
  std::thread tb(run, std::cref(cube), std::cref(recon), std::ref(b));
  ta.join();
  tb.join();
  for (const Results* r : {&a, &b}) {
    EXPECT_TRUE(planes_bitwise_equal(r->density, serial.density));
    EXPECT_TRUE(planes_bitwise_equal(r->velocity, serial.velocity));
    EXPECT_TRUE(planes_bitwise_equal(FieldGrid(r->surface),
                                     FieldGrid(serial.surface)));
    EXPECT_EQ(r->los, serial.los);
    EXPECT_EQ(r->rho, serial.rho);
  }
  // The fixture's lines and points hit the hull, so the checks see data.
  EXPECT_GT(serial.density.sum(), 0.0);
  EXPECT_GT(serial.los[16], 0.0);
  EXPECT_GT(serial.rho[16], 0.0);
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
    StageContext ctx(comm, opt, set.box_length, set.particle_mass,
                     set.positions, centers, fetch);
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

// Engines share only process-wide, thread-safe services (metrics registry,
// crash slots, kernel table), so batches run from several threads at once
// give the serial grids.
TEST(Engine, ConcurrentEnginesMatchSerial) {
  EngineConfig cfg;
  cfg.ranks = 2;
  cfg.pipeline = fixture_pipeline_options();
  std::vector<FieldRequest> requests;
  for (const Vec3& c : fixture_centers()) requests.push_back({c});

  Engine serial(cfg, fixture_set());
  const auto reference = serial.run_batch(requests);

  constexpr int kEngines = 3;
  std::vector<std::vector<FieldResult>> got(kEngines);
  std::vector<std::thread> threads;
  for (int t = 0; t < kEngines; ++t)
    threads.emplace_back([&, t] {
      Engine engine(cfg, fixture_set());
      got[static_cast<std::size_t>(t)] = engine.run_batch(requests);
    });
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kEngines; ++t) {
    const auto& results = got[static_cast<std::size_t>(t)];
    ASSERT_EQ(results.size(), reference.size()) << "engine " << t;
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].completed) << "engine " << t << " request " << i;
      EXPECT_TRUE(planes_bitwise_equal(results[i].grid, reference[i].grid))
          << "engine " << t << " request " << i;
    }
  }
}

// The thread budget only sizes each rank's team (its concurrent items); it
// must never change a result. Two ranks, so work sharing ships items between them.
TEST(Engine, GridsBitwiseIdenticalAcrossThreadBudgets) {
  std::vector<Vec3> centers = fixture_centers();
  centers.push_back({6.0, 6.5, 3.0});
  centers.push_back({4.5, 2.5, 7.0});
  const auto run_grids = [&](int threads) {
    PipelineOptions opt = fixture_pipeline_options();
    opt.threads = threads;
    std::mutex mtx;
    std::map<std::ptrdiff_t, FieldGrid> grids;
    simmpi::run(2, [&](simmpi::Comm& comm) {
      const PipelineResult res = run_pipeline(comm, fixture_set(), centers, opt);
      const std::lock_guard<std::mutex> lock(mtx);
      for (std::size_t i = 0; i < res.items.size(); ++i)
        if (res.items[i].request_index >= 0)
          grids.emplace(res.items[i].request_index, res.grids[i]);
    });
    return grids;
  };
  const auto reference = run_grids(0);
  ASSERT_EQ(reference.size(), centers.size());
  for (const int threads : {1, 2, 4}) {
    const auto grids = run_grids(threads);
    ASSERT_EQ(grids.size(), reference.size()) << "threads=" << threads;
    for (const auto& [id, ref] : reference) {
      ASSERT_TRUE(grids.count(id)) << "threads=" << threads << " field " << id;
      EXPECT_TRUE(planes_bitwise_equal(grids.at(id), ref))
          << "threads=" << threads << " field " << id;
    }
  }
}

/// configure_rank_threading on a fresh thread, so the per-thread OpenMP ICVs
/// it sets never leak into the other tests; checks they were applied.
int team_on_rank_thread(int threads, int ranks) {
  PipelineOptions opt;
  opt.threads = threads;
  int team = 0;
  std::thread([&] {
    team = configure_rank_threading(opt, ranks);
    EXPECT_EQ(omp_get_max_threads(), team);
    EXPECT_EQ(omp_get_max_active_levels(), 1);
  }).join();
  return team;
}

TEST(ThreadBudget, KernelTeamGetsTheRankShareOfTheBudget) {
  EXPECT_EQ(team_on_rank_thread(8, 2), 4);
}

TEST(ThreadBudget, OneThreadOverFourRanksStillGetsATeamOfOne) {
  EXPECT_EQ(team_on_rank_thread(1, 4), 1);
}

// An unknown kernel name is a contained per-item failure, not a crash.
TEST(Engine, UnknownKernelIsAContainedItemFailure) {
  EngineConfig cfg;
  cfg.ranks = 2;
  cfg.pipeline = fixture_pipeline_options();
  cfg.pipeline.kernel = "no-such-kernel";
  Engine broken(cfg, fixture_set());
  const std::vector<FieldRequest> requests = {{{5.0, 5.0, 5.0}}};
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
  // Bad flags are rejected before any work, naming the flag: a non-positive
  // grid would wrap through the unsigned cast or render an empty run, and a
  // non-positive or non-finite length would reach the decomposition.
  const std::pair<const char*, const char*> bad_flags[] = {
      {"--grid", "0"},   {"--grid", "-3"},    {"--length", "0"},
      {"--length", "-2"}, {"--length", "inf"}, {"--length", "nan"},
      // Engine ranges are checked before the narrowing casts, which would
      // wrap 2^32 + 2 ranks to 2 and -3 fields to 2^64 - 3.
      {"--ranks", "0"},  {"--ranks", "-2"},   {"--ranks", "4294967298"},
      {"--fields", "0"}, {"--fields", "-3"},  {"--threads", "-1"},
      {"--threads", "4294967297"},
      // 2^32 + 1 would wrap to 1 through static_cast<int>.
      {"--smooth-ensemble", "4294967297"},
      {"--comm-timeout-ms", "-1"}, {"--comm-timeout-ms", "0"},
      {"--comm-timeout-ms", "4294967297"},
      // Numeric flags take whole values only.
      {"--item-deadline-ms", "5x"}, {"--item-deadline-ms", "abc"},
      {"--item-deadline-ms", "inf"}, {"--ranks", "2x"}};
  for (const auto& [flag, value] : bad_flags) {
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
    // The item checksum is the plane-sum total, the reduction the CLI
    // prints per channel.
    EXPECT_EQ(res.checksum, res.grid.sum());
  }
}

/// A half-empty box: 2000 uniform particles with y < 5 only, so a field
/// centred at y = 8 gathers no particles (a zero grid, committed without a
/// render or an audit) and one at y = 2.5 a full cube.
const ParticleSet& half_empty_set() {
  static const ParticleSet set = [] {
    ParticleSet s = generate_uniform(4000, 10.0, 11);
    std::vector<Vec3> kept;
    for (const Vec3& p : s.positions)
      if (p.y < 5.0) kept.push_back(p);
    s.positions = std::move(kept);
    return s;
  }();
  return set;
}

/// Rank 0 owns x < 5 and rank 1 the rest at two ranks. Full cubes sit in
/// the middle of each rank's list; the workload model's sample item, picked
/// at random before the list runs, is an empty one at one and two ranks.
std::vector<Vec3> half_empty_centers() {
  const double ys[12] = {8.0, 8.0, 2.5, 8.0, 2.5, 8.0,
                         8.0, 8.0, 2.5, 8.0, 8.0, 8.0};
  std::vector<Vec3> centers;
  for (std::size_t i = 0; i < 12; ++i)
    centers.push_back({(i < 6 ? 2.0 : 7.0) + 0.1 * static_cast<double>(i),
                       ys[i], 5.0});
  return centers;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// One pipeline run with its own checkpoint directory: every rank's journal
/// bytes, every committed grid, and the Error text each rank threw ("" if
/// none). Each rank catches its own Error, so the others never wait on it.
struct JournaledRun {
  std::vector<std::string> journals;
  std::map<std::ptrdiff_t, FieldGrid> grids;
  std::vector<std::string> errors;
};

JournaledRun journaled_run(int ranks, int threads, bool audit_fatal) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("pdtfe-journal-" + std::to_string(::getpid()) + "-" +
       std::to_string(ranks) + "-" + std::to_string(threads) +
       (audit_fatal ? "-fatal" : ""));
  fs::remove_all(dir);
  PipelineOptions opt = fixture_pipeline_options();
  opt.threads = threads;
  opt.checkpoint_dir = dir.string();
  // Work sharing follows measured item times, so it is off: each rank's
  // list, and so its journal, is then fixed by the data alone.
  opt.load_balance = false;
  if (audit_fatal) {
    // A negative tolerance fails every spot check of every rendered item.
    // Spot checks march and walk single lines, so the Error text names the
    // same values at any budget (the mass check's ray mass is a per-thread
    // sum and would not).
    opt.audit.level = AuditLevel::kFull;
    opt.audit.spot_rel_tol = -1.0;
    opt.audit_fatal = true;
  }
  JournaledRun out;
  out.errors.resize(static_cast<std::size_t>(ranks));
  std::mutex mtx;
  simmpi::run(ranks, [&](simmpi::Comm& comm) {
    try {
      const PipelineResult res =
          run_pipeline(comm, half_empty_set(), half_empty_centers(), opt);
      const std::lock_guard<std::mutex> lock(mtx);
      for (std::size_t i = 0; i < res.items.size(); ++i)
        out.grids.emplace(res.items[i].request_index, res.grids[i]);
    } catch (const Error& e) {
      out.errors[static_cast<std::size_t>(comm.rank())] = e.what();
    }
  });
  for (int r = 0; r < ranks; ++r)
    out.journals.push_back(file_bytes(
        (dir / ("journal-rank-" + std::to_string(r) + ".ckpt")).string()));
  fs::remove_all(dir);
  return out;
}

// Items run concurrently on each rank's team but commit in list order on
// the rank thread, so the journals hold the same bytes at every thread
// budget. A fatal audit in the middle of a list surfaces as the same Error,
// after the same items were journaled, as in a serial run.
TEST(Engine, JournalBytesDoNotDependOnTheThreadBudget) {
  for (const int ranks : {1, 2}) {
    const JournaledRun serial = journaled_run(ranks, 1, false);
    ASSERT_EQ(serial.grids.size(), half_empty_centers().size());
    const JournaledRun failing = journaled_run(ranks, 1, true);
    for (int r = 0; r < ranks; ++r) {
      const auto rank = static_cast<std::size_t>(r);
      EXPECT_FALSE(serial.journals[rank].empty()) << "rank " << r;
      EXPECT_TRUE(serial.errors[rank].empty()) << serial.errors[rank];
      // The failure comes mid-list: some items were committed before it,
      // fewer than a clean run commits.
      EXPECT_NE(failing.errors[rank].find("audit failed"), std::string::npos)
          << "ranks " << ranks << " rank " << r;
      EXPECT_FALSE(failing.journals[rank].empty()) << "rank " << r;
      EXPECT_LT(failing.journals[rank].size(), serial.journals[rank].size())
          << "rank " << r;
    }
    for (const int threads : {2, 4}) {
      const std::string what = "ranks " + std::to_string(ranks) +
                               " threads " + std::to_string(threads);
      const JournaledRun run = journaled_run(ranks, threads, false);
      EXPECT_EQ(run.journals, serial.journals) << what;
      ASSERT_EQ(run.grids.size(), serial.grids.size()) << what;
      for (const auto& [id, grid] : serial.grids) {
        ASSERT_TRUE(run.grids.count(id)) << what << " field " << id;
        EXPECT_TRUE(planes_bitwise_equal(run.grids.at(id), grid))
            << what << " field " << id;
      }
      const JournaledRun fail = journaled_run(ranks, threads, true);
      EXPECT_EQ(fail.errors, failing.errors) << what;
      EXPECT_EQ(fail.journals, failing.journals) << what;
    }
  }
}

}  // namespace
}  // namespace dtfe::engine
