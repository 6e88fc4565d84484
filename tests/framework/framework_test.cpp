#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "framework/decomposition.h"
#include "framework/des.h"
#include "framework/pipeline.h"
#include "framework/workload_model.h"
#include "nbody/generators.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dtfe {
namespace {

TEST(Decomposition, FactorizationCoversAllRanks) {
  for (int p : {1, 2, 3, 4, 6, 8, 12, 16, 24, 64, 100}) {
    Decomposition d(p, 10.0);
    const auto dims = d.dims();
    EXPECT_EQ(dims[0] * dims[1] * dims[2], p);
    // most-cubic: max/min factor ratio stays small for highly composite p
    if (p == 64) {
      EXPECT_EQ(dims[0], 4);
      EXPECT_EQ(dims[1], 4);
      EXPECT_EQ(dims[2], 4);
    }
  }
}

TEST(Decomposition, OwnershipPartitionsTheBox) {
  Decomposition d(12, 30.0);
  Rng rng(3);
  for (int iter = 0; iter < 2000; ++iter) {
    const Vec3 p{rng.uniform(0, 30), rng.uniform(0, 30), rng.uniform(0, 30)};
    const int r = d.owner_of(p);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 12);
    EXPECT_GE(p.x, d.sub_lo(r).x);
    EXPECT_LT(p.x, d.sub_hi(r).x + 1e-12);
    EXPECT_GE(p.y, d.sub_lo(r).y);
    EXPECT_GE(p.z, d.sub_lo(r).z);
  }
}

TEST(Decomposition, RedistributeDeliversToOwners) {
  const auto set = generate_uniform(4000, 20.0, 17);
  simmpi::run(8, [&](simmpi::Comm& c) {
    Decomposition d(8, 20.0);
    // each rank starts with an arbitrary slice
    const std::size_t lo = 4000u * static_cast<std::size_t>(c.rank()) / 8;
    const std::size_t hi = 4000u * static_cast<std::size_t>(c.rank() + 1) / 8;
    std::vector<Vec3> mine(set.positions.begin() + static_cast<std::ptrdiff_t>(lo),
                           set.positions.begin() + static_cast<std::ptrdiff_t>(hi));
    const auto owned = d.redistribute(c, std::move(mine));
    for (const Vec3& p : owned) EXPECT_EQ(d.owner_of(p), c.rank());
    const double total = c.allreduce_sum(static_cast<double>(owned.size()));
    EXPECT_DOUBLE_EQ(total, 4000.0);
  });
}

TEST(Decomposition, GhostExchangeCoversPaddedRegion) {
  const auto set = generate_uniform(6000, 16.0, 23);
  const double radius = 1.5;
  simmpi::run(8, [&](simmpi::Comm& c) {
    Decomposition d(8, 16.0);
    std::vector<Vec3> owned;
    for (const Vec3& p : set.positions)
      if (d.owner_of(p) == c.rank()) owned.push_back(p);
    const auto with_ghosts = d.exchange_ghosts(c, owned, radius);
    EXPECT_GT(with_ghosts.size(), owned.size());

    // Every global particle within `radius` of my sub-volume (periodic) must
    // be present (as an unwrapped image). Count by brute force.
    const Vec3 lo = d.sub_lo(c.rank()), hi = d.sub_hi(c.rank());
    auto near_me = [&](const Vec3& p) {
      auto dist_dim = [&](double v, double l, double h) {
        // periodic distance from v to interval [l, h)
        double best = 1e300;
        for (double s : {-16.0, 0.0, 16.0}) {
          const double x = v + s;
          if (x >= l && x < h) return 0.0;
          best = std::min(best, std::min(std::abs(x - l), std::abs(x - h)));
        }
        return best;
      };
      return dist_dim(p.x, lo.x, hi.x) <= radius &&
             dist_dim(p.y, lo.y, hi.y) <= radius &&
             dist_dim(p.z, lo.z, hi.z) <= radius;
    };
    std::size_t expected = 0;
    for (const Vec3& p : set.positions)
      if (near_me(p)) ++expected;
    EXPECT_GE(with_ghosts.size() + 2, expected);  // boundary-equality slack

    // All ghosts lie within the padded box (unwrapped coordinates).
    for (const Vec3& p : with_ghosts) {
      EXPECT_GE(p.x, lo.x - radius - 1e-9);
      EXPECT_LE(p.x, hi.x + radius + 1e-9);
      EXPECT_GE(p.y, lo.y - radius - 1e-9);
      EXPECT_LE(p.z, hi.z + radius + 1e-9);
    }
  });
}

TEST(Decomposition, SingleRankGhostsArePeriodicImages) {
  ParticleSet set;
  set.box_length = 10.0;
  set.positions = {{0.5, 5, 5}, {9.5, 5, 5}, {5, 5, 5}};
  simmpi::run(1, [&](simmpi::Comm& c) {
    Decomposition d(1, 10.0);
    const auto all = d.exchange_ghosts(c, set.positions, 1.0);
    // The particle at 0.5 must also appear at 10.5; 9.5 at −0.5.
    bool right_image = false, left_image = false;
    for (const Vec3& p : all) {
      if (std::abs(p.x - 10.5) < 1e-12) right_image = true;
      if (std::abs(p.x + 0.5) < 1e-12) left_image = true;
    }
    EXPECT_TRUE(right_image);
    EXPECT_TRUE(left_image);
    EXPECT_EQ(all.size(), 5u);  // 3 owned + 2 images (y,z are interior)
  });
}

TEST(WorkloadModel, RecoversPlantedModels) {
  // Samples generated from known c, α, β must be recovered by the fits.
  Rng rng(5);
  std::vector<WorkSample> samples;
  const double c_true = 3e-7, alpha_true = 2e-6, beta_true = 1.35;
  for (int i = 0; i < 60; ++i) {
    const double n = rng.uniform(1e3, 2e5);
    samples.push_back({n, c_true * n * std::log2(n),
                       alpha_true * std::pow(n, beta_true)});
  }
  const WorkloadModel m = fit_workload_model(samples);
  EXPECT_NEAR(m.c_tri, c_true, 1e-3 * c_true);
  EXPECT_NEAR(m.interp.beta, beta_true, 1e-3);
  EXPECT_NEAR(m.interp.alpha, alpha_true, 0.05 * alpha_true);
  // Prediction at a fresh n:
  const double n = 5e4;
  EXPECT_NEAR(m.predict(n),
              c_true * n * std::log2(n) + alpha_true * std::pow(n, beta_true),
              1e-2 * m.predict(n));
}

TEST(WorkloadModel, RobustToNoise) {
  Rng rng(6);
  std::vector<WorkSample> samples;
  for (int i = 0; i < 200; ++i) {
    const double n = rng.uniform(1e3, 1e5);
    const double noise = 1.0 + 0.1 * rng.normal();
    samples.push_back({n, 1e-7 * n * std::log2(n) * noise,
                       1e-6 * std::pow(n, 1.2) * noise});
  }
  const WorkloadModel m = fit_workload_model(samples);
  EXPECT_NEAR(m.interp.beta, 1.2, 0.05);
  EXPECT_NEAR(m.c_tri, 1e-7, 0.1e-7);
}

TEST(WorkloadModel, AllgatherPoolsAcrossRanks) {
  simmpi::run(4, [](simmpi::Comm& c) {
    // Each rank holds a different quarter of the samples; all must end with
    // the same pooled fit.
    Rng rng(100 + static_cast<std::uint64_t>(c.rank()));
    std::vector<WorkSample> mine;
    for (int i = 0; i < 25; ++i) {
      const double n = rng.uniform(1e3, 1e5);
      mine.push_back({n, 2e-7 * n * std::log2(n), 3e-6 * std::pow(n, 1.1)});
    }
    const WorkloadModel m = fit_workload_model(c, mine);
    EXPECT_NEAR(m.c_tri, 2e-7, 1e-9);
    EXPECT_NEAR(m.interp.beta, 1.1, 1e-3);
    // identical on all ranks
    const auto all_beta = c.allgather(m.interp.beta);
    for (const double b : all_beta) EXPECT_DOUBLE_EQ(b, m.interp.beta);
  });
}

TEST(Des, PerfectPredictionsLevelPerfectly) {
  // 4 ranks, one overloaded; predictions == actual.
  std::vector<std::vector<double>> items = {
      {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0},  // 8
      {1.0},                                     // 1
      {1.0, 1.0},                                // 2
      {1.0}};                                    // 1
  const DesResult r = simulate_work_sharing(items, items, {});
  EXPECT_DOUBLE_EQ(r.makespan_unbalanced, 8.0);
  EXPECT_DOUBLE_EQ(r.average_work, 3.0);
  // Balanced makespan approaches the average (items are unit-size; the
  // schedule levels to ⟨t⟩ = 3 within one item granularity + latency).
  EXPECT_LE(r.makespan_balanced, 4.1);
  EXPECT_LT(r.busy_std_balanced, r.busy_std_unbalanced);
  EXPECT_GT(r.shipped_work, 0.0);
}

TEST(Des, ImbalanceGrowsWithoutSharing) {
  Rng rng(8);
  std::vector<std::vector<double>> items(16);
  for (std::size_t r = 0; r < 16; ++r) {
    const int n = 1 + static_cast<int>(rng.uniform_index(r == 0 ? 100 : 10));
    for (int i = 0; i < n; ++i)
      items[r].push_back(rng.uniform(0.5, 1.5));
  }
  const DesResult res = simulate_work_sharing(items, items, {});
  EXPECT_LT(res.makespan_balanced, res.makespan_unbalanced);
  EXPECT_GE(res.makespan_balanced, res.average_work - 1e-9);
}

TEST(Des, MispredictionDegradesBalance) {
  // Same actual workload; one run with perfect predictions, one where the
  // heavy rank's items are under-predicted 10× (the paper's "degenerate
  // point configurations" at 16k ranks). Misprediction must hurt.
  std::vector<std::vector<double>> actual(8);
  Rng rng(9);
  for (std::size_t r = 0; r < 8; ++r)
    for (int i = 0; i < (r == 0 ? 64 : 4); ++i)
      actual[r].push_back(rng.uniform(0.8, 1.2));

  auto predicted = actual;
  const DesResult good = simulate_work_sharing(actual, predicted, {});
  for (auto& t : predicted[0]) t *= 0.1;  // model blind to the hotspot
  const DesResult bad = simulate_work_sharing(actual, predicted, {});
  EXPECT_GT(bad.makespan_balanced, good.makespan_balanced * 1.5);
}

TEST(Des, ScalesTo16kRanks) {
  // Pure scheduling simulation at the paper's largest scale.
  Rng rng(10);
  const std::size_t P = 16384;
  std::vector<std::vector<double>> items(P);
  for (std::size_t r = 0; r < P; ++r) {
    const std::size_t n = 1 + rng.uniform_index(20);
    for (std::size_t i = 0; i < n; ++i)
      items[r].push_back(std::pow(rng.uniform(), 3.0) * 5.0 + 0.01);
  }
  const DesResult res = simulate_work_sharing(items, items, {});
  EXPECT_LT(res.makespan_balanced, res.makespan_unbalanced);
  EXPECT_EQ(res.finish_times.size(), P);
}

TEST(Pipeline, EndToEndMultiRank) {
  // Full four-phase pipeline over 8 thread ranks on a clustered box.
  HaloModelOptions hopt;
  hopt.n_particles = 30000;
  hopt.box_length = 32.0;
  hopt.n_halos = 12;
  hopt.seed = 31;
  const ParticleSet set = generate_halo_model(hopt);

  // Field centers at random particles (clustered requests).
  Rng rng(12);
  std::vector<Vec3> centers;
  for (int i = 0; i < 24; ++i)
    centers.push_back(
        set.positions[rng.uniform_index(set.positions.size())]);

  PipelineOptions opt;
  opt.field_length = 3.0;
  opt.field_resolution = 24;
  opt.keep_grids = true;
  opt.load_balance = true;

  simmpi::run(8, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    // Accounting: every rank computed what it claims.
    EXPECT_EQ(res.items.size(), res.grids.size());
    // Totals across ranks: all requests computed exactly once.
    const double computed =
        c.allreduce_sum(static_cast<double>(res.items.size()));
    EXPECT_DOUBLE_EQ(computed, 24.0);
    const double sent = c.allreduce_sum(static_cast<double>(res.items_sent));
    const double received = c.allreduce_sum(static_cast<double>(
        std::count_if(res.items.begin(), res.items.end(),
                      [](const ItemRecord& it) {
                        return it.path == ItemPath::kReceived;
                      })));
    EXPECT_DOUBLE_EQ(sent, received);
    // Each rank owns its full particle complement.
    const double owned =
        c.allreduce_sum(static_cast<double>(res.owned_particles));
    EXPECT_DOUBLE_EQ(owned, 30000.0);
    // Rendered grids hold finite, non-negative surface densities.
    for (const FieldGrid& g : res.grids)
      for (const double v : g.plane(0).values()) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_GE(v, -1e-9);
      }
  });
}

TEST(Pipeline, BalancedMatchesUnbalancedResults) {
  // Work sharing must not change WHAT is computed: the multiset of
  // (center → grid checksum) is identical with and without balancing.
  HaloModelOptions hopt;
  hopt.n_particles = 15000;
  hopt.box_length = 24.0;
  hopt.n_halos = 6;
  hopt.seed = 77;
  const ParticleSet set = generate_halo_model(hopt);
  Rng rng(13);
  std::vector<Vec3> centers;
  for (int i = 0; i < 12; ++i)
    centers.push_back(set.positions[rng.uniform_index(set.positions.size())]);

  PipelineOptions opt;
  opt.field_length = 2.5;
  opt.field_resolution = 16;
  opt.keep_grids = true;

  auto run_once = [&](bool balance) {
    std::vector<std::pair<double, double>> sums;  // (center key, grid sum)
    std::mutex mtx;
    PipelineOptions o = opt;
    o.load_balance = balance;
    simmpi::run(4, [&](simmpi::Comm& c) {
      const PipelineResult res = run_pipeline(c, set, centers, o);
      std::lock_guard<std::mutex> lock(mtx);
      for (std::size_t i = 0; i < res.items.size(); ++i)
        sums.push_back({res.items[i].center.x * 1e6 +
                            res.items[i].center.y * 1e3 +
                            res.items[i].center.z,
                        res.grids[i].sum()});
    });
    std::sort(sums.begin(), sums.end());
    return sums;
  };

  const auto balanced = run_once(true);
  const auto unbalanced = run_once(false);
  ASSERT_EQ(balanced.size(), unbalanced.size());
  for (std::size_t i = 0; i < balanced.size(); ++i) {
    EXPECT_NEAR(balanced[i].first, unbalanced[i].first, 1e-9);
    EXPECT_NEAR(balanced[i].second, unbalanced[i].second,
                1e-6 * (std::abs(balanced[i].second) + 1.0));
  }
}

TEST(Pipeline, SingleRankDegeneratesGracefully) {
  const ParticleSet set = generate_uniform(8000, 16.0, 41);
  std::vector<Vec3> centers = {{4, 4, 4}, {12, 12, 12}, {8, 8, 8}};
  PipelineOptions opt;
  opt.field_length = 4.0;
  opt.field_resolution = 16;
  opt.keep_grids = true;
  simmpi::run(1, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    EXPECT_EQ(res.items.size(), 3u);
    EXPECT_EQ(res.items_sent, 0u);
    for (const auto& item : res.items)
      EXPECT_EQ(item.path, ItemPath::kLocal);
    for (const auto& item : res.items) EXPECT_GT(item.n_particles, 100.0);
  });
}

TEST(Pipeline, EmptyRegionsYieldZeroGrids) {
  // Requests in empty space must come back as all-zero grids, not errors.
  ParticleSet set;
  set.box_length = 50.0;
  Rng rng(55);
  for (int i = 0; i < 5000; ++i)  // particles only in one corner blob
    set.positions.push_back(wrap_periodic(
        Vec3{5 + rng.normal(), 5 + rng.normal(), 5 + rng.normal()}, 50.0));
  std::vector<Vec3> centers = {{40, 40, 40}, {5, 5, 5}};
  PipelineOptions opt;
  opt.field_length = 4.0;
  opt.field_resolution = 16;
  opt.keep_grids = true;
  simmpi::run(2, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    for (std::size_t i = 0; i < res.items.size(); ++i) {
      if (res.items[i].n_particles < 32)
        EXPECT_DOUBLE_EQ(res.grids[i].sum(), 0.0);
      else
        EXPECT_GT(res.grids[i].sum(), 0.0);
    }
  });
}

}  // namespace
}  // namespace dtfe
