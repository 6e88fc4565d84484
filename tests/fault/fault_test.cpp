// Fault-tolerance test suite: fault-plan grammar, contained degenerate work
// items, input hardening (bad particles, malformed snapshots), the targeted
// snapshot cube re-read, and the end-to-end acceptance scenario — a fault
// plan that kills one receiver mid-execution and drops one work package at
// 8 ranks must still complete every field with the surviving checksums
// identical to a fault-free run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "framework/decomposition.h"
#include "framework/pipeline.h"
#include "framework/workload_model.h"
#include "nbody/fof.h"
#include "nbody/generators.h"
#include "nbody/particles.h"
#include "nbody/snapshot_io.h"
#include "simmpi/comm.h"
#include "simmpi/fault.h"
#include "util/error.h"
#include "util/rng.h"

namespace dtfe {
namespace {

using simmpi::FaultAction;
using simmpi::FaultPlan;

// ---- fault-plan grammar -----------------------------------------------------

TEST(FaultPlanParse, FullGrammar) {
  const FaultPlan plan =
      FaultPlan::parse("kill:rank=2,tag=200,at=3;drop:src=0,dst=3,nth=2;seed=7");
  ASSERT_EQ(plan.rules.size(), 2u);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.rules[0].action, FaultAction::kKill);
  EXPECT_EQ(plan.rules[0].rank, 2);
  EXPECT_EQ(plan.rules[0].tag, 200);
  EXPECT_EQ(plan.rules[0].at, 3u);
  EXPECT_EQ(plan.rules[1].action, FaultAction::kDrop);
  EXPECT_EQ(plan.rules[1].src, 0);
  EXPECT_EQ(plan.rules[1].dst, 3);
  EXPECT_EQ(plan.rules[1].nth, 2u);
  EXPECT_EQ(plan.rules[1].tag, -1);
}

TEST(FaultPlanParse, DefaultsAreFilledIn) {
  const FaultPlan plan = FaultPlan::parse("flip:src=1,dst=0;trunc:src=0,dst=1");
  ASSERT_EQ(plan.rules.size(), 2u);
  EXPECT_EQ(plan.rules[0].nth, 1u);   // first matching message
  EXPECT_EQ(plan.rules[0].byte, -1);  // seeded choice
  EXPECT_EQ(plan.rules[0].bit, -1);
  EXPECT_EQ(plan.rules[1].bytes, 0u);  // trunc default: keep half
  EXPECT_EQ(FaultPlan::parse("kill:rank=0").rules[0].at, 1u);
}

TEST(FaultPlanParse, EmptySpecIsAnEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlanParse, RejectsMalformedClauses) {
  EXPECT_THROW(FaultPlan::parse("kill:at=1"), Error);          // missing rank
  EXPECT_THROW(FaultPlan::parse("zap:src=0,dst=1"), Error);    // unknown action
  EXPECT_THROW(FaultPlan::parse("drop:src=0"), Error);         // missing dst
  EXPECT_THROW(FaultPlan::parse("delay:src=0,dst=1"), Error);  // missing ms
  EXPECT_THROW(FaultPlan::parse("drop:src=0,dst=1,nth=zero"), Error);
  EXPECT_THROW(FaultPlan::parse("drop:src=0,dst=1,volume=11"), Error);
  EXPECT_THROW(FaultPlan::parse("flip:src=0,dst=1,bit=9"), Error);
}

// ---- contained degenerate work items (compute_field_item) --------------------

PipelineOptions item_options() {
  PipelineOptions opt;
  opt.field_length = 2.0;
  opt.field_resolution = 8;
  return opt;
}

void expect_contained(const std::vector<Vec3>& pts, const Vec3& center) {
  const PipelineOptions opt = item_options();
  ItemRecord rec;
  const FieldGrid g = compute_field_item(pts, 1.0, center, opt, rec);
  EXPECT_TRUE(rec.failed);
  EXPECT_FALSE(rec.fail_reason.empty());
  ASSERT_EQ(g.plane(0).values().size(),
            opt.field_resolution * opt.field_resolution);
  for (const double v : g.plane(0).values()) EXPECT_EQ(v, 0.0);
}

TEST(ItemContainment, CoplanarPointsYieldContainedZeroItem) {
  std::vector<Vec3> pts;  // a 7×7 planar grid: no 3D triangulation exists
  for (int ix = 0; ix < 7; ++ix)
    for (int iy = 0; iy < 7; ++iy)
      pts.push_back({0.1 * ix, 0.1 * iy, 0.5});
  expect_contained(pts, {0.3, 0.3, 0.5});
}

TEST(ItemContainment, AllDuplicatePointsYieldContainedZeroItem) {
  const std::vector<Vec3> pts(40, Vec3{1.0, 1.0, 1.0});
  expect_contained(pts, {1.0, 1.0, 1.0});
}

TEST(ItemContainment, FewerThanFourUniquePointsYieldContainedZeroItem) {
  std::vector<Vec3> pts;  // 36 points but only 3 distinct locations
  for (int i = 0; i < 12; ++i) {
    pts.push_back({0.0, 0.0, 0.0});
    pts.push_back({1.0, 0.0, 0.0});
    pts.push_back({0.0, 1.0, 0.0});
  }
  expect_contained(pts, {0.3, 0.3, 0.0});
}

TEST(ItemContainment, NonFinitePositionIsContainedWithReason) {
  Rng rng(42);
  std::vector<Vec3> pts;
  for (int i = 0; i < 40; ++i)
    pts.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                   rng.uniform(0.0, 1.0)});
  pts[17].y = std::numeric_limits<double>::quiet_NaN();
  const PipelineOptions opt = item_options();
  ItemRecord rec;
  const FieldGrid g = compute_field_item(pts, 1.0, {0.5, 0.5, 0.5}, opt, rec);
  EXPECT_TRUE(rec.failed);
  EXPECT_NE(rec.fail_reason.find("non-finite"), std::string::npos)
      << rec.fail_reason;
  for (const double v : g.plane(0).values()) EXPECT_EQ(v, 0.0);
}

TEST(ItemContainment, SparseCubeIsAnExpectedZeroNotAFailure) {
  const std::vector<Vec3> pts(5, Vec3{0.5, 0.5, 0.5});  // < min_particles
  const PipelineOptions opt = item_options();
  ItemRecord rec;
  const FieldGrid g = compute_field_item(pts, 1.0, {0.5, 0.5, 0.5}, opt, rec);
  EXPECT_FALSE(rec.failed);
  for (const double v : g.plane(0).values()) EXPECT_EQ(v, 0.0);
}

// ---- degenerate workload-model fits ------------------------------------------

TEST(WorkloadModelFault, UnusableSamplesAreFlaggedDegenerate) {
  const std::vector<WorkSample> bad = {{1.0, 0.0, 0.0}, {0.0, 0.0, 0.0}};
  const WorkloadModel m =
      fit_workload_model(std::span<const WorkSample>(bad));
  EXPECT_TRUE(m.degenerate());

  std::vector<WorkSample> good;
  for (int i = 2; i < 10; ++i) {
    const double n = 100.0 * i;
    good.push_back({n, 1e-3 * n * std::log2(n), 1e-4 * std::pow(n, 1.2)});
  }
  EXPECT_FALSE(
      fit_workload_model(std::span<const WorkSample>(good)).degenerate());
}

// ---- input hardening: particle sanitization -----------------------------------

std::vector<Vec3> three_good_two_bad() {
  return {{1.0, 2.0, 3.0},
          {std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0},
          {4.0, 5.0, 6.0},
          {12.0, 3.0, 3.0},  // outside box 10
          {7.0, 8.0, 9.0}};
}

TEST(InputHardening, RejectPolicyThrowsWithFullCounts) {
  auto pts = three_good_two_bad();
  try {
    sanitize_positions(pts, 10.0, BadParticlePolicy::kReject);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 non-finite"), std::string::npos) << what;
    EXPECT_NE(what.find("1 out-of-box"), std::string::npos) << what;
    EXPECT_NE(what.find("--bad-particles"), std::string::npos) << what;
  }
}

TEST(InputHardening, DropPolicyRemovesBadParticles) {
  auto pts = three_good_two_bad();
  const SanitizeCounts c =
      sanitize_positions(pts, 10.0, BadParticlePolicy::kDrop);
  EXPECT_EQ(c.non_finite, 1u);
  EXPECT_EQ(c.out_of_box, 1u);
  EXPECT_EQ(c.dropped, 2u);
  EXPECT_EQ(pts.size(), 3u);
}

TEST(InputHardening, ClampPolicyWrapsAndDropsNonFinite) {
  auto pts = three_good_two_bad();
  const SanitizeCounts c =
      sanitize_positions(pts, 10.0, BadParticlePolicy::kClamp);
  EXPECT_EQ(c.clamped, 1u);
  EXPECT_EQ(c.dropped, 1u);  // the NaN: nothing sane to clamp to
  ASSERT_EQ(pts.size(), 4u);
  for (const Vec3& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 10.0);
  }
  EXPECT_DOUBLE_EQ(pts[2].x, 2.0);  // 12 wrapped into [0, 10)
}

// ---- input hardening: snapshot validation -------------------------------------

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(InputHardening, TruncatedSnapshotIsRejectedWithByteCounts) {
  const std::string path = temp_path("fault_test_trunc_snap.bin");
  write_snapshot(path, generate_uniform(2000, 10.0, 5), 2);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 64);
  try {
    (void)read_snapshot_header(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("is truncated"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(InputHardening, BadMagicIsRejected) {
  const std::string path = temp_path("fault_test_bad_magic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const std::vector<char> junk(256, 0x5a);
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  try {
    (void)read_snapshot_header(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(InputHardening, BlockIndexOutOfRangeIsRejected) {
  const std::string path = temp_path("fault_test_block_range.bin");
  write_snapshot(path, generate_uniform(500, 10.0, 5), 2);
  const SnapshotHeader h = read_snapshot_header(path);
  EXPECT_THROW((void)read_snapshot_block(path, h, 99), Error);
  std::filesystem::remove(path);
}

TEST(SnapshotCube, MatchesExtractCubeAcrossPeriodicBoundary) {
  const ParticleSet set = generate_uniform(3000, 12.0, 9);
  const std::string path = temp_path("fault_test_cube_snap.bin");
  write_snapshot(path, set, 3);
  const SnapshotHeader h = read_snapshot_header(path);

  // The cube straddles the x and y periodic boundaries.
  const Vec3 center{1.0, 11.0, 6.0};
  const double side = 4.0;
  auto from_file = read_snapshot_cube(path, h, center, side);
  auto from_mem = extract_cube(set, center, side);

  const auto less = [](const Vec3& a, const Vec3& b) {
    if (a.x != b.x) return a.x < b.x;
    if (a.y != b.y) return a.y < b.y;
    return a.z < b.z;
  };
  std::sort(from_file.begin(), from_file.end(), less);
  std::sort(from_mem.begin(), from_mem.end(), less);
  ASSERT_EQ(from_file.size(), from_mem.size());
  ASSERT_GT(from_file.size(), 0u);
  for (std::size_t i = 0; i < from_file.size(); ++i) {
    EXPECT_DOUBLE_EQ(from_file[i].x, from_mem[i].x);
    EXPECT_DOUBLE_EQ(from_file[i].y, from_mem[i].y);
    EXPECT_DOUBLE_EQ(from_file[i].z, from_mem[i].z);
  }
  std::filesystem::remove(path);
}

// ---- input hardening through the pipeline -------------------------------------

TEST(InputHardening, PipelineRejectsBadParticlesByDefault) {
  ParticleSet set = generate_uniform(2000, 16.0, 11);
  set.positions[10].x = std::numeric_limits<double>::quiet_NaN();
  PipelineOptions opt;
  opt.field_length = 3.0;
  opt.field_resolution = 8;
  const std::vector<Vec3> centers = {{8.0, 8.0, 8.0}};
  EXPECT_THROW(simmpi::run(1,
                           [&](simmpi::Comm& c) {
                             (void)run_pipeline(c, set, centers, opt);
                           }),
               Error);
}

TEST(InputHardening, PipelineDropPolicyCompletesAndCounts) {
  ParticleSet set = generate_uniform(4000, 16.0, 11);
  set.positions[10] = {std::numeric_limits<double>::infinity(), 1.0, 1.0};
  set.positions[20] = {20.0, 5.0, 5.0};  // outside the box
  PipelineOptions opt;
  opt.field_length = 3.0;
  opt.field_resolution = 16;
  opt.bad_particles = BadParticlePolicy::kDrop;
  const std::vector<Vec3> centers = {
      {4.0, 4.0, 4.0}, {8.0, 8.0, 8.0}, {12.0, 12.0, 12.0}};

  std::mutex mtx;
  std::size_t total_dropped = 0;
  std::set<std::ptrdiff_t> completed;
  simmpi::run(2, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    const std::lock_guard<std::mutex> lock(mtx);
    total_dropped += res.bad_particles.dropped;
    for (const ItemRecord& it : res.items)
      if (it.request_index >= 0) completed.insert(it.request_index);
  });
  EXPECT_EQ(total_dropped, 2u);
  EXPECT_EQ(completed.size(), centers.size());
}

// ---- end-to-end acceptance: receiver death + dropped package ------------------

/// How many of a rank's recorded items took `path`.
std::size_t count_path(const PipelineResult& res, ItemPath path) {
  return static_cast<std::size_t>(
      std::count_if(res.items.begin(), res.items.end(),
                    [path](const ItemRecord& it) { return it.path == path; }));
}

/// One octant of the 32³ box gets a dense 20k-particle cluster (a guaranteed
/// sender under the workload model); the others get distinct light loads so
/// the receiver ranking — and therefore the schedule — is deterministic.
ParticleSet clustered_set() {
  ParticleSet set;
  set.box_length = 32.0;
  set.particle_mass = 1.0;
  Rng rng(1234);
  for (int i = 0; i < 20000; ++i)
    set.positions.push_back({rng.uniform(5.0, 11.0), rng.uniform(5.0, 11.0),
                             rng.uniform(5.0, 11.0)});
  for (int o = 0; o < 8; ++o) {
    const double ox = (o & 1) ? 16.0 : 0.0;
    const double oy = (o & 2) ? 16.0 : 0.0;
    const double oz = (o & 4) ? 16.0 : 0.0;
    const int n = 4000 + 400 * o;
    for (int i = 0; i < n; ++i)
      set.positions.push_back({ox + rng.uniform(0.5, 15.5),
                               oy + rng.uniform(0.5, 15.5),
                               oz + rng.uniform(0.5, 15.5)});
  }
  return set;
}

std::vector<Vec3> clustered_centers() {
  // 12 items inside the dense cluster: fine-grained enough that the sender's
  // bin packing can actually ship several of them in work packages (a couple
  // of huge items would each overflow every send bin and stay local).
  std::vector<Vec3> centers;
  for (int ix = 0; ix < 3; ++ix)
    for (int iy = 0; iy < 2; ++iy)
      for (int iz = 0; iz < 2; ++iz)
        centers.push_back({6.0 + 2.0 * ix, 7.0 + 2.0 * iy, 7.0 + 2.0 * iz});
  for (int o = 1; o < 8; ++o) {
    const double ox = (o & 1) ? 16.0 : 0.0;
    const double oy = (o & 2) ? 16.0 : 0.0;
    const double oz = (o & 4) ? 16.0 : 0.0;
    centers.push_back({ox + 5.0, oy + 8.0, oz + 8.0});
    centers.push_back({ox + 8.0, oy + 8.0, oz + 8.0});
    centers.push_back({ox + 11.0, oy + 8.0, oz + 8.0});
  }
  return centers;
}

TEST(FaultPipeline, SurvivesReceiverDeathAndDroppedPackageAtEightRanks) {
  const ParticleSet set = clustered_set();
  const std::vector<Vec3> centers = clustered_centers();
  PipelineOptions opt;
  opt.field_length = 3.0;
  opt.field_resolution = 16;
  opt.comm_timeout_ms = 500;

  // Discovery run (fault-free): record the per-field checksums and find a
  // rank that actually receives a work package plus its first sender.
  std::mutex mtx;
  std::map<std::ptrdiff_t, double> base_sums;
  std::map<int, int> receiver_to_sender;
  simmpi::run(8, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    const std::lock_guard<std::mutex> lock(mtx);
    for (const ItemRecord& it : res.items)
      if (it.request_index >= 0) base_sums[it.request_index] = it.grid_sum;
    if (!res.schedule.recv_list.empty())
      receiver_to_sender[c.rank()] = res.schedule.recv_list[0];
  });
  ASSERT_EQ(base_sums.size(), centers.size());
  ASSERT_FALSE(receiver_to_sender.empty())
      << "the clustered workload produced no work-sharing receiver";
  const int receiver = receiver_to_sender.begin()->first;
  const int sender = receiver_to_sender.begin()->second;

  // Fault run: the receiver dies at its first work-package operation AND the
  // package headed its way is dropped in flight. The survivors must
  // recompute in the recovery phase both the dead rank's own items and the
  // items shipped to it.
  const FaultPlan plan = FaultPlan::parse(
      "kill:rank=" + std::to_string(receiver) + ",tag=200,at=1;drop:src=" +
      std::to_string(sender) + ",dst=" + std::to_string(receiver) +
      ",nth=1,tag=200");
  simmpi::RunOptions run_opts;
  run_opts.fault_plan = &plan;

  std::map<std::ptrdiff_t, double> fault_sums;
  std::map<std::ptrdiff_t, int> commits;
  std::set<int> dead;
  std::size_t recovered = 0, recovered_shipped = 0, failed = 0;
  const Decomposition decomp(8, set.box_length);
  simmpi::run(8, run_opts, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    const std::lock_guard<std::mutex> lock(mtx);
    for (const ItemRecord& it : res.items) {
      if (it.request_index >= 0) fault_sums[it.request_index] = it.grid_sum;
      ++commits[it.request_index];
      failed += it.failed;
      if (it.path != ItemPath::kRecover) continue;
      ++recovered;
      // A recovered request that a live rank owns was shipped: the sender
      // forgot it, and the dead receiver never committed it.
      const Vec3 center = centers[static_cast<std::size_t>(it.request_index)];
      recovered_shipped +=
          decomp.owner_of(wrap_periodic(center, set.box_length)) != receiver;
    }
    for (const int r : res.failed_ranks) dead.insert(r);
  });

  // Every field has a grid despite the dead rank and the lost package.
  EXPECT_EQ(fault_sums.size(), centers.size());
  EXPECT_EQ(dead, std::set<int>{receiver});
  EXPECT_GT(recovered, 0u) << "the dead rank's items were never recomputed";
  EXPECT_GT(recovered_shipped, 0u)
      << "the dropped package's items never came back through recovery";
  for (const auto& [id, n] : commits)
    EXPECT_EQ(n, 1) << "field " << id << " committed " << n << " times";
  EXPECT_EQ(failed, 0u);

  // Surviving checksums match the fault-free run.
  for (const auto& [id, base] : base_sums) {
    ASSERT_TRUE(fault_sums.count(id)) << "field " << id << " missing";
    EXPECT_NEAR(fault_sums[id], base, 1e-6 * std::max(1.0, std::abs(base)))
        << "field " << id;
  }
}

bool bitwise_equal(const FieldGrid& a, const FieldGrid& b) {
  if (a.kind() != b.kind() || a.channels() != b.channels()) return false;
  for (std::size_t c = 0; c < a.channels(); ++c) {
    const auto& av = a.plane(c).values();
    const auto& bv = b.plane(c).values();
    if (av.size() != bv.size() ||
        std::memcmp(av.data(), bv.data(), av.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

// Kill a work-sharing receiver mid-run: the survivors recompute its items in
// RecoverStage to grids bitwise identical to an undisturbed run (the
// canonical cube order and per-item seeds make every data path replay the
// same render).
TEST(FaultPipeline, ReceiverKillRecoversBitwiseIdenticalToUndisturbedRun) {
  const ParticleSet set = clustered_set();
  const std::vector<Vec3> centers = clustered_centers();
  PipelineOptions opt;
  opt.field_length = 3.0;
  opt.field_resolution = 16;
  opt.comm_timeout_ms = 500;
  opt.keep_grids = true;

  // Undisturbed baseline; also discover a receiver to kill.
  std::mutex mtx;
  std::map<std::ptrdiff_t, FieldGrid> baseline;
  std::map<int, int> receiver_to_sender;
  simmpi::run(4, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    const std::lock_guard<std::mutex> lock(mtx);
    for (std::size_t i = 0; i < res.items.size(); ++i)
      if (res.items[i].request_index >= 0)
        baseline.emplace(res.items[i].request_index, res.grids[i]);
    if (!res.schedule.recv_list.empty())
      receiver_to_sender[c.rank()] = res.schedule.recv_list[0];
  });
  ASSERT_EQ(baseline.size(), centers.size());
  ASSERT_FALSE(receiver_to_sender.empty())
      << "the clustered workload produced no work-sharing receiver";

  // The receiver dies at its first work-package operation.
  const int receiver = receiver_to_sender.begin()->first;
  const FaultPlan plan = FaultPlan::parse(
      "kill:rank=" + std::to_string(receiver) + ",tag=200,at=1");
  simmpi::RunOptions run_opts;
  run_opts.fault_plan = &plan;
  std::map<std::ptrdiff_t, FieldGrid> recovered;
  std::size_t items_recovered = 0;
  std::set<int> dead;
  simmpi::run(4, run_opts, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    const std::lock_guard<std::mutex> lock(mtx);
    items_recovered += count_path(res, ItemPath::kRecover);
    for (const int r : res.failed_ranks) dead.insert(r);
    for (std::size_t i = 0; i < res.items.size(); ++i)
      if (res.items[i].request_index >= 0)
        recovered.emplace(res.items[i].request_index, res.grids[i]);
  });
  EXPECT_EQ(dead, std::set<int>{receiver}) << "the fault plan did not fire";
  EXPECT_GT(items_recovered, 0u) << "nothing was recovered";
  ASSERT_EQ(recovered.size(), centers.size());
  for (const auto& [id, ref] : baseline) {
    ASSERT_TRUE(recovered.count(id)) << "field " << id << " missing";
    EXPECT_TRUE(bitwise_equal(recovered.at(id), ref))
        << "field " << id << " not bitwise identical after recovery";
  }
}

// Damage one work package in flight at fixed byte positions: the receiver
// must reject it and count it lost, recovery must recompute its items, and
// the run must end with the undisturbed checksum. A package is a 24-byte
// header (magic, checksum, payload length), then the item count at byte 24,
// then per item the request index, the center, the particle count and the
// particles from byte 72 on, 24 bytes each.
TEST(FaultPipeline, DamagedPackagesAreRecoveredAndEndWithTheUndisturbedChecksum) {
  const ParticleSet set = clustered_set();
  const std::vector<Vec3> centers = clustered_centers();
  PipelineOptions opt;
  opt.field_length = 3.0;
  opt.field_resolution = 16;
  opt.comm_timeout_ms = 500;

  struct Outcome {
    std::map<std::ptrdiff_t, double> sums;
    std::map<int, std::size_t> lost;  ///< packages_lost per rank
    std::set<int> dead;
    std::map<int, int> receiver_to_sender;
    double checksum() const {
      double total = 0.0;
      for (const auto& [id, s] : sums) total += s;
      return total;
    }
  };
  const auto run_with = [&](const FaultPlan* plan) {
    std::mutex mtx;
    Outcome out;
    simmpi::RunOptions run_opts;
    run_opts.fault_plan = plan;
    simmpi::run(4, run_opts, [&](simmpi::Comm& c) {
      const PipelineResult res = run_pipeline(c, set, centers, opt);
      const std::lock_guard<std::mutex> lock(mtx);
      for (const ItemRecord& it : res.items)
        if (it.request_index >= 0) out.sums[it.request_index] = it.grid_sum;
      out.lost[c.rank()] = res.packages_lost;
      out.dead.insert(res.failed_ranks.begin(), res.failed_ranks.end());
      if (!res.schedule.recv_list.empty())
        out.receiver_to_sender[c.rank()] = res.schedule.recv_list[0];
    });
    return out;
  };

  const Outcome base = run_with(nullptr);
  ASSERT_EQ(base.sums.size(), centers.size());
  ASSERT_FALSE(base.receiver_to_sender.empty())
      << "the clustered workload produced no work-sharing receiver";
  // Pinned: the package encoding must not move a grid bit.
  EXPECT_EQ(base.checksum(), 0x1.8c85a2736c785p+19) << std::hexfloat << base.checksum();
  const int receiver = base.receiver_to_sender.begin()->first;
  const int sender = base.receiver_to_sender.begin()->second;
  const std::string pair = "src=" + std::to_string(sender) +
                           ",dst=" + std::to_string(receiver) +
                           ",nth=1,tag=200,";
  const char* damages[] = {
      "trunc:bytes=20",  // inside the header
      "flip:byte=2,bit=3",  // the magic
      "flip:byte=17,bit=0",  // the payload length
      "trunc:bytes=28",  // inside the item count
      "flip:byte=24,bit=0",  // the item count
      "trunc:bytes=264",  // the 9th particle
      "flip:byte=264,bit=5",
      "flip:byte=1099511627776,bit=7",  // clamped to the last byte
  };
  for (const char* damage : damages) {
    const std::string d = damage;
    const std::size_t colon = d.find(':');
    const std::string spec = d.substr(0, colon + 1) + pair + d.substr(colon + 1);
    const FaultPlan plan = FaultPlan::parse(spec);
    const Outcome hit = run_with(&plan);
    EXPECT_TRUE(hit.dead.empty()) << spec;
    // The damage is seen: the receiver counts the package lost.
    EXPECT_GE(hit.lost.count(receiver) ? hit.lost.at(receiver) : 0u, 1u)
        << spec << ": the damaged package was not counted lost";
    EXPECT_EQ(hit.sums.size(), centers.size()) << spec;
    EXPECT_EQ(hit.checksum(), base.checksum())
        << spec << ": " << std::hexfloat << hit.checksum();
  }
}

// Every request is committed by exactly one live rank, whichever way its
// grid got there. Two cases on the fault matrix's halo snapshot: two ranks
// with a 1 ms comm timeout, where the receiver may still be busy with its
// own items when its sender is done, or may stop waiting before the package
// arrives, and eight ranks with a receiver killed and another package
// dropped. Each grid checksum must equal the fault-free run's.
TEST(FaultPipeline, EveryRequestIsCommittedOnce) {
  HaloModelOptions gen;  // pdtfe generate --kind halo --n 60000 --box 64 --seed 3
  gen.n_particles = 60000;
  gen.box_length = 64.0;
  gen.n_halos = 24;
  gen.seed = 3;
  const std::string path = temp_path("fault_test_committed_once.bin");
  write_snapshot(path, generate_halo_model(gen), 4);
  std::vector<Vec3> centers;
  for (const FofGroup& g : find_fof_groups(read_snapshot(path)))
    if (centers.size() < 24) centers.push_back(g.center);
  ASSERT_EQ(centers.size(), 24u);

  struct Outcome {
    std::map<std::ptrdiff_t, std::vector<double>> commits;  ///< grid sums
    std::set<int> dead;
    std::size_t recovered = 0;
  };
  const auto run_with = [&](int ranks, const PipelineOptions& opt,
                            const FaultPlan* plan) {
    std::mutex mtx;
    Outcome out;
    simmpi::RunOptions run_opts;
    run_opts.fault_plan = plan;
    simmpi::run(ranks, run_opts, [&](simmpi::Comm& c) {
      const PipelineResult res =
          run_pipeline_from_snapshot(c, path, centers, opt);
      const std::lock_guard<std::mutex> lock(mtx);
      for (const ItemRecord& it : res.items)
        out.commits[it.request_index].push_back(it.grid_sum);
      out.dead.insert(res.failed_ranks.begin(), res.failed_ranks.end());
      out.recovered += count_path(res, ItemPath::kRecover);
    });
    return out;
  };
  const auto expect_once = [&](const Outcome& base, const Outcome& hit,
                               const char* label) {
    ASSERT_EQ(base.commits.size(), centers.size()) << label;
    EXPECT_EQ(hit.commits.size(), centers.size()) << label;
    for (const auto& [id, sums] : hit.commits) {
      EXPECT_EQ(sums.size(), 1u) << label << ": field " << id
                                 << " committed " << sums.size() << " times";
      ASSERT_TRUE(base.commits.count(id)) << label << ": field " << id;
      for (const double sum : sums)
        EXPECT_EQ(sum, base.commits.at(id).front())
            << label << ": field " << id;
    }
  };

  PipelineOptions opt;  // pdtfe pipeline --length 3 --grid 32 --threads 4
  opt.field_length = 3.0;
  opt.field_resolution = 32;
  opt.threads = 4;
  const Outcome base2 = run_with(2, opt, nullptr);
  // Whether the package is late depends on how the two ranks' timings fall,
  // so the run is repeated.
  opt.comm_timeout_ms = 1;
  for (int rep = 0; rep < 5; ++rep)
    expect_once(base2, run_with(2, opt, nullptr), "2 ranks, 1 ms timeout");

  // The fault matrix's kill + drop plan at its field size.
  opt = PipelineOptions{};
  opt.field_length = 5.0;
  opt.field_resolution = 48;
  opt.comm_timeout_ms = 500;
  const Outcome base8 = run_with(8, opt, nullptr);
  const FaultPlan plan =
      FaultPlan::parse("kill:rank=5,tag=200,at=1;drop:src=7,dst=1,nth=1,tag=200");
  const Outcome hit8 = run_with(8, opt, &plan);
  EXPECT_EQ(hit8.dead, std::set<int>{5}) << "the kill did not fire";
  EXPECT_GT(hit8.recovered, 0u);
  expect_once(base8, hit8, "8 ranks, kill + drop");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dtfe
