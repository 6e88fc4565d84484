// Durable-execution test suite (ctest -L durable): checkpoint journal
// crash-consistency (round trip, torn tails, bit damage, first-commit-wins),
// manifest atomicity under concurrent thread-rank writers, the conservation
// audits' negative cases, watchdog cancellation latency, the crash-handler
// item registry, and the end-to-end acceptance scenario — a checkpointed run
// interrupted by a rank kill and damaged journals must resume to final grids
// BITWISE identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dtfe/audit.h"
#include "dtfe/field.h"
#include "framework/crash.h"
#include "framework/durable.h"
#include "framework/pipeline.h"
#include "nbody/particles.h"
#include "simmpi/comm.h"
#include "simmpi/fault.h"
#include "util/bytes.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/rng.h"

namespace dtfe {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the system temp dir, removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Grid2D make_grid(std::size_t n, double scale) {
  Grid2D g(n, n);
  for (std::size_t i = 0; i < g.size(); ++i)
    g.flat(i) = scale * (static_cast<double>(i) + 0.25);
  return g;
}

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  if (a.nx() != b.nx() || a.ny() != b.ny()) return false;
  return std::memcmp(a.values().data(), b.values().data(),
                     a.size() * sizeof(double)) == 0;
}

bool bitwise_equal(const FieldGrid& a, const FieldGrid& b) {
  if (a.kind() != b.kind() || a.channels() != b.channels()) return false;
  for (std::size_t c = 0; c < a.channels(); ++c)
    if (!bitwise_equal(a.plane(c), b.plane(c))) return false;
  return true;
}

bool bitwise_equal(const FieldGrid& a, const Grid2D& b) {
  return a.channels() == 1 && bitwise_equal(a.plane(0), b);
}

// ---- checkpoint journal -----------------------------------------------------

TEST(CheckpointJournal, RoundTripIsBitwise) {
  const ScratchDir dir("pdtfe_ckpt_roundtrip");
  {
    CheckpointWriter w(dir.path(), 0);
    w.append(3, FieldGrid(make_grid(8, 1.0)));
    w.append(7, FieldGrid(make_grid(8, -0.5)));
    w.append(11, FieldGrid(make_grid(4, 1e-300)));
    EXPECT_EQ(w.records_written(), 3);
  }
  const std::vector<CheckpointItem> items = load_checkpoints(dir.path());
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].request_index, 3);
  EXPECT_EQ(items[1].request_index, 7);
  EXPECT_EQ(items[2].request_index, 11);
  EXPECT_TRUE(bitwise_equal(items[0].grid, make_grid(8, 1.0)));
  EXPECT_TRUE(bitwise_equal(items[1].grid, make_grid(8, -0.5)));
  EXPECT_TRUE(bitwise_equal(items[2].grid, make_grid(4, 1e-300)));
}

TEST(CheckpointJournal, TornTailIsDroppedEarlierRecordsSurvive) {
  const ScratchDir dir("pdtfe_ckpt_torn");
  std::string journal;
  {
    CheckpointWriter w(dir.path(), 2);
    w.append(1, FieldGrid(make_grid(8, 1.0)));
    w.append(2, FieldGrid(make_grid(8, 2.0)));
    journal = w.path();
  }
  // A crash mid-write can only tear the LAST record: chop off part of it.
  const auto full = fs::file_size(journal);
  fs::resize_file(journal, full - 37);
  const std::vector<CheckpointItem> items = load_checkpoints(dir.path());
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].request_index, 1);
  EXPECT_TRUE(bitwise_equal(items[0].grid, make_grid(8, 1.0)));
}

TEST(CheckpointJournal, BitDamageStopsReplayAtTheDamagePoint) {
  const ScratchDir dir("pdtfe_ckpt_flip");
  std::string journal;
  {
    CheckpointWriter w(dir.path(), 0);
    w.append(1, FieldGrid(make_grid(8, 1.0)));
    w.append(2, FieldGrid(make_grid(8, 2.0)));
    journal = w.path();
  }
  // Flip one payload byte of the FIRST record: its checksum no longer
  // matches, so that journal contributes nothing from the damage onward.
  FILE* f = std::fopen(journal.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  // header | index/kind/planes/nx/ny | mid-values
  std::fseek(f, 16 + 40 + 5, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
  EXPECT_TRUE(load_checkpoints(dir.path()).empty());
}

TEST(CheckpointJournal, FirstCommitWinsAcrossJournals) {
  const ScratchDir dir("pdtfe_ckpt_dup");
  {
    CheckpointWriter w0(dir.path(), 0);
    w0.append(5, FieldGrid(make_grid(8, 1.0)));
    CheckpointWriter w1(dir.path(), 1);
    // A retry that also committed.
    w1.append(5, FieldGrid(make_grid(8, 99.0)));
    w1.append(6, FieldGrid(make_grid(8, 2.0)));
  }
  const std::vector<CheckpointItem> items = load_checkpoints(dir.path());
  ASSERT_EQ(items.size(), 2u);
  // Journals replay in sorted order, so rank 0's commit of item 5 wins.
  EXPECT_EQ(items[0].request_index, 5);
  EXPECT_TRUE(bitwise_equal(items[0].grid, make_grid(8, 1.0)));
  EXPECT_EQ(items[1].request_index, 6);
}

TEST(CheckpointJournal, MultiChannelV2RecordsRoundTripBitwise) {
  const ScratchDir dir("pdtfe_ckpt_v2");
  const FieldGrid velocity(
      FieldKind::kVelocity,
      {make_grid(8, 1.0), make_grid(8, -2.5), make_grid(8, 1e-300)});
  const FieldGrid vdiv(FieldKind::kVdiv, {make_grid(4, -0.25)});
  {
    CheckpointWriter w(dir.path(), 0);
    w.append(3, velocity);
    w.append(9, vdiv);
    // A single-plane density record rides along in the same journal.
    w.append(12, FieldGrid(make_grid(8, 2.0)));
    EXPECT_EQ(w.records_written(), 3);
  }
  const std::vector<CheckpointItem> items = load_checkpoints(dir.path());
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].request_index, 3);
  EXPECT_EQ(items[0].grid.kind(), FieldKind::kVelocity);
  EXPECT_TRUE(bitwise_equal(items[0].grid, velocity));
  EXPECT_EQ(items[1].request_index, 9);
  EXPECT_EQ(items[1].grid.kind(), FieldKind::kVdiv);
  EXPECT_TRUE(bitwise_equal(items[1].grid, vdiv));
  EXPECT_EQ(items[2].request_index, 12);
  EXPECT_EQ(items[2].grid.kind(), FieldKind::kDensity);
  EXPECT_TRUE(bitwise_equal(items[2].grid, make_grid(8, 2.0)));
}

// Earlier builds journaled single-plane density items as v1 records
// ("DTFECKP1" | payload bytes | request_index, nx, ny, values | FNV-1a).
// Those journals must still load bitwise, so they resume; new records
// appended to the same journal are v2.
TEST(CheckpointJournal, LegacyV1DensityRecordsStillLoad) {
  const ScratchDir dir("pdtfe_ckpt_v1");
  const auto put_u64 = [](std::string& out, std::uint64_t v) {
    char b[8];
    std::memcpy(b, &v, 8);
    out.append(b, 8);
  };
  std::string journal;
  for (const auto& [index, grid] :
       {std::pair{3, make_grid(8, 1.0)}, std::pair{7, make_grid(4, -0.5)}}) {
    std::string payload;
    put_u64(payload, static_cast<std::uint64_t>(index));
    put_u64(payload, grid.nx());
    put_u64(payload, grid.ny());
    for (const double v : grid.values()) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, 8);
      put_u64(payload, bits);
    }
    put_u64(journal, 0x31504B4345465444ull);  // "DTFECKP1"
    put_u64(journal, payload.size());
    journal += payload;
    put_u64(journal, fnv1a64(payload.data(), payload.size()));
  }
  const std::string path = dir.path() + "/journal-rank-0.ckpt";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(journal.data(), 1, journal.size(), f);
    std::fclose(f);
  }
  {
    CheckpointWriter w(dir.path(), 0);  // appends to the v1 journal
    w.append(9, FieldGrid(make_grid(8, 2.0)));
  }
  char magic[8];
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(journal.size()), SEEK_SET);
  ASSERT_EQ(std::fread(magic, 1, 8, f), 8u);
  std::fclose(f);
  EXPECT_EQ(std::string(magic, 8), "DTFECKP2");

  const std::vector<CheckpointItem> items = load_checkpoints(dir.path());
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].request_index, 3);
  EXPECT_EQ(items[1].request_index, 7);
  EXPECT_EQ(items[2].request_index, 9);
  for (const CheckpointItem& item : items) {
    EXPECT_EQ(item.grid.kind(), FieldKind::kDensity);
    EXPECT_EQ(item.grid.channels(), 1u);
  }
  EXPECT_TRUE(bitwise_equal(items[0].grid, make_grid(8, 1.0)));
  EXPECT_TRUE(bitwise_equal(items[1].grid, make_grid(4, -0.5)));
  EXPECT_TRUE(bitwise_equal(items[2].grid, make_grid(8, 2.0)));
}

TEST(CheckpointJournal, MissingDirectoryIsEmptyNotAnError) {
  EXPECT_TRUE(load_checkpoints("/nonexistent/pdtfe/nowhere").empty());
}

// ---- manifest ---------------------------------------------------------------

TEST(CheckpointManifest, RoundTripAndOverwrite) {
  const ScratchDir dir("pdtfe_manifest");
  EXPECT_EQ(read_checkpoint_manifest(dir.path()), "");
  write_checkpoint_manifest(dir.path(), "fp-one\n");
  EXPECT_EQ(read_checkpoint_manifest(dir.path()), "fp-one\n");
  write_checkpoint_manifest(dir.path(), "fp-two\n");
  EXPECT_EQ(read_checkpoint_manifest(dir.path()), "fp-two\n");
}

TEST(CheckpointManifest, ConcurrentThreadRankWritersDoNotCollide) {
  // Regression: simmpi ranks are threads of one process, so a pid-based temp
  // name made every rank write the SAME temp file and a loser's rename threw
  // (hanging the other ranks in the next collective).
  const ScratchDir dir("pdtfe_manifest_race");
  const std::string fp = "fp-race\n";
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t)
    writers.emplace_back([&] {
      for (int i = 0; i < 25; ++i)
        EXPECT_NO_THROW(write_checkpoint_manifest(dir.path(), fp));
    });
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(read_checkpoint_manifest(dir.path()), fp);
  // No orphaned temp files left behind.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

// ---- conservation audits ----------------------------------------------------

AuditOptions cheap_audit() {
  AuditOptions a;
  a.level = AuditLevel::kCheap;
  return a;
}

TEST(Audit, HonestGridPasses) {
  const Grid2D grid = make_grid(8, 1.0);
  const FieldSpec spec = FieldSpec::centered({0, 0, 0}, 1.0, 8);
  const AuditResult r =
      audit_field_item(grid, spec, grid.sum(), nullptr, cheap_audit());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.summary(), "pass");
  EXPECT_GT(r.checks_run, 0);
}

TEST(Audit, CatchesNonFiniteCell) {
  Grid2D grid = make_grid(8, 1.0);
  grid.at(3, 4) = std::numeric_limits<double>::quiet_NaN();
  const FieldSpec spec = FieldSpec::centered({0, 0, 0}, 1.0, 8);
  const AuditResult r =
      audit_field_item(grid, spec, grid.sum(), nullptr, cheap_audit());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.summary().find("non_finite"), std::string::npos);
}

TEST(Audit, CatchesNegativeCell) {
  Grid2D grid = make_grid(8, 1.0);
  grid.at(0, 0) = -1e-3;
  const FieldSpec spec = FieldSpec::centered({0, 0, 0}, 1.0, 8);
  const AuditResult r =
      audit_field_item(grid, spec, grid.sum(), nullptr, cheap_audit());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.summary().find("negative"), std::string::npos);
}

TEST(Audit, CatchesMassMismatch) {
  // A corrupted field (here: one silently doubled cell, the kind of damage a
  // bad checkpoint decode or torn write would produce) breaks conservation
  // against the kernel's independent ray-mass accumulation.
  Grid2D grid = make_grid(8, 1.0);
  const double honest_mass = grid.sum();
  grid.at(5, 5) *= 2.0;
  const FieldSpec spec = FieldSpec::centered({0, 0, 0}, 1.0, 8);
  const AuditResult r =
      audit_field_item(grid, spec, honest_mass, nullptr, cheap_audit());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.summary().find("mass"), std::string::npos);
}

TEST(Audit, NaNRayMassSkipsTheMassCheck) {
  // Kernels without an independent accumulation (tess, walking) report NaN;
  // the scans still run but conservation is not judged.
  Grid2D grid = make_grid(8, 1.0);
  const FieldSpec spec = FieldSpec::centered({0, 0, 0}, 1.0, 8);
  const AuditResult r = audit_field_item(
      grid, spec, std::numeric_limits<double>::quiet_NaN(), nullptr,
      cheap_audit());
  EXPECT_TRUE(r.ok());
}

// ---- watchdog ---------------------------------------------------------------

TEST(Watchdog, CancelsSlowItemWithinTwiceTheDeadline) {
  // A deliberately slow item: a dense 100k-point cube whose triangulation
  // takes far longer than the budget. Cooperative cancellation must land
  // within 2x the deadline and contain the item as a failed zero grid.
  Rng rng(7);
  std::vector<Vec3> cube;
  cube.reserve(100000);
  for (int i = 0; i < 100000; ++i)
    cube.push_back({rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0),
                    rng.uniform(1.0, 5.0)});
  PipelineOptions opt;
  opt.field_length = 4.0;
  opt.field_resolution = 32;
  const double budget_ms = 400.0;
  const Deadline deadline = Deadline::after_ms(budget_ms);
  ItemRecord rec;
  const auto t0 = std::chrono::steady_clock::now();
  const FieldGrid grid =
      compute_field_item(std::move(cube), 1.0, {3, 3, 3}, opt, rec, &deadline);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(rec.failed);
  EXPECT_TRUE(rec.cancelled);
  EXPECT_NE(rec.fail_reason.find("deadline"), std::string::npos)
      << rec.fail_reason;
  EXPECT_EQ(grid.sum(), 0.0);
  EXPECT_LT(elapsed_ms, 2.0 * budget_ms)
      << "cancellation latency exceeded the acceptance bound";
}

TEST(Watchdog, UnarmedDeadlineNeverCancels) {
  Rng rng(8);
  std::vector<Vec3> cube;
  for (int i = 0; i < 500; ++i)
    cube.push_back({rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0),
                    rng.uniform(1.0, 5.0)});
  PipelineOptions opt;
  opt.field_length = 4.0;
  opt.field_resolution = 16;
  const Deadline unarmed;
  ItemRecord rec;
  const FieldGrid grid =
      compute_field_item(std::move(cube), 1.0, {3, 3, 3}, opt, rec, &unarmed);
  EXPECT_FALSE(rec.failed);
  EXPECT_FALSE(rec.cancelled);
  EXPECT_GT(grid.sum(), 0.0);
}

// ---- crash-handler item registry -------------------------------------------

TEST(CrashRegistry, TracksInFlightItems) {
  const int before = crash_items_in_flight();
  {
    const ScopedCrashItem a(0, 42, "execute_local");
    const ScopedCrashItem b(1, 7, "received");
    EXPECT_EQ(crash_items_in_flight(), before + 2);
  }
  EXPECT_EQ(crash_items_in_flight(), before);
}

TEST(CrashHandlerDeathTest, ReportsSignalAndInFlightItem) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  install_crash_handler();
  EXPECT_DEATH(
      {
        const ScopedCrashItem item(3, 123, "execute_local");
        raise(SIGSEGV);
      },
      "rank 3 item 123 phase execute_local");
}

// ---- pipeline-level: audits, watchdog, resume -------------------------------

/// One octant of the 32^3 box gets a dense cluster (a guaranteed sender
/// under the workload model); the others get distinct light loads so the
/// schedule is deterministic. Same shape the fault suite's acceptance
/// scenario uses, sized down for four runs in one test.
ParticleSet clustered_set() {
  ParticleSet set;
  set.box_length = 32.0;
  set.particle_mass = 1.0;
  Rng rng(1234);
  for (int i = 0; i < 20000; ++i)
    set.positions.push_back({rng.uniform(5.0, 11.0), rng.uniform(5.0, 11.0),
                             rng.uniform(5.0, 11.0)});
  for (int o = 1; o < 8; ++o) {
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
    centers.push_back({ox + 11.0, oy + 8.0, oz + 8.0});
  }
  return centers;
}

PipelineOptions durable_options() {
  PipelineOptions opt;
  opt.field_length = 3.0;
  opt.field_resolution = 16;
  opt.comm_timeout_ms = 500;
  opt.keep_grids = true;
  return opt;
}

TEST(PipelineAudit, FullModeAuditsEveryItemWithZeroViolations) {
  const ParticleSet set = clustered_set();
  const std::vector<Vec3> centers = clustered_centers();
  PipelineOptions opt = durable_options();
  opt.audit.level = AuditLevel::kFull;

  std::mutex mtx;
  std::size_t audited = 0, violations = 0, computed = 0;
  simmpi::run(4, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    const std::lock_guard<std::mutex> lock(mtx);
    for (const ItemRecord& it : res.items) {
      ++computed;
      violations += !it.audit.empty() && it.audit != "pass";
      if (!it.audit.empty()) {
        ++audited;
        EXPECT_EQ(it.audit, "pass") << "item " << it.request_index;
      }
    }
  });
  EXPECT_EQ(violations, 0u);
  EXPECT_EQ(audited, computed);
  EXPECT_GE(audited, centers.size());
}

TEST(PipelineWatchdog, TinyDeadlineContainsItemsWithoutKillingRanks) {
  const ParticleSet set = clustered_set();
  const std::vector<Vec3> centers = clustered_centers();
  PipelineOptions opt = durable_options();
  opt.item_deadline_ms = 0.01;  // everything with any real work expires

  std::mutex mtx;
  std::size_t cancelled = 0;
  std::set<std::ptrdiff_t> completed;
  std::set<int> dead;
  simmpi::run(4, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    const std::lock_guard<std::mutex> lock(mtx);
    for (const ItemRecord& it : res.items) {
      cancelled += it.cancelled;
      if (it.request_index >= 0) completed.insert(it.request_index);
    }
    for (const int r : res.failed_ranks) dead.insert(r);
  });
  EXPECT_GT(cancelled, 0u);
  EXPECT_TRUE(dead.empty()) << "the watchdog must contain, not kill";
  EXPECT_EQ(completed.size(), centers.size());
}

TEST(PipelineWatchdog, AutoBudgetFromTheCostModelCancelsNothingHealthy) {
  const ParticleSet set = clustered_set();
  const std::vector<Vec3> centers = clustered_centers();
  PipelineOptions opt = durable_options();
  opt.item_deadline_ms = 0.0;  // derive from the fitted model x slack

  std::mutex mtx;
  std::size_t cancelled = 0, failed = 0;
  simmpi::run(4, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    const std::lock_guard<std::mutex> lock(mtx);
    for (const ItemRecord& it : res.items) {
      cancelled += it.cancelled;
      failed += it.failed;
    }
  });
  EXPECT_EQ(cancelled, 0u);
  EXPECT_EQ(failed, 0u);
}

// ---- end-to-end acceptance: kill + damaged journals + resume ----------------

TEST(PipelineResume, KillAndDamagedJournalsResumeBitwiseIdentical) {
  const ScratchDir ckpt("pdtfe_resume_ckpt");
  const ParticleSet set = clustered_set();
  const std::vector<Vec3> centers = clustered_centers();
  const PipelineOptions base_opt = durable_options();

  // (1) Uninterrupted baseline, no checkpointing: the reference grids.
  //     Also discover a work-sharing receiver to kill later.
  std::mutex mtx;
  std::map<std::ptrdiff_t, FieldGrid> base_grids;
  std::map<int, int> receiver_to_sender;
  simmpi::run(4, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, base_opt);
    const std::lock_guard<std::mutex> lock(mtx);
    for (std::size_t i = 0; i < res.items.size(); ++i)
      if (res.items[i].request_index >= 0)
        base_grids.emplace(res.items[i].request_index, res.grids[i]);
    if (!res.schedule.recv_list.empty())
      receiver_to_sender[c.rank()] = res.schedule.recv_list[0];
  });
  ASSERT_EQ(base_grids.size(), centers.size());
  ASSERT_FALSE(receiver_to_sender.empty())
      << "the clustered workload produced no work-sharing receiver";

  // (2) Interrupted run: checkpointing on, and a receiver dies at its first
  //     work-package operation. The run completes via recovery; every
  //     surviving commit is in some journal.
  PipelineOptions ckpt_opt = base_opt;
  ckpt_opt.checkpoint_dir = ckpt.path();
  const int receiver = receiver_to_sender.begin()->first;
  const simmpi::FaultPlan plan = simmpi::FaultPlan::parse(
      "kill:rank=" + std::to_string(receiver) + ",tag=200,at=1");
  simmpi::RunOptions run_opts;
  run_opts.fault_plan = &plan;
  simmpi::run(4, run_opts, [&](simmpi::Comm& c) {
    (void)run_pipeline(c, set, centers, ckpt_opt);
  });

  // (3) Crash damage on top: tear the tail of one journal and delete another
  //     outright, so the resume must both replay and recompute.
  std::vector<fs::path> journals;
  for (const auto& e : fs::directory_iterator(ckpt.path()))
    if (e.path().filename().string().rfind("journal-rank-", 0) == 0)
      journals.push_back(e.path());
  std::sort(journals.begin(), journals.end());
  ASSERT_GE(journals.size(), 2u);
  fs::resize_file(journals.front(), fs::file_size(journals.front()) - 29);
  fs::remove(journals.back());

  // (4) Resume: replayed + recomputed grids must be BITWISE identical to the
  //     uninterrupted baseline.
  PipelineOptions resume_opt = ckpt_opt;
  resume_opt.resume = true;
  std::map<std::ptrdiff_t, FieldGrid> resumed_grids;
  std::size_t replayed = 0, recomputed = 0;
  simmpi::run(4, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, resume_opt);
    const std::lock_guard<std::mutex> lock(mtx);
    for (std::size_t i = 0; i < res.items.size(); ++i) {
      if (res.items[i].request_index < 0) continue;
      resumed_grids.emplace(res.items[i].request_index, res.grids[i]);
      if (res.items[i].path == ItemPath::kReplay)
        ++replayed;
      else
        ++recomputed;
    }
  });
  EXPECT_GT(replayed, 0u) << "no committed items were replayed";
  EXPECT_GT(recomputed, 0u) << "journal damage should force recomputation";
  ASSERT_EQ(resumed_grids.size(), centers.size());
  for (const auto& [id, base] : base_grids) {
    ASSERT_TRUE(resumed_grids.count(id)) << "field " << id << " missing";
    EXPECT_TRUE(bitwise_equal(resumed_grids.at(id), base))
        << "field " << id << " not bitwise identical after resume";
  }
}

// The same acceptance bar for the multi-channel engine: an interrupted
// --field=velocity --smooth-ensemble=4 run, resumed from (undamaged)
// journals, must reproduce the uninterrupted run's three-plane grids
// BITWISE — v2 records replay exactly and recomputed items re-derive the
// same jitter streams and velocity model from the run seed.
TEST(PipelineResume, VelocityEnsembleKillAndResumeBitwiseIdentical) {
  const ScratchDir ckpt("pdtfe_resume_vel_ckpt");
  const ParticleSet set = clustered_set();
  const std::vector<Vec3> centers = clustered_centers();
  PipelineOptions base_opt = durable_options();
  base_opt.field = FieldKind::kVelocity;
  base_opt.smooth_ensemble = 4;

  // (1) Uninterrupted baseline; also discover a work-sharing receiver.
  std::mutex mtx;
  std::map<std::ptrdiff_t, FieldGrid> base_grids;
  std::map<int, int> receiver_to_sender;
  simmpi::run(4, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, base_opt);
    const std::lock_guard<std::mutex> lock(mtx);
    for (std::size_t i = 0; i < res.items.size(); ++i)
      if (res.items[i].request_index >= 0)
        base_grids.emplace(res.items[i].request_index, res.grids[i]);
    if (!res.schedule.recv_list.empty())
      receiver_to_sender[c.rank()] = res.schedule.recv_list[0];
  });
  ASSERT_EQ(base_grids.size(), centers.size());
  for (const auto& [id, grid] : base_grids) {
    EXPECT_EQ(grid.kind(), FieldKind::kVelocity) << "field " << id;
    ASSERT_EQ(grid.channels(), 3u) << "field " << id;
  }
  ASSERT_FALSE(receiver_to_sender.empty())
      << "the clustered workload produced no work-sharing receiver";

  // (2) Interrupted run with checkpointing: a receiver dies at its first
  //     work-package operation, the run completes via recovery.
  PipelineOptions ckpt_opt = base_opt;
  ckpt_opt.checkpoint_dir = ckpt.path();
  const int receiver = receiver_to_sender.begin()->first;
  const simmpi::FaultPlan plan = simmpi::FaultPlan::parse(
      "kill:rank=" + std::to_string(receiver) + ",tag=200,at=1");
  simmpi::RunOptions run_opts;
  run_opts.fault_plan = &plan;
  simmpi::run(4, run_opts, [&](simmpi::Comm& c) {
    (void)run_pipeline(c, set, centers, ckpt_opt);
  });

  // (3) Resume: replayed v2 records + any recomputed items must be BITWISE
  //     identical to the uninterrupted baseline, channel by channel.
  PipelineOptions resume_opt = ckpt_opt;
  resume_opt.resume = true;
  std::map<std::ptrdiff_t, FieldGrid> resumed_grids;
  std::size_t replayed = 0;
  simmpi::run(4, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, resume_opt);
    const std::lock_guard<std::mutex> lock(mtx);
    for (std::size_t i = 0; i < res.items.size(); ++i) {
      replayed += res.items[i].path == ItemPath::kReplay;
      if (res.items[i].request_index >= 0)
        resumed_grids.emplace(res.items[i].request_index, res.grids[i]);
    }
  });
  EXPECT_GT(replayed, 0u) << "no committed items were replayed";
  ASSERT_EQ(resumed_grids.size(), centers.size());
  for (const auto& [id, base] : base_grids) {
    ASSERT_TRUE(resumed_grids.count(id)) << "field " << id << " missing";
    EXPECT_TRUE(bitwise_equal(resumed_grids.at(id), base))
        << "field " << id << " not bitwise identical after resume";
  }
}

TEST(PipelineResume, ManifestMismatchRefusesToResume) {
  const ScratchDir ckpt("pdtfe_resume_mismatch");
  write_checkpoint_manifest(ckpt.path(), "some-other-problem\n");
  ParticleSet set;
  set.box_length = 16.0;
  set.particle_mass = 1.0;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i)
    set.positions.push_back(
        {rng.uniform(1.0, 15.0), rng.uniform(1.0, 15.0), rng.uniform(1.0, 15.0)});
  PipelineOptions opt;
  opt.field_length = 3.0;
  opt.field_resolution = 16;
  opt.checkpoint_dir = ckpt.path();
  opt.resume = true;
  const std::vector<Vec3> centers = {{8.0, 8.0, 8.0}};
  EXPECT_THROW(
      simmpi::run(1, [&](simmpi::Comm& c) { (void)run_pipeline(c, set, centers, opt); }),
      Error);
}

}  // namespace
}  // namespace dtfe
