// The distributed many-field pipeline (paper §IV), decomposed into named,
// individually testable stages:
//
//   ExchangeStage  (1) partitioning & redistribution + ghost exchange,
//                  request routing, durable manifest / checkpoint replay
//                  (phase span: pipeline.partition)
//   ScheduleStage  (2) workload modeling (count → time one random item →
//                  Allgather → fit) and (3) the work-sharing schedule +
//                  sender plan (spans: pipeline.model, pipeline.work_share)
//   ComputeStage   (4) execution & communication: local items and one-way
//                  work packages, each sent once and run by its receiver or
//                  lost (spans: pipeline.pack, pipeline.unpack;
//                  item.triangulate, item.render per item)
//   RecoverStage   post-run recomputation of every item no rank committed:
//                  a dead rank's, or a lost package's (span: pipeline.recover)
//   ReduceStage    final agreement: surviving-rank bookkeeping + exit barrier
//
// A StageContext carries the evolving per-rank state between stages; each
// stage is a pure function of the context, so tests can drive them one at a
// time and inspect the intermediate state. run_stages() chains all five;
// run_pipeline and run_pipeline_from_snapshot (framework/pipeline.h) are the
// per-rank entries that feed it, one per data source, and every caller (the
// Engine's rank threads, tests) goes through them. Each item runs through
// compute_field_item, as one task of a run_items list. The stages' metric ids and crash markers are process-wide, so concurrent runs
// need no per-run service objects.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "framework/decomposition.h"
#include "framework/durable.h"
#include "framework/pipeline.h"
#include "framework/schedule.h"
#include "simmpi/comm.h"
#include "util/cancel.h"
#include "util/grid_index.h"
#include "util/rng.h"

namespace dtfe::engine {

/// Everything one rank's pipeline run reads and produces, shared by the
/// stages. Inputs are set at construction; the rest is filled as stages run.
struct StageContext {
  StageContext(simmpi::Comm& comm_in, const PipelineOptions& opt_in,
               double box_in, double particle_mass_in,
               std::vector<Vec3> my_block_in,
               std::vector<Vec3> field_centers_in,
               const CubeFetcher& fetch_cube_in);

  // --- inputs --------------------------------------------------------------
  simmpi::Comm& comm;
  const PipelineOptions& opt;
  double box;
  double particle_mass;
  std::vector<Vec3> my_block;       ///< consumed by ExchangeStage
  std::vector<Vec3> field_centers;  ///< broadcast/filled by ExchangeStage
  const CubeFetcher& fetch_cube;

  // --- derived constants ---------------------------------------------------
  int P;
  int me;
  double cube_side;
  double ghost_radius;
  Rng rng;  ///< model-sample pick (seeded exactly as the monolith did)

  // --- produced by ExchangeStage -------------------------------------------
  std::optional<Decomposition> decomp;
  std::vector<Vec3> local_particles;            ///< owned + ghosts
  std::vector<Vec3> my_requests;                ///< centers this rank owns
  std::vector<std::ptrdiff_t> my_request_ids;   ///< global request indices
  std::unique_ptr<CheckpointWriter> ckpt;
  std::vector<std::pair<std::ptrdiff_t, FieldGrid>> replay_here;

  // --- produced by ScheduleStage -------------------------------------------
  std::optional<GridIndex> index;
  std::vector<double> item_counts;
  std::ptrdiff_t test_item = -1;   ///< index into my_requests (-1 = none)
  FieldGrid test_grid;
  ItemRecord test_record;
  std::vector<double> predicted;
  double total_predicted = 0.0;
  SenderPlan plan;
  std::vector<std::size_t> remaining;  ///< indices into my_requests

  // --- accumulated result --------------------------------------------------
  PipelineResult res;

  // --- helpers shared by ComputeStage / RecoverStage -----------------------
  /// Per-item watchdog budget (see PipelineOptions::item_deadline_ms).
  Deadline make_deadline(double pred_seconds) const;
  /// Commit one computed item: phase accounting (adds the CPU its item
  /// spans measured), durability, metrics, result bookkeeping.
  void record_item(ItemRecord rec, FieldGrid grid, double pred_tri,
                   double pred_interp);
  /// The owned + ghost particles inside my_requests[i]'s cube.
  std::vector<Vec3> gather_local(std::size_t i) const;

  /// One item of a list run_items computes: a local request, gathered in
  /// its own task, or a cube already in hand (received and recovered
  /// items).
  struct WorkItem {
    std::vector<Vec3> cube;
    std::ptrdiff_t local = -1;  ///< index into my_requests, or -1
    Vec3 center;
    std::ptrdiff_t request_index = -1;
    double n_predict = 0.0;  ///< particle count the model predicts from
    ItemPath path = ItemPath::kLocal;
  };
  /// The item for my_requests[remaining[j]].
  WorkItem local_item(std::size_t idx_in_remaining) const;
  /// Compute a list of items concurrently, one parallel_tasks task each on
  /// the rank's team, and commit them in list order on the rank thread.
  /// Each task gathers its local cube, arms its own watchdog from the
  /// model's prediction for n_predict particles, labels its crash slot and
  /// runs compute_field_item. Back on the rank thread each item is
  /// record_item'ed, or its exception rethrown, in order, so journals,
  /// results and metrics see the sequence a serial loop would; items after
  /// one that throws are dropped uncommitted.
  void run_items(std::vector<WorkItem> items);
};

struct ExchangeStage {
  void run(StageContext& ctx) const;
};
struct ScheduleStage {
  void run(StageContext& ctx) const;
};
struct ComputeStage {
  void run(StageContext& ctx) const;
};
struct RecoverStage {
  void run(StageContext& ctx) const;
};
struct ReduceStage {
  void run(StageContext& ctx) const;
};

/// Run all five stages in order and return the finished per-rank result.
PipelineResult run_stages(StageContext& ctx);

/// One-call convenience over a fresh context (the run_pipeline* entry
/// points come through here).
PipelineResult run_stages(simmpi::Comm& comm, const PipelineOptions& opt,
                          double box, double particle_mass,
                          std::vector<Vec3> my_block,
                          std::vector<Vec3> field_centers,
                          const CubeFetcher& fetch_cube);

/// Cap the calling rank thread's team at max(1, threads / ranks)
/// (default_team_size() when opt.threads is 0) and disable nested teams,
/// through util/parallel.h: the rank's items run concurrently on that team
/// and each item's kernels on its one thread. Returns the team size.
int configure_rank_threading(const PipelineOptions& opt, int ranks_in_process);

}  // namespace dtfe::engine
