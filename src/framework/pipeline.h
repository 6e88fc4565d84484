// The distributed many-field reconstruction pipeline (paper §IV):
//   (1) data partitioning & redistribution (+ ghost exchange sized to the
//       padded field length),
//   (2) workload modeling (count → time one random item → Allgather → fit),
//   (3) work-sharing scheduling (Fig. 5 + variable-size bin packing),
//   (4) execution & communication (senders interleave local work with
//       MPI_Send of work packages; receivers drain local work then MPI_Recv).
//
// Every rank reports its per-phase busy time measured with per-thread CPU
// clocks, which is what the reproduction's scaling figures aggregate.
//
// This header keeps the pipeline's public TYPES and entry-point signatures;
// the implementations live in the engine layer (src/engine/stages.cpp and
// src/engine/pipeline.cpp), so callers of run_pipeline* link pdtfe_engine.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dtfe/audit.h"
#include "dtfe/field.h"
#include "framework/decomposition.h"
#include "framework/schedule.h"
#include "framework/workload_model.h"
#include "nbody/particles.h"
#include "simmpi/comm.h"
#include "util/cancel.h"

namespace dtfe {

struct PipelineOptions {
  double field_length = 4.0;        ///< l_F, physical side of every field
  std::size_t field_resolution = 64;///< Ng
  /// Cube side = pad × l_F: the extra margin keeps hull artifacts out of the
  /// field; the ghost radius is pad × l_F / 2 accordingly.
  double cube_pad = 1.25;
  bool load_balance = true;         ///< run phases 3–4 (off = paper's baseline)
  bool keep_grids = false;          ///< retain rendered grids in the result
  /// Fields with fewer particles than this in their cube produce a zero grid
  /// (a Delaunay needs ≥4 non-coplanar points; emptier cubes are noise).
  std::size_t min_particles = 32;
  std::size_t count_grid_cells = 48;///< particle-count index resolution
  std::uint64_t seed = 99;
  /// Which registered field kernel renders every item (engine/field_kernel.h:
  /// "march" — the paper's kernel and the bitwise-deterministic default —
  /// "walk", or "tess"; unknown names throw when the first item runs).
  std::string kernel = "march";
  /// Which estimator set every item reconstructs (dtfe/field.h). kDensity
  /// is the paper's field and keeps the scalar-era path bitwise intact;
  /// velocity/vdiv/grad render multi-channel FieldGrids through the same
  /// stages ("tess" supports density only).
  FieldKind field = FieldKind::kDensity;
  /// Jittered realizations averaged per item (Aragon-Calvo 2020
  /// mass-conserving stochastic smoothing); 1 = exact legacy render.
  int smooth_ensemble = 1;
  // --- fault tolerance (see README "Fault tolerance") ---------------------
  /// Run the acknowledged work-package protocol plus the post-execution
  /// recovery phase. Off = the paper's original fire-and-forget exchange.
  bool fault_tolerant = true;
  /// How many times a corrupt or missing work package is re-requested before
  /// the pair gives up and the sender computes the items itself.
  int max_retries = 3;
  /// Bounded wait used by the package/ack exchanges. Generous by default so
  /// slow ranks are not mistaken for dead ones (death itself is detected
  /// immediately, not by timeout).
  int comm_timeout_ms = 2000;
  /// What to do with non-finite / out-of-box input particle positions.
  BadParticlePolicy bad_particles = BadParticlePolicy::kReject;
  // --- durable execution (see README "Durable execution & audits") --------
  /// Directory for item-granular checkpoints ("" = checkpointing off). Each
  /// rank journals every committed item's grid (crash-consistent, fsynced,
  /// checksummed); see framework/durable.h.
  std::string checkpoint_dir;
  /// Replay committed items from checkpoint_dir instead of recomputing
  /// them. The resumed run's final grids are bitwise identical to an
  /// uninterrupted run (per-item kernel seeds are pure functions of the
  /// item identity and cube inputs are canonically ordered).
  bool resume = false;
  /// Per-item watchdog deadline: < 0 disables the watchdog (default),
  /// 0 derives each item's budget from the fitted cost model
  /// (watchdog_slack × predicted seconds, floored at min_item_deadline_ms),
  /// > 0 is a fixed budget in milliseconds. Expired items are cooperatively
  /// cancelled inside the triangulation/kernels and contained as
  /// failed-with-reason zero grids.
  double item_deadline_ms = -1.0;
  double watchdog_slack = 16.0;
  double min_item_deadline_ms = 2000.0;
  /// Runtime conservation audits over every committed item (dtfe/audit.h).
  AuditOptions audit;
  /// Escalate any audit violation to a thrown Error (aborting the run)
  /// instead of counting and tagging it.
  bool audit_fatal = false;
  // --- intra-rank compute pipeline (see README "Performance") -------------
  /// Bounded look-ahead window for the intra-rank item pipeline: up to this
  /// many items are gathered + triangulated on pool threads while the rank
  /// thread renders earlier items. 0 = fully serial (the legacy path).
  /// Commits stay in submission order, so grids, checkpoint journals,
  /// metrics, and report tags are bitwise identical for every setting.
  int compute_ahead = 0;
  /// Process-wide thread budget shared by all ranks in this process
  /// (0 = the OpenMP default). Each rank's kernel team plus its prepare
  /// workers are capped to budget / ranks-per-process so pool threads ×
  /// OpenMP teams never oversubscribe the machine (engine/executor.h).
  int threads = 0;
};

/// Per-rank busy seconds for each phase (thread CPU time: blocking receives
/// do not accumulate).
struct PhaseTimes {
  double partition = 0.0;
  double model = 0.0;
  double triangulate = 0.0;
  double render = 0.0;
  double work_share = 0.0;  ///< packing/unpacking/sending work packages
  double recover = 0.0;     ///< recomputing items lost to dead ranks
  double total() const {
    return partition + model + triangulate + render + work_share + recover;
  }
};

/// One computed field request.
struct ItemRecord {
  Vec3 center;
  /// Index into the global field-request list (-1 if unknown, e.g. items
  /// received from a pre-fault-tolerance sender).
  std::ptrdiff_t request_index = -1;
  double n_particles = 0.0;
  double predicted_tri = 0.0;
  double predicted_interp = 0.0;
  double actual_tri = 0.0;
  double actual_interp = 0.0;
  double grid_sum = 0.0;  ///< checksum of the rendered grid
  bool received = false;  ///< computed here on behalf of another rank
  bool failed = false;    ///< contained failure: the grid is all zeros
  bool recovered = false; ///< recomputed in the recovery phase
  bool fallback = false;  ///< shipped item computed locally after the
                          ///< receiver died, timed out, or gave up
  bool replayed = false;  ///< restored from a checkpoint, not computed
  bool cancelled = false; ///< failed because the item deadline expired
  std::string fail_reason;///< what went wrong when failed
  std::string audit;      ///< audit outcome ("" = not audited, else
                          ///< "pass" or the violated check names)
  /// Kernel health for this item (MarchingStats), surfaced as per-item run
  /// report tags: cells that exhausted perturbation retries, and how many
  /// degenerate marches were restarted.
  double kernel_failed_cells = 0.0;
  double kernel_perturb_restarts = 0.0;
};

struct PipelineResult {
  PhaseTimes phases;
  WorkloadModel model;
  WorkShareSchedule schedule;
  std::vector<ItemRecord> items;  ///< every item COMPUTED by this rank
  std::vector<FieldGrid> grids;   ///< parallel to items if keep_grids
  std::size_t owned_particles = 0;
  std::size_t ghost_particles = 0;
  std::size_t local_items = 0;     ///< requests whose center this rank owns
  std::size_t items_sent = 0;      ///< shipped to other ranks
  std::size_t items_received = 0;
  std::size_t items_failed = 0;    ///< contained failures (zero grids)
  std::size_t items_fallback = 0;  ///< shipped items computed locally instead
  std::size_t items_recovered = 0; ///< dead ranks' items recomputed here
  std::size_t items_replayed = 0;  ///< items restored from checkpoints
  std::size_t items_cancelled = 0; ///< items contained by the watchdog
  std::size_t audit_violations = 0;///< audit findings across this rank's items
  std::size_t package_retries = 0; ///< work-package re-requests served
  std::size_t packages_lost = 0;   ///< packages abandoned (fallback taken)
  SanitizeCounts bad_particles;    ///< input-hardening tallies for this rank
  std::vector<int> failed_ranks;   ///< ranks dead by the end of the run
  double predicted_local_time = 0.0;  ///< scheduler input for this rank
};

/// Run the full pipeline. `particles` must be the same full set on every
/// rank (standing in for the parallel file read: each rank takes an
/// arbitrary block of it and the real redistribution path runs). Field
/// centers are taken from rank 0 and broadcast, as in the paper.
PipelineResult run_pipeline(simmpi::Comm& comm, const ParticleSet& particles,
                            std::vector<Vec3> field_centers,
                            const PipelineOptions& opt);

/// Compute a single field request from an explicit particle cube — the
/// kernel invocation shared by the local, received, fallback, and recovery
/// execution paths. Returns the rendered grid and fills timing in `record`.
/// Never throws on bad data: a degenerate triangulation, a non-finite input
/// position, a non-finite rendered value, or a deadline cancellation yields
/// a zero grid with record.failed set and record.fail_reason explaining why.
/// (Exception: an audit violation under opt.audit_fatal throws.)
///
/// Deterministic by construction: the cube is canonically ordered before
/// triangulation and the kernel seed derives from (opt.seed, center), so
/// ANY rank computing this item from ANY data path (owner gather, shipped
/// package, recovery re-fetch, snapshot re-read) renders a bitwise
/// identical grid — the property checkpoint resume relies on.
FieldGrid compute_field_item(std::vector<Vec3> cube_particles, double mass,
                             const Vec3& center, const PipelineOptions& opt,
                             ItemRecord& record,
                             const Deadline* deadline = nullptr);

/// Re-fetches the particle cube for a field center (the recovery phase's
/// data source: in-memory extraction or a targeted snapshot re-read).
using CubeFetcher = std::function<std::vector<Vec3>(const Vec3& center,
                                                    double side)>;

/// The paper's §IV-B input path: each rank reads an arbitrary subset of the
/// snapshot's spatially contiguous blocks (round-robin, standing in for the
/// MPI-IO parallel read) and the pipeline redistributes from there. Field
/// centers are read by rank 0 only and broadcast.
PipelineResult run_pipeline_from_snapshot(simmpi::Comm& comm,
                                          const std::string& snapshot_path,
                                          std::vector<Vec3> field_centers,
                                          const PipelineOptions& opt);

}  // namespace dtfe
