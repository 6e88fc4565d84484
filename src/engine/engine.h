// The reusable DTFE engine: batched field reconstruction as a library call.
//
//   EngineConfig cfg;                 // or EngineConfig::from_cli(args)
//   cfg.ranks = 8;
//   Engine engine(cfg, particles);    // or Engine(cfg) for cfg.snapshot
//   std::vector<FieldRequest> reqs = {{center0}, {center1}, ...};
//   const std::vector<FieldResult> fields = engine.run_batch(reqs);
//
// run_batch runs the per-rank pipeline entry (run_pipeline or
// run_pipeline_from_snapshot, framework/pipeline.h) on cfg.ranks simulated
// MPI ranks (threads, or worker processes under the socket transport) and
// merges the per-rank outputs into one result per request. It is
// re-entrant: an Engine holds only its config, its particles and its last
// batch's outcome, and the process-wide services every engine shares (the
// metrics registry, the crash-diagnostics slots) are thread-safe, so several
// engines may run batches at once from different threads and each gets the
// grids of a serial run. Grids are bitwise identical from batch to batch
// (per-item kernel seeds are pure functions of the request identity).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/config.h"
#include "engine/field_kernel.h"
#include "framework/crash.h"
#include "framework/pipeline.h"
#include "nbody/particles.h"
#include "simmpi/socket_transport.h"

namespace dtfe::engine {

/// One requested surface-density field, centered on a point of interest.
struct FieldRequest {
  Vec3 center;
};

/// The reconstruction of one request, merged across ranks. The pipeline
/// commits each request once; any computation of it is bitwise identical by
/// construction, so the first committed copy is the one kept.
struct FieldResult {
  std::ptrdiff_t request = -1;  ///< index into the run_batch input span
  FieldGrid grid;               ///< one plane per channel of config.field
  double checksum = 0.0;        ///< total grid sum (the item checksum)
  bool completed = false;       ///< some rank committed this request
  bool failed = false;          ///< contained failure: grid is all zeros
  std::string fail_reason;
};

/// One rank's full pipeline outcome for the latest batch (phase times,
/// item records, fault tallies) — the raw material for run reports.
struct RankRun {
  int rank = -1;
  PipelineResult result;
};

/// First-commit-wins merge of one rank's pipeline outcome into the batched
/// results. The pipeline commits each request once; the merge still keeps
/// only the first copy, and any recomputation is bitwise identical by
/// construction. Shared by the thread and socket transports so both merge
/// identically. Requires res.grids parallel to res.items (keep_grids).
void merge_rank_items(const PipelineResult& res,
                      std::vector<FieldResult>& results);

class Engine {
 public:
  /// Snapshot-backed engine: every batch re-reads config.snapshot blocks
  /// (round-robin) and recovery re-fetches cubes from the file.
  explicit Engine(EngineConfig config);
  /// In-memory engine: ranks slice `particles` and recovery extracts cubes
  /// from the retained copy.
  Engine(EngineConfig config, ParticleSet particles);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Reconstruct every requested field. Returns one FieldResult per request,
  /// in request order; a request no surviving rank committed (only possible
  /// under injected faults with recovery disabled) has completed == false.
  std::vector<FieldResult> run_batch(std::span<const FieldRequest> requests);

  /// Per-rank pipeline outcomes of the most recent run_batch, sorted by
  /// rank. Ranks killed by a fault plan are absent.
  const std::vector<RankRun>& last_rank_runs() const { return rank_runs_; }

  /// Wire-cost measurements merged from every worker of the most recent
  /// socket-transport batch (all zeros after a thread batch). Feeds the
  /// DES calibration summaries (framework/des.h).
  const simmpi::TransportStats& last_wire_stats() const {
    return wire_stats_;
  }

  const EngineConfig& config() const { return config_; }

 private:
  /// Multi-process path (engine/multiproc.cpp): spawn one worker process
  /// per rank, route frames between them, merge their shipped-back results.
  std::vector<FieldResult> run_batch_socket(
      std::span<const FieldRequest> requests);

  EngineConfig config_;
  std::optional<ParticleSet> particles_;
  std::vector<RankRun> rank_runs_;
  simmpi::TransportStats wire_stats_{};
};

}  // namespace dtfe::engine
