// Per-engine service bundle threaded through the stages.
//
// Before the engine layer existed, the pipeline reached for function-local
// statics (its metric-id pack, the crash in-flight slots) — harmless for one
// run per process, a shared-state hazard for a re-entrant library. Every
// engine::Engine now owns its instances and hands them to the stages via
// EngineState; the legacy run_pipeline entry points fall back to
// process-default instances so standalone callers keep working unchanged.
#pragma once

#include "engine/field_kernel.h"
#include "framework/crash.h"
#include "obs/metrics.h"

namespace dtfe::engine {

/// The pipeline's metric ids, resolved once against the global registry.
/// Ids are stable handles, so several instances naming the same metrics
/// coexist safely — what instances avoid is the shared function-local
/// static (and its lazy-init) inside the stage hot paths.
struct PipelineMetrics {
  obs::MetricId items_computed = obs::counter("dtfe.pipeline.items_computed");
  obs::MetricId items_received = obs::counter("dtfe.pipeline.items_received");
  obs::MetricId items_sent = obs::counter("dtfe.pipeline.items_sent");
  obs::MetricId work_packages =
      obs::counter("dtfe.pipeline.work_packages_sent");
  obs::MetricId runs = obs::counter("dtfe.pipeline.runs");
  obs::MetricId items_failed = obs::counter("dtfe.item.failed");
  obs::MetricId items_recovered =
      obs::counter("dtfe.pipeline.items_recovered");
  obs::MetricId fallback = obs::counter("dtfe.workshare.fallback");
  obs::MetricId retries = obs::counter("dtfe.workshare.retries");
  obs::MetricId packages_lost = obs::counter("dtfe.workshare.packages_lost");
  obs::MetricId bad_particles = obs::counter("dtfe.input.bad_particles");
  obs::MetricId items_replayed =
      obs::counter("dtfe.pipeline.items_replayed");
  obs::MetricId checkpoint_commits =
      obs::counter("dtfe.checkpoint.items_committed");
  obs::MetricId cancelled = obs::counter("dtfe.watchdog.items_cancelled");
};

/// Borrowed references to the services one pipeline run uses. All pointers
/// must outlive the run; none may be null.
struct EngineState {
  const PipelineMetrics* metrics;
  CrashItemRegistry* crash;
  const KernelRegistry* kernels;

  /// Fallback bundle for the non-engine entry points (run_pipeline,
  /// compute_field_item): process-default crash registry, builtin kernels,
  /// one shared metric-id pack.
  static const EngineState& process_default();
};

}  // namespace dtfe::engine
