// Discrete-event simulation of the work-sharing execution (for the paper's
// large-scale study, Fig. 13, at rank counts far beyond what thread-backed
// ranks can exercise with real kernels).
//
// The simulator reuses the REAL scheduling code — create_communication_list
// and plan_sender operate on the model-PREDICTED item costs — and then plays
// the execution timeline with the items' ACTUAL costs. Model mispredictions
// therefore materialize exactly as the paper diagnoses for its 16k-rank run:
// "a small number of degenerate point configurations ... made the model
// predicted execution time inaccurate and delayed sending work to idle
// processes."
#pragma once

#include <vector>

#include "framework/schedule.h"

namespace dtfe {

struct DesOptions {
  double message_latency = 1e-4;    ///< seconds per work-sharing message
  double seconds_per_unit_sent = 0.0;  ///< transfer cost ∝ shipped work
};

struct DesResult {
  /// max over ranks of Σ actual local item costs (no sharing).
  double makespan_unbalanced = 0.0;
  /// Simulated makespan with the work-sharing schedule.
  double makespan_balanced = 0.0;
  /// Average per-rank total actual work (the ideal levelled time).
  double average_work = 0.0;
  /// Per-rank finish times of the balanced execution.
  std::vector<double> finish_times;
  /// Std-dev of per-rank busy times, unbalanced vs balanced (paper Fig. 10's
  /// metric).
  double busy_std_unbalanced = 0.0;
  double busy_std_balanced = 0.0;
  /// Total work units shipped between ranks.
  double shipped_work = 0.0;
};

/// `predicted[r][i]` is what the model forecasts for rank r's item i;
/// `actual[r][i]` is its true cost. Both arrays must be congruent.
DesResult simulate_work_sharing(
    const std::vector<std::vector<double>>& actual,
    const std::vector<std::vector<double>>& predicted,
    const DesOptions& opt = {});

}  // namespace dtfe
