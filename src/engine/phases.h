// Single source of truth for pipeline phase identity.
//
// Three subsystems must agree, by construction, on what a "phase" is called:
//   * PhaseTimes accumulation + the "pipeline"-category trace spans emitted
//     by the stages, which are the phase timers themselves (tests/obs
//     asserts their cpu_s args sum to PhaseTimes::total() and that they
//     never overlap, so the span names are part of the contract),
//   * the per-rank run-report rows written by the pdtfe CLI, and
//   * the crash-diagnostics in-flight slots, whose phase labels must be
//     string literals with static storage (the signal handler prints the
//     pointer's target after the fault).
// Every producer takes its name from here; nothing else spells them out.
#pragma once

namespace dtfe::engine::phases {

/// Trace-span category shared by every stage span (tests sum cpu_s over it).
inline constexpr const char* kCategory = "pipeline";

// Stage-level span names (one per PhaseTimes field, plus the pack/unpack
// sub-spans that accumulate into work_share).
inline constexpr const char* kPartition = "pipeline.partition";
inline constexpr const char* kModel = "pipeline.model";
inline constexpr const char* kWorkShare = "pipeline.work_share";
inline constexpr const char* kPack = "pipeline.pack";
inline constexpr const char* kUnpack = "pipeline.unpack";
inline constexpr const char* kRecover = "pipeline.recover";

// Request generation in the pdtfe CLI, before the engine runs: snapshot read,
// FOF and the request list. Emitted in the default "dtfe" category, not
// kCategory, because it is not a PhaseTimes phase.
inline constexpr const char* kRequests = "pipeline.requests";
// Its two child spans, category "nbody", so that one trace splits request
// generation: the snapshot read (args: threads) and the FOF finder (args:
// cpu_s of its whole team, threads, groups).
inline constexpr const char* kReadSnapshot = "nbody.read_snapshot";
inline constexpr const char* kFof = "nbody.fof";

// Per-item span names: real spans around the cube build and the render, whose
// cpu_s is exactly what accumulates into PhaseTimes::triangulate / ::render.
inline constexpr const char* kItemTriangulate = "item.triangulate";
inline constexpr const char* kItemRender = "item.render";

// Crash-slot in-flight labels: which execution path owned the item when
// a hard fault hit. Must stay string literals (see framework/crash.h).
inline constexpr const char* kInFlightModelSample = "model_sample";
inline constexpr const char* kInFlightLocal = "execute_local";
inline constexpr const char* kInFlightReceived = "received";
inline constexpr const char* kInFlightRecover = "recover";

// Run-report per-rank row keys (obs::RunReport::add_rank_values).
inline constexpr const char* kReportPartition = "partition_s";
inline constexpr const char* kReportModel = "model_s";
inline constexpr const char* kReportWorkShare = "work_share_s";
inline constexpr const char* kReportTriangulate = "triangulate_s";
inline constexpr const char* kReportRender = "render_s";
inline constexpr const char* kReportRecover = "recover_s";
inline constexpr const char* kReportTotal = "total_s";

}  // namespace dtfe::engine::phases
