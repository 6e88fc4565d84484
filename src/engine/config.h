// Typed engine configuration, parsed once at the boundary.
//
// Before the engine layer, every pdtfe subcommand re-derived PipelineOptions
// from raw flags inline, and the flag spelling was the de-facto config
// schema. EngineConfig is the schema: the CLI (or any embedding) resolves
// its inputs into this struct up front, and everything below the boundary —
// Engine, the stages, the kernels — consumes typed fields only.
#pragma once

#include <cstddef>
#include <string>

#include "framework/pipeline.h"
#include "simmpi/fault.h"
#include "util/cli.h"

namespace dtfe::engine {

struct EngineConfig {
  int ranks = 8;               ///< simulated MPI ranks per batch
  std::size_t n_fields = 64;   ///< FOF-derived request cap (CLI path)
  std::string snapshot;        ///< snapshot path ("" = in-memory particles)
  PipelineOptions pipeline;    ///< including pipeline.kernel
  simmpi::FaultPlan fault_plan;

  /// Parse the `pdtfe pipeline` flag set (the historical spellings,
  /// including --item-deadline-ms auto and --fault-plan grammar). Throws
  /// dtfe::Error with the same message texts the subcommand used to print
  /// for invalid values; the caller maps that to its usage exit code.
  static EngineConfig from_cli(const CliArgs& args);
};

}  // namespace dtfe::engine
