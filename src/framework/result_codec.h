// Binary codec for a rank's output and the multi-process transport's
// control payloads, on util/bytes.h.
//
// The launcher and its workers are the same binary on the same host, so the
// encoding is a straightforward length-prefixed byte stream (PODs memcpy'd,
// strings and vectors size-prefixed) with a magic + version guard. Two
// payloads exist:
//   * LaunchConfig — router -> workers before the run (kConfig frame): the
//     snapshot path, the full PipelineOptions, and the field centers, so a
//     worker needs nothing but its rank and the socket path on argv.
//   * WorkerPayload — worker -> router after the run (kResult frame): the
//     measured wire costs, the worker's metrics-registry snapshot, and its
//     complete PipelineResult (items, grids, counters), which the launcher
//     merges exactly as the thread transport merges in-process results.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "framework/pipeline.h"
#include "obs/metrics.h"
#include "simmpi/socket_transport.h"
#include "util/bytes.h"

namespace dtfe {

/// The one FieldGrid layout, shared by checkpoint journal records and
/// worker payloads: kind | plane count | nx | ny | plane values (plane 0
/// first, row-major within each plane), every header field a uint64.
void write_field_grid(ByteWriter& w, const FieldGrid& grid);
/// Throws dtfe::Error on a truncated grid, an unknown kind, or a plane
/// count that does not match the kind.
FieldGrid read_field_grid(ByteReader& r);

/// Everything the launcher ships to each worker before the run.
struct LaunchConfig {
  std::string snapshot;
  PipelineOptions pipeline;
  std::vector<Vec3> field_centers;
};

std::vector<std::byte> encode_launch_config(const LaunchConfig& cfg);
/// Throws dtfe::Error on a malformed or version-mismatched payload.
LaunchConfig decode_launch_config(std::span<const std::byte> bytes);

/// Everything one worker ships back when its pipeline finishes.
struct WorkerPayload {
  int rank = -1;
  simmpi::TransportStats wire;  ///< per-message latency/bytes measurements
  std::map<std::string, double> counters;  ///< worker metrics snapshot
  std::map<std::string, double> gauges;
  /// Per-phase (and other) histogram snapshots, folded into the launcher's
  /// registry so socket-run reports carry the same distribution fields the
  /// thread transport reports.
  std::map<std::string, obs::HistogramSnapshot> histograms;
  PipelineResult result;
};

std::vector<std::byte> encode_worker_payload(const WorkerPayload& p);
/// Throws dtfe::Error on a malformed or version-mismatched payload.
WorkerPayload decode_worker_payload(std::span<const std::byte> bytes);

}  // namespace dtfe
