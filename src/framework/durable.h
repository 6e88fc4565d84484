// Item-granular checkpointing for the distributed pipeline.
//
// Each rank appends every work item it completes to its own journal file
// (`journal-rank-<R>.ckpt` under the checkpoint directory): an append-only
// sequence of records, each carrying the item's request index, the rendered
// grid (kind, plane count, nx, ny, plane values), and an FNV-1a checksum
// over the payload. Records are flushed (fflush + fsync) before the item is
// considered committed, so a crash can lose at most the in-flight record —
// and a torn tail is detected on load (bad magic, short payload, or
// checksum mismatch) and dropped rather than trusted.
//
// A resumed run (`--resume`) loads every committed record from every
// journal, regardless of how many ranks wrote them, and skips those items;
// because every kernel seed is a pure function of the item's identity (see
// marching_kernel.h), the combination of replayed grids and freshly computed
// ones is bitwise identical to an uninterrupted run.
//
// The manifest (`manifest.txt`) fingerprints the run configuration so a
// checkpoint directory cannot silently resume a different problem. It is
// written via write-to-temp + atomic rename; every rank writes identical
// bytes, so concurrent writers are idempotent (last rename wins).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dtfe/field.h"

namespace dtfe {

/// One committed work item recovered from a journal.
struct CheckpointItem {
  std::int64_t request_index = -1;
  FieldGrid grid;
};

/// Append-only, crash-consistent journal for one rank's completed items.
class CheckpointWriter {
 public:
  /// Creates `dir` if needed and opens the rank's journal for appending
  /// (an interrupted run's records are preserved). Throws Error on I/O
  /// failure.
  CheckpointWriter(const std::string& dir, int rank);
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Durably append one committed item (write + flush + fsync) as a v2
  /// record, whatever its field kind.
  void append(std::int64_t request_index, const FieldGrid& grid);

  int records_written() const { return records_written_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  void* file_ = nullptr;  // FILE*, opaque to keep <cstdio> out of the header
  int records_written_ = 0;
};

/// Load every committed item from every `journal-rank-*.ckpt` in `dir`
/// (any number of ranks; an empty or absent directory yields {}). The v1
/// records of single-plane density journals written by earlier builds load
/// too, so those journals still resume. Torn or
/// corrupt tail records are dropped; a corrupt record mid-file truncates
/// that journal's replay at the damage point. If the same request index was
/// committed by several ranks (e.g. a retry), the first instance wins.
std::vector<CheckpointItem> load_checkpoints(const std::string& dir);

/// Write `fingerprint` to `dir`/manifest.txt via temp + atomic rename.
void write_checkpoint_manifest(const std::string& dir,
                               const std::string& fingerprint);

/// Read the manifest ("" if absent).
std::string read_checkpoint_manifest(const std::string& dir);

}  // namespace dtfe
