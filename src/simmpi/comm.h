// A message-passing runtime with MPI semantics over in-process ranks.
//
// The paper's distributed framework is written against MPI (MPI_Send/Recv,
// MPI_Allgather, MPI_Bcast). No MPI implementation is available in this
// environment, so this module provides the same programming model with
// threads: each "rank" is a thread with a private in-memory mailbox
// (simmpi/mailbox.h), and all ranks of one run share a Runtime.
// Point-to-point messages are blocking, FIFO per (source, destination)
// pair, and matched by (source, tag); collectives are built on
// point-to-point and must be entered by all ranks in the same program
// order, exactly like MPI.
//
// Fault model (see simmpi/fault.h): a FaultPlan passed through RunOptions
// can kill ranks and corrupt messages deterministically. A dead rank never
// hangs its peers: blocking receives from it throw RankFailed, bounded
// receives return RecvStatus::kRankFailed, and the collectives treat it as
// absent (its allgather slice comes back empty, barrier skips it). This is
// the ULFM-style "failure notification instead of deadlock" contract the
// framework's degradation paths are written against.
//
// Framework code only touches the Comm interface, so porting to real MPI is
// a mechanical substitution (the paper's own claim about its triangulation
// library applies here too).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/error.h"

namespace dtfe::simmpi {

constexpr int kAnySource = -1;

struct FaultPlan;
class Runtime;
struct RunOptions;

/// Thrown by blocking receives (and the collectives built on them) when the
/// awaited peer has died: the runtime's replacement for an MPI deadlock.
class RankFailed : public Error {
 public:
  RankFailed(int rank, const std::string& what)
      : Error(what), failed_rank_(rank) {}
  int failed_rank() const { return failed_rank_; }

 private:
  int failed_rank_;
};

enum class RecvStatus { kOk, kTimeout, kRankFailed };

/// Outcome of a bounded-wait receive.
struct RecvResult {
  RecvStatus status = RecvStatus::kOk;
  int source = -1;  ///< delivering rank (kOk) or failed rank (kRankFailed)
  std::vector<std::byte> payload;
  bool ok() const { return status == RecvStatus::kOk; }
};

/// Per-rank communicator handle. Cheap to copy within the owning rank's
/// thread; NOT meant to be shared across threads.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  // --- point to point ------------------------------------------------------

  /// Blocking send (buffered: returns once the payload is enqueued, like an
  /// MPI_Send that fits the eager threshold). Sends to a dead rank are
  /// silently discarded.
  void send_bytes(int dest, int tag, std::span<const std::byte> data);

  /// Blocking receive matching (source, tag); source may be kAnySource.
  /// Returns the payload and fills `actual_source` if provided. Throws
  /// RankFailed if `source` is dead (or, for kAnySource, every other rank
  /// is dead) and no matching message is queued.
  std::vector<std::byte> recv_bytes(int source, int tag,
                                    int* actual_source = nullptr);

  /// Bounded-wait receive: like recv_bytes but returns a status instead of
  /// blocking forever — kOk with the payload, kTimeout if nothing matching
  /// arrived within `timeout_ms`, or kRankFailed if the awaited source died
  /// (reported as soon as the death is visible, not after the timeout).
  RecvResult recv_bytes_timeout(int source, int tag, int timeout_ms);

  /// Non-blocking probe: true if a matching message is waiting.
  bool iprobe(int source, int tag) const;

  // --- failure queries -----------------------------------------------------

  /// True if `rank` has been killed by the fault plan.
  bool rank_failed(int rank) const;
  /// True if any rank has died.
  bool any_rank_failed() const;
  /// All dead ranks, ascending.
  std::vector<int> failed_ranks() const;

  // --- typed convenience (trivially copyable payloads) ---------------------

  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag,
               {reinterpret_cast<const std::byte*>(&v), sizeof(T)});
  }

  template <typename T>
  T recv_value(int source, int tag, int* actual_source = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    int src = source;
    const auto bytes = recv_bytes(source, tag, &src);
    DTFE_CHECK_MSG(bytes.size() == sizeof(T),
                   "recv_value size mismatch on rank "
                       << rank_ << ": source " << src << " tag " << tag
                       << " delivered " << bytes.size()
                       << " bytes, expected exactly " << sizeof(T));
    if (actual_source) *actual_source = src;
    T v;
    std::memcpy(&v, bytes.data(), sizeof(T));
    return v;
  }

  template <typename T>
  void send_vector(int dest, int tag, std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag,
               {reinterpret_cast<const std::byte*>(v.data()),
                v.size() * sizeof(T)});
  }

  template <typename T>
  std::vector<T> recv_vector(int source, int tag,
                             int* actual_source = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    int src = source;
    const auto bytes = recv_bytes(source, tag, &src);
    DTFE_CHECK_MSG(bytes.size() % sizeof(T) == 0,
                   "recv_vector size mismatch on rank "
                       << rank_ << ": source " << src << " tag " << tag
                       << " delivered " << bytes.size()
                       << " bytes, expected a multiple of " << sizeof(T));
    if (actual_source) *actual_source = src;
    std::vector<T> v(bytes.size() / sizeof(T));
    if (!bytes.empty())  // empty message: data() may be null
      std::memcpy(v.data(), bytes.data(), bytes.size());
    return v;
  }

  // --- collectives (all ranks must call in the same order) ------------------

  /// Dead ranks are skipped (the barrier still synchronizes the survivors).
  void barrier();
  /// Root's payload is broadcast; non-roots' buffers are replaced. Throws
  /// RankFailed on non-roots if the root is dead.
  void bcast_bytes(std::vector<std::byte>& data, int root);
  /// Every rank contributes a value; all receive the per-rank array. A dead
  /// rank's entry is value-initialized (its allgather_bytes slice is empty).
  template <typename T>
  std::vector<T> allgather(const T& mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto per_rank = allgather_bytes(
        {reinterpret_cast<const std::byte*>(&mine), sizeof(T)});
    std::vector<T> out(per_rank.size());
    for (std::size_t r = 0; r < per_rank.size(); ++r) {
      if (per_rank[r].empty()) {
        out[r] = T{};  // dead rank: absent contribution
        continue;
      }
      DTFE_CHECK_MSG(per_rank[r].size() == sizeof(T),
                     "allgather size mismatch on rank "
                         << rank_ << ": rank " << r << " contributed "
                         << per_rank[r].size() << " bytes, expected "
                         << sizeof(T));
      std::memcpy(&out[r], per_rank[r].data(), sizeof(T));
    }
    return out;
  }
  /// Variable-size allgather (MPI_Allgatherv): returns one byte buffer per
  /// rank. Dead ranks' buffers come back empty.
  std::vector<std::vector<std::byte>> allgather_bytes(
      std::span<const std::byte> mine);
  template <typename T>
  std::vector<std::vector<T>> allgatherv(std::span<const T> mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto raw = allgather_bytes(
        {reinterpret_cast<const std::byte*>(mine.data()),
         mine.size() * sizeof(T)});
    std::vector<std::vector<T>> out(raw.size());
    for (std::size_t r = 0; r < raw.size(); ++r) {
      out[r].resize(raw[r].size() / sizeof(T));
      if (!raw[r].empty())  // dead rank: empty buffer, data() may be null
        std::memcpy(out[r].data(), raw[r].data(), raw[r].size());
    }
    return out;
  }
  /// Dead ranks contribute nothing to the reductions.
  double allreduce_sum(double x);
  double allreduce_max(double x);

 private:
  friend void run(int nranks, const RunOptions& opts,
                  const std::function<void(Comm&)>& fn);
  Comm(Runtime* rt, int rank) : rt_(rt), rank_(rank) {}

  Runtime* rt_;
  int rank_;
};

struct RunOptions {
  /// Borrowed; may be null (no faults). Must outlive the run.
  const FaultPlan* fault_plan = nullptr;
};

/// Spawn `nranks` threads, each running fn(comm). Exceptions thrown by any
/// rank are collected and the first is rethrown after all ranks finish or
/// deadlock-free shutdown. Ranks may freely oversubscribe the hardware —
/// blocking receives sleep on condition variables. A rank killed by the
/// fault plan simply stops (its death is injected, not an error); peers see
/// it through RankFailed / RecvStatus::kRankFailed and the failure queries.
void run(int nranks, const RunOptions& opts,
         const std::function<void(Comm&)>& fn);
void run(int nranks, const std::function<void(Comm&)>& fn);

}  // namespace dtfe::simmpi
