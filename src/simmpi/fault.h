// Deterministic fault injection for the simulated MPI runtime.
//
// A FaultPlan is a list of rules parsed from a compact spec string (grammar
// in README "Fault tolerance") and handed to simmpi::run via RunOptions.
// The runtime then kills ranks at a chosen comm call and drops, truncates,
// bit-flips, or delays chosen messages. Every trigger is counter-based (the
// Nth matching operation of a specific rank or (src, dst) pair), never
// time-based, so a given plan replays identically run after run — the whole
// point is that a fault scenario observed at scale can be named on the
// command line and reproduced in a debugger.
//
// Grammar (whitespace-free):
//   spec    := clause (';' clause)*
//   clause  := action (':' kv (',' kv)*)? | 'seed=' uint
//   action  := 'kill' | 'drop' | 'trunc' | 'flip' | 'delay'
//   kv      := key '=' int
//
// Keys per action (1-based counts; `tag=` restricts which ops/messages
// count, -1/absent = any):
//   kill : rank (required), at=N (default 1: die at the rank's Nth
//          send/recv op matching `tag`)
//   drop : src, dst (required), nth=N (default 1), tag
//   trunc: src, dst, nth, tag, bytes=K (keep first K payload bytes;
//          default half)
//   flip : src, dst, nth, tag, byte=B, bit=b (default: seeded choice)
//   delay: src, dst, nth, tag, ms=M (required; delivery delayed M ms)
//
// Example: "kill:rank=2,tag=200,at=1;drop:src=0,dst=3,nth=1;seed=7"
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace dtfe::simmpi {

enum class FaultAction { kKill, kDrop, kTruncate, kBitFlip, kDelay };

struct FaultRule {
  FaultAction action = FaultAction::kKill;
  // kill
  int rank = -1;          ///< victim rank
  std::uint64_t at = 1;   ///< 1-based index of the fatal comm op
  // message faults
  int src = -1, dst = -1;
  std::uint64_t nth = 1;  ///< 1-based index among matching messages
  int tag = -1;           ///< -1 = match any tag
  std::uint64_t bytes = 0;        ///< trunc: keep this many leading bytes
  std::int64_t byte = -1;         ///< flip: byte offset (-1 = seeded)
  int bit = -1;                   ///< flip: bit 0–7 (-1 = seeded)
  std::uint64_t delay_ms = 0;     ///< delay: delivery latency
};

struct FaultPlan {
  std::uint64_t seed = 1;  ///< drives defaulted flip byte/bit choices
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }

  /// Parse the spec grammar above. Throws dtfe::Error with the offending
  /// clause on malformed input. An empty spec parses to an empty plan.
  static FaultPlan parse(const std::string& spec);
};

/// Thrown into a rank's thread when the fault plan kills it. Deliberately
/// NOT derived from dtfe::Error: library catch(const Error&) containment
/// sites must not swallow an injected death mid-unwind.
struct RankKilledSignal {};

/// Executes a FaultPlan against a stream of comm operations. The Runtime
/// holds one arbiter for all ranks of a run. A plan replays identically
/// whatever the thread interleaving, because message-fault rules name an
/// explicit (src, dst) pair — only the sending rank ever advances such a
/// rule — and kill rules only advance on the victim's own ops.
class FaultArbiter {
 public:
  /// `plan` may be null (no faults) and is borrowed for the arbiter's life.
  explicit FaultArbiter(const FaultPlan* plan);

  bool enabled() const { return !rules_.empty(); }

  /// Count one send/recv operation of `rank` against the kill rules.
  /// Returns true when a kill fires: the caller must then make the death
  /// real (mark the rank dead and unwind). Also bumps
  /// dtfe.fault.ranks_killed.
  bool on_comm_op(int rank, int tag);

  /// Apply drop/trunc/flip/delay rules to one outgoing message, mutating
  /// `payload` in place and setting `delay_ms` for delay rules. Returns
  /// false if the message must be discarded (drop).
  bool apply_message_faults(int src, int dst, int tag,
                            std::vector<std::byte>& payload,
                            std::uint64_t& delay_ms);

 private:
  /// A rule plus its match counter. Only one thread ever ADVANCES a given
  /// rule (the victim for kills, the sending rank for message faults), but
  /// every rank's scan READS all rules' state, so the mutable fields are
  /// relaxed atomics — uncontended in practice, race-free formally.
  struct LiveRule {
    explicit LiveRule(const FaultRule& rule) : r(rule) {}
    FaultRule r;
    std::atomic<std::uint64_t> count{0};
    std::atomic<bool> fired{false};
  };

  const std::uint64_t seed_;
  std::deque<LiveRule> rules_;  // deque: LiveRule holds atomics (immovable)
};

/// Bump dtfe.fault.rank_failed_notifications (no-op with metrics disabled).
/// Called when a receive surfaces a dead peer.
void count_rank_failed_notification();

}  // namespace dtfe::simmpi
