// A-priori work-sharing schedule (paper §IV-D, Fig. 5).
//
// Given every rank's predicted total local work time, ranks above the global
// average are senders and ranks below are receivers. CreateCommunicationList
// greedily pairs the largest-excess sender with the largest-capacity
// receiver ("the senders with the most work to share send to receivers with
// the largest ability to receive"), producing for every rank a SendList
// (whom to send how much, and when) and a RecvList (whose messages to expect,
// in order). Every rank runs the routine independently on the same
// Allgathered data, so no extra negotiation round is needed.
//
// Faithfulness note: the paper's pseudocode contains three evident typos —
// the sender-counting loop breaks after the first element (it must count all
// above-average entries of the descending sort), the sender loop runs
// `i < lr` (dropping the last sender), and line 24 writes `Ps[i] − ⟨t⟩` for
// `Ps[i].t − ⟨t⟩`. We implement the evident intent and keep everything else
// (ordering, greedy choice, update rules) exactly as printed.
#pragma once

#include <cstdint>
#include <vector>

namespace dtfe {

struct RankWork {
  int id = 0;
  double time = 0.0;  ///< predicted total local work time
};

struct PlannedSend {
  int receiver = 0;
  double amount = 0.0;   ///< work time to ship
  double send_at = 0.0;  ///< when the receiver goes idle (its filled time)
};

struct WorkShareSchedule {
  /// For the local rank: sends in creation order (receivers filled from the
  /// least-loaded upward).
  std::vector<PlannedSend> send_list;
  /// For the local rank: sender ids in the order their messages will arrive.
  std::vector<int> recv_list;
  /// Global average time ⟨t⟩ the schedule levels everyone toward.
  double average_time = 0.0;
};

/// Paper Fig. 5 for every rank at once: one descending sort and one greedy
/// pass, O(P log P) for P ranks. `all` is the Allgathered (id, time) array,
/// whose ids must be 0..P-1, each once, in any order; row r holds rank r's
/// lists (and the average, in every row).
std::vector<WorkShareSchedule> create_communication_lists(
    std::vector<RankWork> all);

/// Paper Fig. 5 for one rank: row `my_id` of create_communication_lists.
WorkShareSchedule create_communication_list(std::vector<RankWork> all,
                                            int my_id);

/// The sender-side execution plan (paper §IV-D last paragraph): sends sorted
/// by send_at ascending; the gaps between consecutive send times are "work
/// bins" to fill with local items, and each send's amount is a bin whose
/// items are shipped. Solved jointly with greedy first-fit on the combined
/// bin list.
struct SenderPlan {
  /// Sends in ascending send_at order.
  std::vector<PlannedSend> ordered_sends;
  /// item_assignment[i]: -1 = run locally after all sends; -2-k = run
  /// locally in the gap before ordered_sends[k]; k >= 0 = ship with
  /// ordered_sends[k].
  std::vector<int> item_assignment;

  static constexpr int kRunAtEnd = -1;
  int gap_slot(std::size_t k) const { return -2 - static_cast<int>(k); }
};

SenderPlan plan_sender(const std::vector<PlannedSend>& sends,
                       const std::vector<double>& item_times);

}  // namespace dtfe
