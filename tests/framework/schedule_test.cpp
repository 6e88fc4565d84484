#include "framework/schedule.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace dtfe {
namespace {

std::vector<RankWork> make_work(std::initializer_list<double> times) {
  std::vector<RankWork> w;
  int id = 0;
  for (double t : times) w.push_back({id++, t});
  return w;
}

TEST(CreateCommunicationList, BalancedInputProducesNothing) {
  const auto w = make_work({5.0, 5.0, 5.0, 5.0});
  for (int r = 0; r < 4; ++r) {
    const auto s = create_communication_list(w, r);
    EXPECT_TRUE(s.send_list.empty());
    EXPECT_TRUE(s.recv_list.empty());
    EXPECT_DOUBLE_EQ(s.average_time, 5.0);
  }
}

TEST(CreateCommunicationList, SingleSenderSingleReceiver) {
  // avg = 6; rank 0 has excess 4, rank 1 capacity 4.
  const auto w = make_work({10.0, 2.0});
  const auto s0 = create_communication_list(w, 0);
  ASSERT_EQ(s0.send_list.size(), 1u);
  EXPECT_EQ(s0.send_list[0].receiver, 1);
  EXPECT_DOUBLE_EQ(s0.send_list[0].amount, 4.0);
  EXPECT_TRUE(s0.recv_list.empty());

  const auto s1 = create_communication_list(w, 1);
  ASSERT_EQ(s1.recv_list.size(), 1u);
  EXPECT_EQ(s1.recv_list[0], 0);
  EXPECT_TRUE(s1.send_list.empty());
}

TEST(CreateCommunicationList, GreedyPairsLargestWithSmallest) {
  // avg = 5. Senders: 0 (t=9, excess 4), 1 (t=7, excess 2).
  // Receivers: 3 (t=1, cap 4), 2 (t=3, cap 2).
  const auto w = make_work({9.0, 7.0, 3.0, 1.0});
  const auto s0 = create_communication_list(w, 0);
  ASSERT_EQ(s0.send_list.size(), 1u);
  EXPECT_EQ(s0.send_list[0].receiver, 3);  // largest excess → largest capacity
  EXPECT_DOUBLE_EQ(s0.send_list[0].amount, 4.0);

  const auto s1 = create_communication_list(w, 1);
  ASSERT_EQ(s1.send_list.size(), 1u);
  EXPECT_EQ(s1.send_list[0].receiver, 2);
  EXPECT_DOUBLE_EQ(s1.send_list[0].amount, 2.0);
}

TEST(CreateCommunicationList, SenderSplitsAcrossReceivers) {
  // avg = 4. Sender 0 excess 8; receivers 1,2,3 capacity 3,3,2... times:
  // {12, 1, 1, 2} → avg 4; capacities 3, 3, 2.
  const auto w = make_work({12.0, 1.0, 1.0, 2.0});
  const auto s0 = create_communication_list(w, 0);
  double sent = 0.0;
  for (const auto& s : s0.send_list) sent += s.amount;
  EXPECT_NEAR(sent, 8.0, 1e-12);
  EXPECT_GE(s0.send_list.size(), 2u);
}

struct GlobalView {
  std::map<int, double> sent;                    // per sender total
  std::map<int, double> received;                // per receiver total
  std::map<int, std::vector<int>> recv_order;    // receiver → senders
  std::map<int, std::vector<int>> send_targets;  // sender → receivers
};

GlobalView gather_all(const std::vector<RankWork>& w) {
  GlobalView g;
  for (const RankWork& rw : w) {
    const auto s = create_communication_list(w, rw.id);
    for (const auto& send : s.send_list) {
      g.sent[rw.id] += send.amount;
      g.received[send.receiver] += send.amount;
      g.send_targets[rw.id].push_back(send.receiver);
    }
    for (const int sender : s.recv_list)
      g.recv_order[rw.id].push_back(sender);
  }
  return g;
}

TEST(CreateCommunicationList, SendsMatchRecvsGlobally) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<RankWork> w;
    const int P = 2 + static_cast<int>(rng.uniform_index(30));
    for (int r = 0; r < P; ++r)
      w.push_back({r, rng.uniform(0.0, 100.0)});
    const GlobalView g = gather_all(w);

    // Every (sender → receiver) edge appears in both lists with matching
    // multiplicity and order-compatible pairing.
    std::map<int, std::multiset<int>> from_senders, from_receivers;
    for (const auto& [sender, targets] : g.send_targets)
      for (const int r : targets) from_senders[r].insert(sender);
    for (const auto& [receiver, order] : g.recv_order)
      for (const int s : order) from_receivers[receiver].insert(s);
    EXPECT_EQ(from_senders, from_receivers) << "trial " << trial;
  }
}

TEST(CreateCommunicationList, ConservesWorkAndLevelsTowardAverage) {
  Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<RankWork> w;
    const int P = 2 + static_cast<int>(rng.uniform_index(40));
    double total = 0.0;
    for (int r = 0; r < P; ++r) {
      w.push_back({r, rng.uniform(0.0, 50.0)});
      total += w.back().time;
    }
    const double avg = total / P;
    const GlobalView g = gather_all(w);

    double total_moved_out = 0.0, total_moved_in = 0.0;
    for (const auto& [id, v] : g.sent) total_moved_out += v;
    for (const auto& [id, v] : g.received) total_moved_in += v;
    EXPECT_NEAR(total_moved_out, total_moved_in, 1e-9);

    for (const RankWork& rw : w) {
      double t_after = rw.time;
      if (g.sent.count(rw.id)) t_after -= g.sent.at(rw.id);
      if (g.received.count(rw.id)) t_after += g.received.at(rw.id);
      // No rank sends below the average or receives beyond it.
      EXPECT_GE(t_after, avg - 1e-9);
      if (g.sent.count(rw.id)) {
        EXPECT_NEAR(t_after, avg, 1e-9);
      }
      EXPECT_LE(t_after, std::max(rw.time, avg) + 1e-9);
    }
  }
}

TEST(CreateCommunicationList, NoRankIsBothSenderAndReceiver) {
  Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<RankWork> w;
    const int P = 3 + static_cast<int>(rng.uniform_index(20));
    for (int r = 0; r < P; ++r) w.push_back({r, rng.uniform(0.0, 10.0)});
    for (const RankWork& rw : w) {
      const auto s = create_communication_list(w, rw.id);
      EXPECT_TRUE(s.send_list.empty() || s.recv_list.empty());
    }
  }
}

TEST(CreateCommunicationLists, RowRIsRankRsOwnList) {
  // One sort for every rank's lists, as the simulator asks at 16k ranks,
  // must give each rank exactly what its own call gives. The array lists
  // the ranks in shuffled order, so a row is found by id, not position.
  Rng rng(17);
  for (const int P : {1, 2, 3, 17, 1000}) {
    std::vector<RankWork> w;
    for (int r = 0; r < P; ++r) w.push_back({r, rng.uniform(0.0, 100.0)});
    for (int i = P - 1; i > 0; --i)
      std::swap(w[static_cast<std::size_t>(i)],
                w[rng.uniform_index(static_cast<std::size_t>(i) + 1)]);
    const std::vector<WorkShareSchedule> rows = create_communication_lists(w);
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(P));
    std::size_t sends = 0;
    for (int r = 0; r < P; ++r) {
      const WorkShareSchedule& row = rows[static_cast<std::size_t>(r)];
      const WorkShareSchedule own = create_communication_list(w, r);
      EXPECT_EQ(row.average_time, own.average_time) << "P " << P << " rank " << r;
      EXPECT_EQ(row.recv_list, own.recv_list) << "P " << P << " rank " << r;
      ASSERT_EQ(row.send_list.size(), own.send_list.size())
          << "P " << P << " rank " << r;
      for (std::size_t k = 0; k < row.send_list.size(); ++k) {
        EXPECT_EQ(row.send_list[k].receiver, own.send_list[k].receiver);
        EXPECT_EQ(row.send_list[k].amount, own.send_list[k].amount);
        EXPECT_EQ(row.send_list[k].send_at, own.send_list[k].send_at);
      }
      sends += row.send_list.size();
    }
    if (P > 1) {
      EXPECT_GT(sends, 0u) << "P " << P;
    }
  }
}

TEST(CreateCommunicationLists, RankIdsMustNumberTheRanks) {
  EXPECT_THROW(create_communication_lists({{0, 1.0}, {2, 3.0}}), Error);
  EXPECT_THROW(create_communication_lists({{1, 1.0}, {1, 3.0}}), Error);
  EXPECT_THROW(create_communication_list({{0, 1.0}, {1, 3.0}}, 2), Error);
  EXPECT_TRUE(create_communication_lists({}).empty());
}

TEST(PlanSender, SendsOrderedAndItemsPartitioned) {
  std::vector<PlannedSend> sends = {
      {.receiver = 3, .amount = 4.0, .send_at = 7.0},
      {.receiver = 5, .amount = 2.0, .send_at = 2.0},
  };
  // Items: two that fit the send bins, two for the gaps, one leftover.
  const std::vector<double> items = {3.9, 1.9, 1.8, 4.5, 10.0};
  const SenderPlan plan = plan_sender(sends, items);

  ASSERT_EQ(plan.ordered_sends.size(), 2u);
  EXPECT_EQ(plan.ordered_sends[0].receiver, 5);  // earlier send first
  EXPECT_EQ(plan.ordered_sends[1].receiver, 3);

  // Every item got exactly one slot; shipped totals fit the amounts.
  double to5 = 0.0, to3 = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const int a = plan.item_assignment[i];
    if (a == 0) to5 += items[i];
    if (a == 1) to3 += items[i];
  }
  EXPECT_LE(to5, 2.0 + 1e-12);
  EXPECT_LE(to3, 4.0 + 1e-12);
  // The 10.0 item fits nowhere: it must run at the end.
  EXPECT_EQ(plan.item_assignment[4], SenderPlan::kRunAtEnd);
}

TEST(PlanSender, GapBinsRespectTimeline) {
  // One send at t=5 with amount 1: gap bin of size 5.
  std::vector<PlannedSend> sends = {{.receiver = 1, .amount = 1.0, .send_at = 5.0}};
  const std::vector<double> items = {2.0, 2.5, 0.9, 3.0};
  const SenderPlan plan = plan_sender(sends, items);
  double gap_total = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i)
    if (plan.item_assignment[i] == plan.gap_slot(0)) gap_total += items[i];
  EXPECT_LE(gap_total, 5.0 + 1e-12);
}

TEST(PlanSender, EmptySendsRunsEverythingLocally) {
  const SenderPlan plan = plan_sender({}, {1.0, 2.0, 3.0});
  for (const int a : plan.item_assignment)
    EXPECT_EQ(a, SenderPlan::kRunAtEnd);
}

}  // namespace
}  // namespace dtfe
