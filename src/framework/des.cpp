#include "framework/des.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/stats.h"

namespace dtfe {

DesResult simulate_work_sharing(
    const std::vector<std::vector<double>>& actual,
    const std::vector<std::vector<double>>& predicted,
    const DesOptions& opt) {
  const std::size_t P = actual.size();
  DTFE_CHECK(predicted.size() == P);
  DesResult res;
  if (P == 0) return res;

  // Per-rank predicted totals drive the schedule; actual totals give the
  // unbalanced baseline.
  std::vector<RankWork> work(P);
  RunningStats unbalanced_stats;
  double total_actual = 0.0;
  for (std::size_t r = 0; r < P; ++r) {
    DTFE_CHECK(predicted[r].size() == actual[r].size());
    double pred = 0.0, act = 0.0;
    for (double t : predicted[r]) pred += t;
    for (double t : actual[r]) act += t;
    work[r] = {static_cast<int>(r), pred};
    res.makespan_unbalanced = std::max(res.makespan_unbalanced, act);
    unbalanced_stats.add(act);
    total_actual += act;
  }
  res.average_work = total_actual / static_cast<double>(P);
  res.busy_std_unbalanced = unbalanced_stats.stddev();

  // Every rank computes the same schedule (as in the real code, where the
  // Allgathered inputs are identical): row r of the all-ranks schedule is
  // what rank r's own create_communication_list call returns.
  const std::vector<WorkShareSchedule> schedules =
      create_communication_lists(std::move(work));
  std::vector<SenderPlan> plans(P);
  for (std::size_t r = 0; r < P; ++r)
    if (!schedules[r].send_list.empty())
      plans[r] = plan_sender(schedules[r].send_list, predicted[r]);

  // --- sender timelines ------------------------------------------------------
  // Senders never block (buffered sends), so their timelines close first.
  // arrivals[receiver] collects (sender, arrival_time, actual shipped work)
  // in send order — matched by sender id at the receiver, like
  // MPI_Recv(source).
  struct Incoming {
    int sender = 0;
    double arrival = 0.0;
    double work = 0.0;
    bool received = false;
  };
  std::vector<std::vector<Incoming>> arrivals(P);
  std::vector<double> finish(P, 0.0);
  std::vector<double> busy(P, 0.0);

  for (std::size_t r = 0; r < P; ++r) {
    if (schedules[r].send_list.empty()) continue;
    const SenderPlan& plan = plans[r];
    double now = 0.0;
    double my_busy = 0.0;
    for (std::size_t k = 0; k < plan.ordered_sends.size(); ++k) {
      for (std::size_t i = 0; i < actual[r].size(); ++i)
        if (plan.item_assignment[i] == plan.gap_slot(k)) {
          now += actual[r][i];
          my_busy += actual[r][i];
        }
      double shipped_actual = 0.0;
      for (std::size_t i = 0; i < actual[r].size(); ++i)
        if (plan.item_assignment[i] == static_cast<int>(k))
          shipped_actual += actual[r][i];
      const auto dest = static_cast<std::size_t>(plan.ordered_sends[k].receiver);
      arrivals[dest].push_back(
          {static_cast<int>(r),
           now + opt.message_latency +
               opt.seconds_per_unit_sent * shipped_actual,
           shipped_actual, false});
      res.shipped_work += shipped_actual;
    }
    for (std::size_t i = 0; i < actual[r].size(); ++i)
      if (plan.item_assignment[i] == SenderPlan::kRunAtEnd) {
        now += actual[r][i];
        my_busy += actual[r][i];
      }
    finish[r] = now;
    busy[r] = my_busy;
  }

  // --- receiver / neutral timelines -------------------------------------------
  for (std::size_t r = 0; r < P; ++r) {
    if (!schedules[r].send_list.empty()) continue;
    double now = 0.0;
    double my_busy = 0.0;
    for (double t : actual[r]) {
      now += t;
      my_busy += t;
    }
    // By sender, each sender's messages still in send order: a receive from
    // s takes s's first message not yet received.
    std::vector<Incoming>& inbox = arrivals[r];
    std::stable_sort(inbox.begin(), inbox.end(),
                     [](const Incoming& a, const Incoming& b) {
                       return a.sender < b.sender;
                     });
    for (const int sender : schedules[r].recv_list) {
      auto it = std::lower_bound(
          inbox.begin(), inbox.end(), sender,
          [](const Incoming& m, int s) { return m.sender < s; });
      while (it != inbox.end() && it->sender == sender && it->received) ++it;
      DTFE_CHECK_MSG(it != inbox.end() && it->sender == sender,
                     "schedule promised a message that was never sent");
      it->received = true;
      const Incoming& msg = *it;
      now = std::max(now, msg.arrival);  // blocking MPI_Recv
      now += msg.work;
      my_busy += msg.work;
    }
    finish[r] = now;
    busy[r] = my_busy;
  }

  RunningStats balanced_stats;
  for (std::size_t r = 0; r < P; ++r) {
    res.makespan_balanced = std::max(res.makespan_balanced, finish[r]);
    balanced_stats.add(busy[r]);
  }
  res.busy_std_balanced = balanced_stats.stddev();
  res.finish_times = std::move(finish);
  return res;
}

namespace {

/// Scan a report JSON for `"key":<number>` and return the number, or
/// `fallback` when absent. The report writer (obs/report.cpp) emits summary
/// entries exactly in this shape, so no general JSON parser is needed.
double json_number(const std::string& body, const std::string& key,
                   double fallback) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = body.find(needle);
  if (pos == std::string::npos) return fallback;
  return std::strtod(body.c_str() + pos + needle.size(), nullptr);
}

}  // namespace

DesOptions load_des_calibration(const std::string& report_json_path) {
  std::ifstream in(report_json_path);
  DTFE_CHECK_MSG(in.good(), "cannot read DES calibration report "
                                << report_json_path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();

  const double messages = json_number(body, "transport_messages", 0.0);
  DTFE_CHECK_MSG(messages > 0.0,
                 "report " << report_json_path
                           << " has no transport_* summaries (was it a "
                              "--transport=socket run with --report?)");
  DesOptions opt;
  const double intercept =
      json_number(body, "transport_latency_intercept_s", 0.0);
  const double mean_latency =
      json_number(body, "transport_msg_latency_mean_s", 0.0);
  opt.message_latency = intercept > 0.0 ? intercept : mean_latency;
  opt.seconds_per_unit_sent =
      json_number(body, "transport_seconds_per_byte", 0.0) *
      json_number(body, "transport_bytes_per_msg", 0.0);
  return opt;
}

}  // namespace dtfe
