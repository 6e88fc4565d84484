#include "framework/schedule.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"
#include "util/binpack.h"
#include "util/error.h"

namespace dtfe {

namespace {
struct ScheduleMetrics {
  obs::MetricId schedules = obs::counter("dtfe.schedule.schedules_created");
  obs::MetricId planned_sends = obs::counter("dtfe.schedule.planned_sends");
  obs::MetricId items_packed = obs::counter("dtfe.schedule.items_packed");
  obs::MetricId items_leftover = obs::counter("dtfe.schedule.items_leftover");
  obs::MetricId fill_ratio = obs::gauge("dtfe.schedule.binpack_fill_ratio");
};

const ScheduleMetrics& schedule_metrics() {
  static const ScheduleMetrics m;
  return m;
}
}  // namespace

namespace {

/// Every rank's lists; false if the input was already level (nothing to
/// share), in which case no schedule is counted.
bool schedule_rows(std::vector<RankWork> all,
                   std::vector<WorkShareSchedule>& rows) {
  const std::size_t P = all.size();
  rows.assign(P, WorkShareSchedule{});
  std::vector<bool> seen(P, false);
  for (const RankWork& w : all) {
    DTFE_CHECK_MSG(w.id >= 0 && static_cast<std::size_t>(w.id) < P &&
                       !seen[static_cast<std::size_t>(w.id)],
                   "work-sharing ranks must be numbered 0.." << P - 1
                                                              << ", each once");
    seen[static_cast<std::size_t>(w.id)] = true;
  }
  if (P == 0) return false;

  double avg = 0.0;
  for (const RankWork& w : all) avg += w.time;
  avg /= static_cast<double>(P);
  for (WorkShareSchedule& row : rows) row.average_time = avg;

  // Ps ← SortByTimeDescending(P)
  std::stable_sort(all.begin(), all.end(),
                   [](const RankWork& a, const RankWork& b) {
                     return a.time > b.time;
                   });

  // lr ← index of the last sender (count of above-average ranks − 1).
  std::ptrdiff_t lr = -1;
  for (const RankWork& w : all) {
    if (w.time > avg)
      ++lr;
    else
      break;
  }
  if (lr < 0) return false;  // perfectly balanced: nothing to share

  std::ptrdiff_t cr = static_cast<std::ptrdiff_t>(P) - 1;
  for (std::ptrdiff_t i = 0; i <= lr; ++i) {
    while (cr > lr && all[static_cast<std::size_t>(i)].time > avg) {
      RankWork& sender = all[static_cast<std::size_t>(i)];
      RankWork& receiver = all[static_cast<std::size_t>(cr)];
      WorkShareSchedule& send_row = rows[static_cast<std::size_t>(sender.id)];
      WorkShareSchedule& recv_row = rows[static_cast<std::size_t>(receiver.id)];
      const double excess = sender.time - avg;
      const double capacity = avg - receiver.time;
      if (capacity <= 0.0) {
        // This receiver was filled exactly to the average by a previous
        // sender; move to the next candidate (they are less loaded as cr
        // decreases toward lr in the descending sort).
        --cr;
        continue;
      }
      if (excess > capacity) {
        // Fill this receiver to the average and move to the next receiver.
        send_row.send_list.push_back({receiver.id, capacity, receiver.time});
        recv_row.recv_list.push_back(sender.id);
        sender.time -= capacity;
        receiver.time = avg;
        --cr;
      } else {
        // The receiver absorbs the sender's whole excess; it remains the
        // candidate for the next sender.
        send_row.send_list.push_back({receiver.id, excess, receiver.time});
        recv_row.recv_list.push_back(sender.id);
        receiver.time += excess;
        sender.time = avg;
      }
    }
  }
  return true;
}

void count_schedules(std::size_t schedules, std::size_t sends) {
  if (!obs::metrics_enabled()) return;
  const ScheduleMetrics& m = schedule_metrics();
  obs::add(m.schedules, static_cast<double>(schedules));
  obs::add(m.planned_sends, static_cast<double>(sends));
}

}  // namespace

std::vector<WorkShareSchedule> create_communication_lists(
    std::vector<RankWork> all) {
  std::vector<WorkShareSchedule> rows;
  if (schedule_rows(std::move(all), rows)) {
    std::size_t sends = 0;
    for (const WorkShareSchedule& row : rows) sends += row.send_list.size();
    count_schedules(rows.size(), sends);
  }
  return rows;
}

WorkShareSchedule create_communication_list(std::vector<RankWork> all,
                                            int my_id) {
  if (all.empty()) return {};
  DTFE_CHECK_MSG(my_id >= 0 && static_cast<std::size_t>(my_id) < all.size(),
                 "rank " << my_id << " is not one of the " << all.size()
                         << " work-sharing ranks");
  std::vector<WorkShareSchedule> rows;
  const bool shared = schedule_rows(std::move(all), rows);
  WorkShareSchedule out = std::move(rows[static_cast<std::size_t>(my_id)]);
  if (shared) count_schedules(1, out.send_list.size());
  return out;
}

SenderPlan plan_sender(const std::vector<PlannedSend>& sends,
                       const std::vector<double>& item_times) {
  SenderPlan plan;
  plan.ordered_sends = sends;
  std::stable_sort(plan.ordered_sends.begin(), plan.ordered_sends.end(),
                   [](const PlannedSend& a, const PlannedSend& b) {
                     return a.send_at < b.send_at;
                   });

  // Bins: one per inter-send gap (local execution time available before each
  // send) and one per send (amount of work to ship). Identified by index:
  // bins [0, n_sends) are gaps, [n_sends, 2·n_sends) are send amounts.
  const std::size_t n = plan.ordered_sends.size();
  std::vector<double> bins(2 * n, 0.0);
  double prev = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    bins[k] = std::max(0.0, plan.ordered_sends[k].send_at - prev);
    prev = plan.ordered_sends[k].send_at;
    bins[n + k] = plan.ordered_sends[k].amount;
  }

  const BinAssignment packed = pack_first_fit(item_times, bins);
  plan.item_assignment.assign(item_times.size(), SenderPlan::kRunAtEnd);
  double packed_time = 0.0;
  std::size_t packed_items = 0;
  for (std::size_t i = 0; i < item_times.size(); ++i) {
    const std::ptrdiff_t b = packed.item_to_bin[i];
    if (b < 0) continue;  // leftover: run locally at the end
    packed_time += item_times[i];
    ++packed_items;
    if (static_cast<std::size_t>(b) < n)
      plan.item_assignment[i] = plan.gap_slot(static_cast<std::size_t>(b));
    else
      plan.item_assignment[i] = static_cast<int>(static_cast<std::size_t>(b) - n);
  }
  if (obs::metrics_enabled()) {
    const ScheduleMetrics& m = schedule_metrics();
    obs::add(m.items_packed, static_cast<double>(packed_items));
    obs::add(m.items_leftover,
             static_cast<double>(item_times.size() - packed_items));
    const double capacity =
        std::accumulate(bins.begin(), bins.end(), 0.0);
    if (capacity > 0.0) obs::set(m.fill_ratio, packed_time / capacity);
  }
  return plan;
}

}  // namespace dtfe
