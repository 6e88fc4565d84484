// One rank's message queue with MPI-style matching (the thread runtime in
// comm.cpp holds one per rank).
//
// Semantics:
//   * FIFO per (source, tag) match; kAnySource matches any deliverable
//     message in queue order.
//   * A message may carry a delivery delay (the fault plan's `delay`
//     action): it is invisible to receivers until ready_at.
//   * When nothing is deliverable and nothing delayed is in flight, the
//     caller-supplied failure probe decides whether to keep waiting or
//     report a dead peer — the "failure notification instead of deadlock"
//     contract from comm.h.
#pragma once

#include <condition_variable>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "simmpi/comm.h"

namespace dtfe::simmpi {

class Mailbox {
 public:
  using Clock = std::chrono::steady_clock;

  /// Consulted under the mailbox lock when no message is deliverable and
  /// none is delayed-in-flight; an engaged result ends the wait (typically
  /// RecvStatus::kRankFailed for a dead peer).
  using FailureProbe = std::function<std::optional<RecvResult>()>;

  void post(int src, int tag, std::vector<std::byte> payload,
            Clock::duration delay = {}) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(
          Message{src, tag, std::move(payload), Clock::now() + delay});
    }
    cv_.notify_all();
  }

  /// Wake all waiters so they re-evaluate the failure probe (call after
  /// marking a rank dead).
  void notify() {
    std::lock_guard<std::mutex> lock(mutex_);
    cv_.notify_all();
  }

  /// Blocking/bounded receive matching (source, tag); empty deadline waits
  /// forever (until a message or the failure probe fires).
  RecvResult recv(int source, int tag,
                  std::optional<Clock::time_point> deadline,
                  const FailureProbe& failure_probe) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const Clock::time_point now = Clock::now();
      std::optional<Clock::time_point> next_ready;
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if ((source != kAnySource && it->src != source) || it->tag != tag)
          continue;
        if (it->ready_at > now) {
          if (!next_ready || it->ready_at < *next_ready)
            next_ready = it->ready_at;
          continue;  // delayed delivery: not visible yet
        }
        RecvResult res;
        res.status = RecvStatus::kOk;
        res.source = it->src;
        res.payload = std::move(it->payload);
        queue_.erase(it);
        return res;
      }
      // Nothing deliverable now. If nothing is even in flight (delayed) and
      // the awaited peer(s) are dead, report the failure instead of hanging.
      if (!next_ready && failure_probe) {
        if (auto failed = failure_probe()) return *failed;
      }
      if (deadline && now >= *deadline)
        return RecvResult{RecvStatus::kTimeout, -1, {}};
      std::optional<Clock::time_point> wake = deadline;
      if (next_ready && (!wake || *next_ready < *wake)) wake = next_ready;
      if (wake)
        cv_.wait_until(lock, *wake);
      else
        cv_.wait(lock);
    }
  }

  bool iprobe(int source, int tag) const {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Message& m : queue_)
      if ((source == kAnySource || m.src == source) && m.tag == tag &&
          m.ready_at <= now)
        return true;
    return false;
  }

 private:
  struct Message {
    int src;
    int tag;
    std::vector<std::byte> payload;
    Clock::time_point ready_at;  ///< delayed-fault delivery time
  };

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
};

}  // namespace dtfe::simmpi
