// The thread runtime: every rank is a thread, every mailbox a deque, and
// the FaultArbiter injects deaths/corruption deterministically. The Comm
// surface and its collectives below are built on Runtime's send/recv.
#include "simmpi/comm.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simmpi/fault.h"
#include "simmpi/mailbox.h"

namespace dtfe::simmpi {

namespace {
// Tags at and above this value are reserved for collectives.
constexpr int kInternalTagBase = 1 << 24;
constexpr int kTagBarrier = kInternalTagBase + 0;
constexpr int kTagBcast = kInternalTagBase + 1;
constexpr int kTagGather = kInternalTagBase + 2;
constexpr int kTagReduce = kInternalTagBase + 3;

// Message/byte totals across all ranks (collective traffic included: the
// collectives are built on these same point-to-point paths, exactly the
// traffic a real MPI run would put on the wire).
struct CommMetrics {
  obs::MetricId messages_sent = obs::counter("dtfe.simmpi.messages_sent");
  obs::MetricId bytes_sent = obs::counter("dtfe.simmpi.bytes_sent");
  obs::MetricId messages_received =
      obs::counter("dtfe.simmpi.messages_received");
  obs::MetricId bytes_received = obs::counter("dtfe.simmpi.bytes_received");
};

const CommMetrics& comm_metrics() {
  static const CommMetrics m;
  return m;
}

}  // namespace

/// The state one run's ranks share: one Mailbox per rank, the FaultArbiter,
/// and per-rank dead flags. Injected kills throw RankKilledSignal into the
/// victim's thread; peers observe the death through the mailbox failure
/// probe and the is_dead() queries.
class Runtime {
 public:
  using Clock = Mailbox::Clock;

  Runtime(int nranks, const FaultPlan* plan)
      : boxes_(static_cast<std::size_t>(nranks)),
        dead_(static_cast<std::size_t>(nranks)),
        arbiter_(plan) {}

  int size() const { return static_cast<int>(boxes_.size()); }

  bool is_dead(int rank) const {
    return dead_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }

  /// Blocking send from `src`. Sends to a dead rank are silently
  /// discarded.
  void send(int src, int dest, int tag, std::span<const std::byte> data) {
    DTFE_CHECK_MSG(dest >= 0 && dest < size(), "send to invalid rank " << dest);
    kill_check(src, tag);
    std::vector<std::byte> payload(data.begin(), data.end());
    std::uint64_t delay_ms = 0;
    if (!arbiter_.apply_message_faults(src, dest, tag, payload, delay_ms))
      return;  // dropped on the (simulated) wire
    if (is_dead(dest)) return;  // no one left to read it
    boxes_[static_cast<std::size_t>(dest)].post(
        src, tag, std::move(payload), std::chrono::milliseconds(delay_ms));
  }

  /// Blocking/bounded receive; an empty deadline waits until a message
  /// arrives or the awaited peer dies.
  RecvResult recv(int me, int source, int tag,
                  std::optional<Clock::time_point> deadline) {
    kill_check(me, tag);
    return boxes_[static_cast<std::size_t>(me)].recv(
        source, tag, deadline, [this, me, source]() -> std::optional<RecvResult> {
          if (source != kAnySource && is_dead(source))
            return RecvResult{RecvStatus::kRankFailed, source, {}};
          if (source == kAnySource && all_others_dead(me))
            return RecvResult{RecvStatus::kRankFailed, -1, {}};
          return std::nullopt;
        });
  }

  bool iprobe(int me, int source, int tag) const {
    return boxes_[static_cast<std::size_t>(me)].iprobe(source, tag);
  }

 private:
  bool all_others_dead(int me) const {
    for (int r = 0; r < size(); ++r)
      if (r != me && !is_dead(r)) return false;
    return size() > 1;
  }

  /// Kill check at the top of every send/recv: when the arbiter fires, mark
  /// the rank dead, wake every blocked peer, and unwind the rank's thread.
  void kill_check(int rank, int tag) {
    if (!arbiter_.on_comm_op(rank, tag)) return;
    dead_[static_cast<std::size_t>(rank)].store(true,
                                                std::memory_order_release);
    // Wake everyone: blocked receivers re-check the dead flags via their
    // failure probe.
    for (Mailbox& box : boxes_) box.notify();
    throw RankKilledSignal{};
  }

  std::vector<Mailbox> boxes_;
  std::vector<std::atomic<bool>> dead_;
  FaultArbiter arbiter_;
};

int Comm::size() const { return rt_->size(); }

bool Comm::rank_failed(int rank) const { return rt_->is_dead(rank); }

bool Comm::any_rank_failed() const { return !failed_ranks().empty(); }

std::vector<int> Comm::failed_ranks() const {
  std::vector<int> out;
  for (int r = 0; r < size(); ++r)
    if (rt_->is_dead(r)) out.push_back(r);
  return out;
}

void Comm::send_bytes(int dest, int tag, std::span<const std::byte> data) {
  if (obs::metrics_enabled()) {
    const CommMetrics& m = comm_metrics();
    obs::add(m.messages_sent);
    obs::add(m.bytes_sent, static_cast<double>(data.size()));
  }
  rt_->send(rank_, dest, tag, data);
}

std::vector<std::byte> Comm::recv_bytes(int source, int tag,
                                        int* actual_source) {
  RecvResult res = rt_->recv(rank_, source, tag, std::nullopt);
  if (res.status == RecvStatus::kRankFailed) {
    count_rank_failed_notification();
    std::ostringstream os;
    os << "rank " << res.source << " failed while rank " << rank_
       << " awaited tag " << tag;
    throw RankFailed(res.source, os.str());
  }
  if (obs::metrics_enabled()) {
    const CommMetrics& m = comm_metrics();
    obs::add(m.messages_received);
    obs::add(m.bytes_received, static_cast<double>(res.payload.size()));
  }
  if (actual_source) *actual_source = res.source;
  return std::move(res.payload);
}

RecvResult Comm::recv_bytes_timeout(int source, int tag, int timeout_ms) {
  RecvResult res = rt_->recv(
      rank_, source, tag,
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms));
  if (res.status == RecvStatus::kRankFailed) {
    count_rank_failed_notification();
  } else if (res.status == RecvStatus::kOk && obs::metrics_enabled()) {
    const CommMetrics& m = comm_metrics();
    obs::add(m.messages_received);
    obs::add(m.bytes_received, static_cast<double>(res.payload.size()));
  }
  return res;
}

bool Comm::iprobe(int source, int tag) const {
  return rt_->iprobe(rank_, source, tag);
}

void Comm::barrier() {
  // Dissemination-free simple tree-less barrier: gather-to-0 then release.
  // Dead ranks are skipped; the survivors still synchronize.
  const std::byte token{0};
  if (rank_ == 0) {
    for (int r = 1; r < size(); ++r) {
      try {
        (void)recv_bytes(r, kTagBarrier);
      } catch (const RankFailed&) {
        // r died before checking in — released below like everyone else
        // (the send to it is discarded).
      }
    }
    for (int r = 1; r < size(); ++r) send_bytes(r, kTagBarrier, {&token, 1});
  } else {
    send_bytes(0, kTagBarrier, {&token, 1});
    (void)recv_bytes(0, kTagBarrier);
  }
}

void Comm::bcast_bytes(std::vector<std::byte>& data, int root) {
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r)
      if (r != root) send_bytes(r, kTagBcast, data);
  } else {
    data = recv_bytes(root, kTagBcast);
  }
}

std::vector<std::vector<std::byte>> Comm::allgather_bytes(
    std::span<const std::byte> mine) {
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(size()));
  out[static_cast<std::size_t>(rank_)].assign(mine.begin(), mine.end());
  for (int r = 0; r < size(); ++r)
    if (r != rank_) send_bytes(r, kTagGather, mine);
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    try {
      out[static_cast<std::size_t>(r)] = recv_bytes(r, kTagGather);
    } catch (const RankFailed&) {
      // dead rank: its slice stays empty
    }
  }
  return out;
}

double Comm::allreduce_sum(double x) {
  double total = x;
  const auto per_rank = allgather_bytes(
      {reinterpret_cast<const std::byte*>(&x), sizeof(double)});
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    if (static_cast<int>(r) == rank_ || per_rank[r].size() != sizeof(double))
      continue;
    double v;
    std::memcpy(&v, per_rank[r].data(), sizeof(double));
    total += v;
  }
  return total;
}

double Comm::allreduce_max(double x) {
  double best = x;
  const auto per_rank = allgather_bytes(
      {reinterpret_cast<const std::byte*>(&x), sizeof(double)});
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    if (static_cast<int>(r) == rank_ || per_rank[r].size() != sizeof(double))
      continue;
    double v;
    std::memcpy(&v, per_rank[r].data(), sizeof(double));
    best = v > best ? v : best;
  }
  return best;
}

void run(int nranks, const RunOptions& opts,
         const std::function<void(Comm&)>& fn) {
  DTFE_CHECK(nranks >= 1);
  Runtime rt(nranks, opts.fault_plan);
  std::vector<std::thread> threads;
  std::mutex err_mutex;
  std::exception_ptr first_error;

  std::vector<Comm> comms;
  comms.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) comms.push_back(Comm(&rt, r));

  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    Comm* comm = &comms[static_cast<std::size_t>(r)];
    threads.emplace_back([comm, r, &fn, &err_mutex, &first_error] {
      obs::TraceRecorder::set_thread_rank(r);
      try {
        fn(*comm);
      } catch (const RankKilledSignal&) {
        // Injected death: the rank just stops. Not an error of the run.
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void run(int nranks, const std::function<void(Comm&)>& fn) {
  run(nranks, RunOptions{}, fn);
}

}  // namespace dtfe::simmpi
