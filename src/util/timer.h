// Wall-clock and per-thread CPU timers.
//
// ThreadCpuTimer is the measurement primitive behind every scaling figure in
// this reproduction: with thread-backed "MPI ranks" oversubscribed onto one
// physical core, CLOCK_THREAD_CPUTIME_ID still measures each rank's genuine
// compute, so "parallel time" can be reported as the per-rank critical path.
#pragma once

#include <chrono>
#include <ctime>

namespace dtfe {

/// Monotonic wall-clock stopwatch (seconds).
class WallTimer {
 public:
  WallTimer() { reset(); }
  void reset() { start_ = clock::now(); }
  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Per-thread CPU-time stopwatch (seconds). Unaffected by other threads
/// sharing the core, which makes it the right metric for simulated ranks.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() { reset(); }
  void reset() { start_ = now(); }
  double seconds() const { return now() - start_; }

  /// Current thread CPU time in seconds since an arbitrary epoch.
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }

 private:
  double start_;
};

}  // namespace dtfe
