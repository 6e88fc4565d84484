// Chrome trace_event recording (chrome://tracing / Perfetto "Open trace
// file"): RAII spans tagged with the simulated MPI rank (pid lane) and a
// per-thread id (tid lane), serialized as the JSON Array Format of complete
// ("X") events.
//
// Like the metrics registry, the recorder defaults to disabled and a
// disabled span costs one relaxed atomic load at construction. Event
// emission takes a single recorder mutex — spans are emitted per phase /
// per work item, not per ray, so contention is negligible.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dtfe::obs {

/// One trace event. `args` are numeric key/values rendered into the Chrome
/// `args` object (e.g. {"cpu_s": 0.012} for a span's thread-CPU seconds).
struct TraceEvent {
  std::string name;
  std::string cat;
  char phase = 'X';     ///< 'X' complete, 'i' instant
  double ts_us = 0.0;   ///< start, microseconds since recorder epoch
  double dur_us = 0.0;  ///< complete events only
  int pid = 0;          ///< simulated MPI rank
  int tid = 0;          ///< per-process thread id
  std::vector<std::pair<std::string, double>> args;
};

class TraceRecorder {
 public:
  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-wide recorder all library instrumentation reports to.
  static TraceRecorder& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Tag subsequent events from the calling thread with this rank (pid
  /// lane). Thread-local; simmpi rank threads call it on entry.
  static void set_thread_rank(int rank);
  static int thread_rank();

  /// Microseconds since the recorder's epoch (monotonic).
  double now_us() const;

  /// Append a complete event with explicit timing (used by TraceSpan).
  void emit_complete(std::string name, std::string cat, double ts_us,
                     double dur_us,
                     std::vector<std::pair<std::string, double>> args = {});

  /// Instant event at now.
  void emit_instant(std::string name, std::string cat,
                    std::vector<std::pair<std::string, double>> args = {});

  std::size_t size() const;
  std::vector<TraceEvent> events() const;
  void clear();

  /// Serialize to the Chrome JSON Array Format, including process_name
  /// metadata per rank. Never throws; write_json returns false on IO error.
  std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  double epoch_ = 0.0;  ///< steady_clock seconds at construction
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// RAII span: measures wall duration (event dur) and thread-CPU seconds
/// (emitted as args["cpu_s"]) between construction and destruction, then
/// appends a complete event. A span constructed while the recorder is
/// disabled stays inert even if recording is enabled before it closes.
///
/// A span given a CPU accumulator is also a phase timer: it reads the
/// thread-CPU clock even with tracing off, and on close adds into
/// `*cpu_total` exactly the value it emits as cpu_s, so per-phase totals
/// and the trace agree by construction.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name, std::string cat = "dtfe",
                     TraceRecorder* recorder = nullptr);
  TraceSpan(std::string name, std::string cat, double* cpu_total,
            TraceRecorder* recorder = nullptr);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

  /// Attach a numeric argument to the event this span will emit.
  void add_arg(std::string key, double value);

  /// Emit now instead of at scope exit (idempotent).
  void close();

 private:
  TraceRecorder* recorder_ = nullptr;  ///< null when not emitting
  double* cpu_total_ = nullptr;        ///< null when not accumulating
  std::string name_, cat_;
  double start_us_ = 0.0;
  double cpu_start_ = 0.0;
  std::vector<std::pair<std::string, double>> args_;
};

}  // namespace dtfe::obs
