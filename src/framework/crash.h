// Crash diagnostics: turn a hard fault (SIGSEGV/SIGABRT/SIGBUS/SIGFPE) into
// an actionable post-mortem instead of a bare "Segmentation fault".
//
// install_crash_handler() registers a signal handler that, on a fatal
// signal, writes to stderr:
//   * the signal name,
//   * every in-flight work item (rank / request index / phase), recorded by
//     the pipeline through lock-free per-thread slots (ScopedCrashItem), and
//   * a backtrace (backtrace_symbols_fd — async-signal-safe),
// then best-effort flushes a partial run report (if one was registered) and
// re-raises the default disposition so the exit code still reflects the
// crash. The handler only uses write(2), backtrace_symbols_fd and atomics
// on the hot path; the report flush is a deliberate best-effort step beyond
// the async-signal-safe set, taken only when the process is already doomed.
//
// In-flight items live in one process-wide array of lock-free slots, claimed
// per thread via ScopedCrashItem around compute/render work. Every pipeline
// run in the process (every rank thread, every engine) marks into the same
// array, so a crash names exactly the items being processed at the time,
// whichever run owned them.
#pragma once

#include <cstdint>
#include <string>

namespace dtfe::obs {
class RunReport;
}

namespace dtfe {

/// Install handlers for SIGSEGV, SIGABRT, SIGBUS and SIGFPE. Idempotent;
/// `report_path` ("" = none) is where the partial run report goes.
void install_crash_handler(const std::string& report_path = "");

/// Register / replace the run report to flush from the crash handler. The
/// pointed-to report must outlive any possible crash (pass nullptr to
/// detach before destroying it).
void set_crash_report(obs::RunReport* report);

/// RAII marker: "this thread is processing item `request_index` for `rank`
/// in phase `phase`". `phase` must be a string literal (the handler prints
/// the pointer's target after the crash, so it must never dangle). When
/// all slots are busy the item runs unmarked.
class ScopedCrashItem {
 public:
  ScopedCrashItem(int rank, std::int64_t request_index, const char* phase);
  ~ScopedCrashItem();
  ScopedCrashItem(const ScopedCrashItem&) = delete;
  ScopedCrashItem& operator=(const ScopedCrashItem&) = delete;

 private:
  int slot_ = -1;
};

/// Number of currently marked in-flight items (tests).
int crash_items_in_flight();

}  // namespace dtfe
