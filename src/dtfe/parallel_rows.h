// Per-cell rows built on the calling thread's OpenMP team.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_THREAD__)
extern "C" void __tsan_acquire(void* addr);
extern "C" void __tsan_release(void* addr);
#endif

namespace dtfe {

/// Call row(i) for every i in [0, n) on the calling thread's OpenMP team,
/// schedule(static). row(i) must write only row i's own storage, so the
/// result is the same for any team size.
///
/// libgomp is not built with ThreadSanitizer, so TSan cannot see the
/// barriers that order the caller's writes before the loop and the rows
/// after it. Without these annotations every later access to a row another
/// team thread wrote is reported (and muted by scripts/tsan.supp) as a race,
/// tens of thousands per render, which makes the TSan suites crawl. They
/// declare only the fork and the two barriers that already exist (plus one
/// more barrier, in TSan builds only); other builds compile the plain loop.
template <class F>
void parallel_rows(std::size_t n, F&& row) {
#if defined(__SANITIZE_THREAD__)
  char sync = 0;
  __tsan_release(&sync);
#endif
#pragma omp parallel
  {
#if defined(__SANITIZE_THREAD__)
    __tsan_acquire(&sync);
#endif
#pragma omp for schedule(static)
    for (std::size_t i = 0; i < n; ++i) row(i);
#if defined(__SANITIZE_THREAD__)
    __tsan_release(&sync);
#pragma omp barrier
    __tsan_acquire(&sync);
#endif
  }
}

}  // namespace dtfe
