// The one threading mechanism. Every OpenMP team, schedule and ICV in src/
// comes from this header: a rank's concurrent work items, the friends-of-
// friends passes, the per-cell row builds, the tiled render loop and its
// pixel order, the per-pixel RNG seed and each thread's team size. It sits
// in util/ so every layer above it (nbody, dtfe, engine) shares it.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/cancel.h"
#include "util/rng.h"
#include "util/timer.h"

#if defined(__SANITIZE_THREAD__)
extern "C" void __tsan_acquire(void* addr);
extern "C" void __tsan_release(void* addr);
#endif

namespace dtfe {

namespace detail {
// libgomp is not built with ThreadSanitizer, so TSan cannot see the fork,
// barriers and join that order a team's accesses. These declare such an
// edge, one OpenMP already guarantees, on a per-call token; they compile to
// nothing outside TSan builds.
//
// A declared fork cannot cover the region's captured data, which the
// compiler writes after the caller's release, and a reused team's workers
// read it with no edge TSan sees. So in TSan builds every region also ends
// its team (tsan_end_team): the next region's threads are created afresh,
// and thread creation is a fork TSan does see. With both, the TSan suites
// run with no suppressions.
#if defined(__SANITIZE_THREAD__)
inline void tsan_release(void* token) { __tsan_release(token); }
inline void tsan_acquire(void* token) { __tsan_acquire(token); }
inline void tsan_end_team() { omp_pause_resource_all(omp_pause_soft); }
#else
inline void tsan_release(void*) {}
inline void tsan_acquire(void*) {}
inline void tsan_end_team() {}
#endif
}  // namespace detail

/// The order in which the render loops visit an nx×ny grid: square tiles of
/// kSide×kSide pixels in row-major tile order, ragged at the right and top
/// edges, each visited row by row. A tile is one unit of dynamic scheduling.
/// Neighbouring lines of sight cross mostly the same tetrahedra, so a tile's
/// rays reuse table rows a whole image row would already have evicted from
/// L2 (DESIGN.md §11). Visiting order never enters a pixel's value.
class PixelTiles {
 public:
  /// 8, not 16: a 32² catalog grid still makes 16 tiles for a rank team.
  static constexpr std::size_t kSide = 8;

  PixelTiles(std::size_t nx, std::size_t ny)
      : nx_(nx), ny_(ny), tiles_x_((nx + kSide - 1) / kSide) {}

  std::size_t count() const { return tiles_x_ * ((ny_ + kSide - 1) / kSide); }

  /// Call f(ix, iy) for every pixel of tile t, row by row.
  template <class F>
  void for_each_pixel(std::size_t t, F&& f) const {
    const std::size_t x0 = (t % tiles_x_) * kSide, y0 = (t / tiles_x_) * kSide;
    const std::size_t x1 = std::min(x0 + kSide, nx_);
    const std::size_t y1 = std::min(y0 + kSide, ny_);
    for (std::size_t iy = y0; iy < y1; ++iy)
      for (std::size_t ix = x0; ix < x1; ++ix) f(ix, iy);
  }

 private:
  std::size_t nx_, ny_, tiles_x_;
};

/// Call row(i) for every i in [0, n) on the calling thread's OpenMP team,
/// schedule(static). row(i) must write only row i's own storage, so the
/// result is the same for any team size.
///
/// Without the TSan edges every later access to a row another team thread
/// wrote is reported as a race, tens of thousands per render, which makes
/// the TSan suites crawl. They declare
/// only the fork and the join that already exist; other builds compile the
/// plain loop.
template <class F>
void parallel_rows(std::size_t n, F&& row) {
  char sync = 0;
  detail::tsan_release(&sync);
#pragma omp parallel
  {
    detail::tsan_acquire(&sync);
#pragma omp for schedule(static)
    for (std::size_t i = 0; i < n; ++i) row(i);
    detail::tsan_release(&sync);
  }
  detail::tsan_acquire(&sync);
  detail::tsan_end_team();
}

/// Call task(i) for every i in [0, n) on the calling thread's team, one
/// index per schedule(dynamic, 1) unit, so a long task never holds back the
/// ones queued behind it. A team opened inside a task nests inactive (see
/// set_team_size): the task's renders and row builds run on its own thread.
/// task(i) writes only task i's own storage, or shared state through atomics
/// whose end state does not depend on the order (the FOF union-find), and
/// must not throw (an exception must not leave the region); the caller reads
/// the results in index order after the join. A single task runs inline,
/// keeping the whole team for its kernels. The declared TSan fork and join
/// order what the caller prepared before the tasks and what they wrote
/// before whatever the caller does next.
template <class F>
void parallel_tasks(std::size_t n, F&& task) {
  if (n <= 1) {
    if (n == 1) task(std::size_t{0});
    return;
  }
  const auto count = static_cast<std::ptrdiff_t>(n);
  char sync = 0;
  detail::tsan_release(&sync);
#pragma omp parallel
  {
    detail::tsan_acquire(&sync);
#pragma omp for schedule(dynamic, 1)
    for (std::ptrdiff_t i = 0; i < count; ++i)
      task(static_cast<std::size_t>(i));
    detail::tsan_release(&sync);
  }
  detail::tsan_acquire(&sync);
  detail::tsan_end_team();
}

/// A pixel's RNG state: splitmix of (stream seed, row-major pixel index).
/// Independent of which thread renders the pixel and in what order, so a
/// render is bitwise reproducible under any schedule and team size, the
/// property checkpoint resume relies on. Never 0 (xorshift's fixed point).
inline std::uint64_t pixel_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
  const std::uint64_t v = detail::splitmix64(state);
  return v ? v : 0x9e3779b97f4a7c15ull;
}

/// The calling thread's team size when nothing set it (the OpenMP default).
inline int default_team_size() { return omp_get_max_threads(); }

/// Cap the calling thread's teams at n threads and forbid nested teams: a
/// team opened inside one of them (a render inside a parallel_tasks task)
/// runs on the one thread that opens it. Both are per-thread settings, so
/// each rank thread sets its own.
inline void set_team_size(int n) {
  omp_set_num_threads(n);
  omp_set_max_active_levels(1);
}

template <class Tally>
struct TileRun {
  Tally tally{};  ///< every tile's Tally, summed in tile order
  std::vector<double> thread_seconds;  ///< CPU seconds per team thread
  bool cancelled = false;  ///< the deadline fired; some pixels were skipped
};

/// Call pixel(ix, iy, tally) once per pixel of an nx × ny grid on the
/// calling thread's team, in PixelTiles order: one 8×8 tile per
/// schedule(dynamic, 1) unit, or with `static_bands` one contiguous band of
/// tiles per thread, schedule(static). Each tile's pixels add, row by row,
/// into that tile's own Tally (which needs `+=`), and the tiles' Tallies are
/// summed in tile order after the join, so a floating-point tally (the
/// march's ray mass) is the same bits under any schedule and team size. A
/// pixel writes only its own output and seeds any RNG from pixel_seed, so
/// the grid does not depend on the schedule either.
///
/// Each thread polls `deadline` (may be null) on its first pixel and every
/// 16th after; once it fires, all skip their remaining pixels and the run
/// comes back `cancelled` for the caller to throw (an exception must not
/// leave the region). The declared TSan fork and join order what pixels
/// read and write before whatever the caller does next, freeing the cube
/// included; the suppressions miss such a report when TSan cannot restore
/// the worker's stack.
template <class Tally, class Pixel>
TileRun<Tally> render_tiles(std::size_t nx, std::size_t ny,
                            const Deadline* deadline, Pixel&& pixel,
                            bool static_bands = false) {
  // omp_get_max_threads() bounds the region's team from above; inside an
  // outer team the region nests inactive and runs on one thread, so the
  // per-thread slots are trimmed to the team that actually ran.
  const auto bound = static_cast<std::size_t>(omp_get_max_threads());
  TileRun<Tally> run;
  run.thread_seconds.assign(bound, 0.0);
  std::size_t team = bound;
  std::atomic<bool> cancelled{false};
  const PixelTiles tiles(nx, ny);
  const auto n_tiles = static_cast<std::ptrdiff_t>(tiles.count());
  std::vector<Tally> tile_tallies(tiles.count());

  char sync = 0;
  detail::tsan_release(&sync);
#pragma omp parallel
  {
    detail::tsan_acquire(&sync);
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    if (tid == 0) team = static_cast<std::size_t>(omp_get_num_threads());
    ThreadCpuTimer timer;
    std::uint64_t pixels_done = 0;
    auto visit_tile = [&](std::ptrdiff_t t) {
      Tally tally{};  // on this thread's stack: no false sharing
      tiles.for_each_pixel(static_cast<std::size_t>(t), [&](std::size_t ix,
                                                            std::size_t iy) {
        if (deadline &&
            (cancelled.load(std::memory_order_relaxed) ||
             ((pixels_done++ & 15) == 0 && deadline->expired()))) {
          cancelled.store(true, std::memory_order_relaxed);
          return;
        }
        pixel(ix, iy, tally);
      });
      tile_tallies[static_cast<std::size_t>(t)] = tally;
    };
    if (static_bands) {
#pragma omp for schedule(static)
      for (std::ptrdiff_t t = 0; t < n_tiles; ++t) visit_tile(t);
    } else {
#pragma omp for schedule(dynamic, 1)
      for (std::ptrdiff_t t = 0; t < n_tiles; ++t) visit_tile(t);
    }
    run.thread_seconds[tid] = timer.seconds();
    detail::tsan_release(&sync);
  }
  detail::tsan_acquire(&sync);
  detail::tsan_end_team();

  run.thread_seconds.resize(team);
  for (const Tally& t : tile_tallies) run.tally += t;
  run.cancelled = cancelled.load(std::memory_order_relaxed);
  return run;
}

}  // namespace dtfe
