// Shared retry/backoff policy: bounded exponential backoff with
// deterministic jitter.
//
// The socket worker's connect path expresses its bounds through this struct
// instead of ad-hoc counters. Work packages are never retried: a lost one is
// recomputed by the pipeline's RecoverStage.
//
// Determinism: the jitter is a pure function of (seed, attempt) via
// splitmix64, never of wall-clock or a global RNG. Two runs with the same
// seed produce the same delay sequence, which keeps fault-plan replays
// reproducible over the real wire.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "util/rng.h"

namespace dtfe {

struct RetryPolicy {
  /// How many retries are allowed AFTER the first attempt. attempt indices
  /// passed to the helpers are 1-based retry counts: exhausted(n) is true
  /// once n > max_retries.
  int max_retries = 3;
  double base_delay_ms = 2.0;   ///< delay before the first retry
  double max_delay_ms = 500.0;  ///< backoff ceiling
  double multiplier = 2.0;      ///< exponential growth per retry
  /// Fraction of the computed delay replaced by deterministic jitter
  /// (0 = pure exponential). Jitter spreads reconnect storms without
  /// sacrificing replayability.
  double jitter_frac = 0.25;
  std::uint64_t seed = 1;       ///< jitter stream (callers mix in their rank)

  bool exhausted(int retry) const { return retry > max_retries; }

  /// Backoff delay before 1-based retry `retry`, bounded and jittered.
  double delay_ms(int retry) const {
    if (retry < 1) retry = 1;
    double d = base_delay_ms;
    for (int i = 1; i < retry && d < max_delay_ms; ++i) d *= multiplier;
    d = std::min(d, max_delay_ms);
    if (jitter_frac > 0.0) {
      std::uint64_t s = seed ^ (static_cast<std::uint64_t>(retry) << 32);
      const std::uint64_t h = detail::splitmix64(s);
      const double u =
          static_cast<double>(h >> 11) / 9007199254740992.0;  // [0,1)
      d = d * (1.0 - jitter_frac) + d * jitter_frac * u;
    }
    return d;
  }

  /// Sleep the backoff delay for 1-based retry `retry`.
  void backoff(int retry) const {
    const double ms = delay_ms(retry);
    if (ms > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
};

}  // namespace dtfe
