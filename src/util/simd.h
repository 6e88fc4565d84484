// Compile-time SIMD ISA detection, recorded by the benchmarks as
// `simd_isa` so a measurement names the vector baseline its build carried
// (SSE2 on x86-64, NEON on aarch64, "scalar" elsewhere). No kernel branches
// on it: the marching kernel has one scalar route (DESIGN.md §11).
#pragma once

namespace dtfe::simd {

inline const char* isa_name() {
#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
  return "sse2";
#elif defined(__aarch64__) || defined(_M_ARM64)
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace dtfe::simd
