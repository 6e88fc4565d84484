// Lightweight runtime checking used across the library.
//
// DTFE_CHECK is always on (it guards user-facing API contracts and cheap
// structural invariants); DTFE_DCHECK compiles away in NDEBUG builds and is
// used inside hot kernels.
#pragma once

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dtfe {

/// Exception thrown on violated API contracts and invariants.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

/// a·b·c cells; throws Error naming `what` if the product overflows
/// std::size_t (it would wrap to a small, then overrun, allocation).
inline std::size_t checked_cells(const char* what, std::size_t a,
                                 std::size_t b, std::size_t c = 1) {
  std::size_t ab = 0, abc = 0;
  if (__builtin_mul_overflow(a, b, &ab) || __builtin_mul_overflow(ab, c, &abc))
    throw Error(std::string(what) + ": cell count overflows std::size_t");
  return abc;
}

}  // namespace dtfe

#define DTFE_CHECK(expr)                                              \
  do {                                                                \
    if (!(expr))                                                      \
      ::dtfe::detail::check_failed(#expr, __FILE__, __LINE__, "");    \
  } while (0)

#define DTFE_CHECK_MSG(expr, msg)                                     \
  do {                                                                \
    if (!(expr)) {                                                    \
      std::ostringstream os_;                                         \
      os_ << msg;                                                     \
      ::dtfe::detail::check_failed(#expr, __FILE__, __LINE__,         \
                                   os_.str());                        \
    }                                                                 \
  } while (0)

#ifdef NDEBUG
#define DTFE_DCHECK(expr) ((void)0)
#else
#define DTFE_DCHECK(expr) DTFE_CHECK(expr)
#endif

// Debug-only assertion for hot accessor paths (e.g. Grid2D::at bounds).
// Compiles to nothing in NDEBUG builds so release kernels pay zero cost;
// in debug builds a violation throws Error with the failing expression.
#ifdef NDEBUG
#define DTFE_ASSERT(expr) ((void)0)
#else
#define DTFE_ASSERT(expr) DTFE_CHECK(expr)
#endif
