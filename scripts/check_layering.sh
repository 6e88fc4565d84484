#!/usr/bin/env bash
# Layering lint: keep the dependency arrows pointing one way
# (util/obs → geometry → delaunay → dtfe → framework → engine → apps).
#
#   * src/dtfe/ is pure numerics — it must not reach up into the
#     orchestration layers (framework/, engine/, simmpi/).
#   * apps/ talks to the pipeline only through the engine facade — no direct
#     framework/ or simmpi/ includes (engine/engine.h re-exports what a
#     subcommand legitimately needs).
#
#   * OpenMP has one owner: no `#include <omp.h>`, `#pragma omp` or
#     `omp_*(` call in src/, apps/ or bench/ outside src/util/parallel.h,
#     so replacing the threading mechanism means replacing that header.
#
# Greps source lines only, so the rules stay cheap and editor-friendly.
# Run from anywhere; exits non-zero listing every violating line.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

check() {
  local dir="$1" pattern="$2" rule="$3"
  local hits
  hits="$(grep -rnE "^[[:space:]]*#include[[:space:]]+\"(${pattern})/" \
          "$dir" --include='*.h' --include='*.cpp' || true)"
  if [ -n "$hits" ]; then
    echo "layering violation: $rule" >&2
    echo "$hits" >&2
    fail=1
  fi
}

check src/dtfe  'framework|engine|simmpi' \
      'src/dtfe/ must not include framework/, engine/, or simmpi/'
check apps      'framework|simmpi' \
      'apps/ must go through engine/ (no direct framework/ or simmpi/ includes)'

omp_hits="$(grep -rnE \
  '#[[:space:]]*include[[:space:]]*<omp\.h>|#[[:space:]]*pragma[[:space:]]+omp|\bomp_[a-z_]+[[:space:]]*\(' \
  src apps bench --include='*.h' --include='*.cpp' |
  grep -v '^src/util/parallel\.h:' || true)"
if [ -n "$omp_hits" ]; then
  echo "layering violation: OpenMP is used only through src/util/parallel.h" >&2
  echo "$omp_hits" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "check_layering: FAILED" >&2
  exit 1
fi
echo "check_layering: ok"
