#!/usr/bin/env bash
# Fault-injection matrix: sweep fault plans × rank counts through
# `pdtfe pipeline` and assert that every faulty run
#   (a) exits 0,
#   (b) completes ALL fields (containment, the package check and recovery
#       did their job), and
#   (c) reproduces the fault-free total grid checksum (relative 1e-6), and
#   (d) shows that its fault fired: the run's --metrics-out must count >=1
#       on the dtfe.fault.* counter of every clause of the plan.
#
# A field column kills a rank under the multi-channel estimators and
# requires each field's own fault-free checksum back (relative 1e-6).
#
# A resume column then re-runs the kill scenario with --checkpoint-dir,
# deletes one journal to simulate crash data loss, and asserts that the
# `--resume` run replays the surviving commits and reproduces the baseline
# checksum EXACTLY (checkpoint restarts are bitwise deterministic).
#
# usage: run_fault_matrix.sh [pdtfe-binary] [--sanitize thread|address]
#
# With --sanitize the script configures and builds build-<san>/ with
# -DDTFE_SANITIZE=<san> and sweeps that binary instead, so the same matrix
# doubles as the ThreadSanitizer gate for the fault paths:
#   scripts/run_fault_matrix.sh --sanitize thread
# Default binary: build/apps/pdtfe (or pass a path).
set -euo pipefail

cd "$(dirname "$0")/.."

PDTFE="build/apps/pdtfe"
SANITIZE=""
while [ $# -gt 0 ]; do
  case "$1" in
    --sanitize)
      SANITIZE="$2"
      shift 2
      ;;
    *)
      PDTFE="$1"
      shift
      ;;
  esac
done

if [ -n "$SANITIZE" ]; then
  BUILD="build-$SANITIZE"
  echo "== configuring $BUILD with DTFE_SANITIZE=$SANITIZE"
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DDTFE_SANITIZE="$SANITIZE" >/dev/null
  cmake --build "$BUILD" --target pdtfe -j"$(nproc)" >/dev/null
  PDTFE="$BUILD/apps/pdtfe"
fi

[ -x "$PDTFE" ] || { echo "pdtfe binary not found at $PDTFE" >&2; exit 1; }

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
SNAP="$TMP/snap.bin"
"$PDTFE" generate --out "$SNAP" --kind halo --n 60000 --box 64 --blocks 4 \
    --seed 3 >/dev/null

# Plans name concrete (src, dst) pairs and victim ranks, chosen per rank
# count from the work-sharing schedule this snapshot gets there: src -> dst
# ships a package that carries items, src2 -> dst2 ships a second package,
# and rank 1 and the victim each receive one. (d) catches a plan that no
# longer fires when the schedule moves. The 800 ms delay outlasts the
# 500 ms --comm-timeout-ms: the receiver gives the package up, it arrives
# unread, and recovery recomputes its items. The last plan is the
# acceptance scenario: a receiver dies mid-execution AND a work package is
# dropped in the same run.
plans_for() { # $1 ranks -> one plan per line
  local src dst src2 dst2 victim
  case "$1" in
    4) src=0 dst=1 src2=0 dst2=3 victim=2 ;;
    8) src=4 dst=5 src2=7 dst2=1 victim=5 ;;
    *) echo "no plans for $1 ranks" >&2; return 1 ;;
  esac
  printf '%s\n' \
    "drop:src=$src,dst=$dst,nth=1,tag=200" \
    "drop:src=$src2,dst=$dst2,nth=1,tag=200" \
    "trunc:src=$src,dst=$dst,nth=1,tag=200" \
    "flip:src=$src,dst=$dst,nth=1,tag=200" \
    "delay:src=$src,dst=$dst,nth=1,tag=200,ms=300" \
    "delay:src=$src,dst=$dst,nth=1,tag=200,ms=800" \
    "kill:rank=1,tag=200,at=1" \
    "kill:rank=$victim,tag=200,at=1;drop:src=$src2,dst=$dst2,nth=1,tag=200"
}

# The dtfe.fault.* counter each clause action bumps when it fires.
counter_of() {
  case "$1" in
    drop) echo messages_dropped ;;
    trunc) echo messages_truncated ;;
    flip) echo messages_bitflipped ;;
    delay) echo messages_delayed ;;
    kill) echo ranks_killed ;;
  esac
}

# Prints "<counter>=<value>" for every clause of plan $1 in metrics file
# $2; returns nonzero if any of those counters is below 1.
fired() {
  local plan="$1" metrics="$2" clause name value ok=0
  local -a clauses
  IFS=';' read -ra clauses <<<"$plan"
  for clause in "${clauses[@]}"; do
    name="$(counter_of "${clause%%:*}")"
    value="$(sed -n "s|.*\"dtfe\.fault\.$name\":\([0-9.e+]*\).*|\1|p" "$metrics")"
    printf '%s=%s ' "$name" "${value:-missing}"
    awk -v v="${value:-0}" 'BEGIN { exit !(v >= 1) }' || ok=1
  done
  return "$ok"
}

run_pipeline() { # $1 ranks, $2 fault plan ("" = none), rest extra args
  local ranks="$1" plan="$2"
  shift 2
  local -a extra=()
  [ -n "$plan" ] && extra=(--fault-plan "$plan")
  "$PDTFE" pipeline --in "$SNAP" --ranks "$ranks" --fields 24 --length 5 \
      --grid 48 --comm-timeout-ms 500 "${extra[@]}" "$@"
}

completed_of() { # parses "fields completed: X/Y ..." -> "X Y"
  printf '%s\n' "$1" | sed -n 's|^fields completed: \([0-9]*\)/\([0-9]*\).*|\1 \2|p'
}

checksum_of() { # parses "grid checksum total: C" -> "C"
  printf '%s\n' "$1" | sed -n 's|^grid checksum total: \(.*\)|\1|p'
}

failures=0
for ranks in 4 8; do
  echo "== $ranks ranks: fault-free baseline"
  base_out="$(run_pipeline "$ranks" "")"
  read -r base_completed base_total <<<"$(completed_of "$base_out")"
  base_checksum="$(checksum_of "$base_out")"
  if [ -z "$base_checksum" ] || [ "$base_completed" != "$base_total" ]; then
    echo "FAIL baseline at $ranks ranks: $base_completed/$base_total fields"
    failures=$((failures + 1))
    continue
  fi
  echo "   baseline: $base_completed/$base_total fields, checksum $base_checksum"

  mapfile -t plans < <(plans_for "$ranks")
  for plan in "${plans[@]}"; do
    metrics="$TMP/metrics-$ranks.json"
    if ! out="$(run_pipeline "$ranks" "$plan" --metrics-out "$metrics")"; then
      echo "FAIL [$ranks ranks] '$plan': nonzero exit"
      failures=$((failures + 1))
      continue
    fi
    read -r completed total <<<"$(completed_of "$out")"
    checksum="$(checksum_of "$out")"
    if [ "$completed" != "$total" ] || [ "$total" != "$base_total" ]; then
      echo "FAIL [$ranks ranks] '$plan': $completed/$total fields completed"
      failures=$((failures + 1))
      continue
    fi
    if ! awk -v a="$base_checksum" -v b="$checksum" 'BEGIN {
          d = a - b; if (d < 0) d = -d;
          m = (a < 0 ? -a : a); if (m < 1) m = 1;
          exit !(d / m < 1e-6) }'; then
      echo "FAIL [$ranks ranks] '$plan': checksum $checksum != $base_checksum"
      failures=$((failures + 1))
      continue
    fi
    if ! counts="$(fired "$plan" "$metrics")"; then
      echo "FAIL [$ranks ranks] '$plan': fault did not fire (${counts% })"
      failures=$((failures + 1))
      continue
    fi
    echo "   ok [$ranks ranks] '$plan': checksum $checksum, ${counts% }"
  done

  # Field column (DESIGN.md §10): the multi-channel estimators ride the same
  # fault machinery. For velocity and vdiv: a fault-free baseline, then the
  # receiver-kill plan, whose checksum must stay within relative 1e-6 of the
  # field's own baseline, like the plan sweep.
  for field in velocity vdiv; do
    if ! fbase_out="$(run_pipeline "$ranks" "" --field "$field")"; then
      echo "FAIL [$ranks ranks] field=$field: baseline exited nonzero"
      failures=$((failures + 1))
      continue
    fi
    read -r fcompleted ftotal <<<"$(completed_of "$fbase_out")"
    fbase_checksum="$(checksum_of "$fbase_out")"
    if [ -z "$fbase_checksum" ] || [ "$fcompleted" != "$ftotal" ]; then
      echo "FAIL [$ranks ranks] field=$field: $fcompleted/$ftotal fields"
      failures=$((failures + 1))
      continue
    fi
    if ! out="$(run_pipeline "$ranks" "kill:rank=1,tag=200,at=1" \
                    --field "$field")"; then
      echo "FAIL [$ranks ranks] field=$field kill: nonzero exit"
      failures=$((failures + 1))
      continue
    fi
    read -r completed total <<<"$(completed_of "$out")"
    checksum="$(checksum_of "$out")"
    if [ "$completed" != "$total" ] || [ "$total" != "$ftotal" ]; then
      echo "FAIL [$ranks ranks] field=$field kill: $completed/$total fields"
      failures=$((failures + 1))
      continue
    fi
    if ! awk -v a="$fbase_checksum" -v b="$checksum" 'BEGIN {
          d = a - b; if (d < 0) d = -d;
          m = (a < 0 ? -a : a); if (m < 1) m = 1;
          exit !(d / m < 1e-6) }'; then
      echo "FAIL [$ranks ranks] field=$field kill: checksum $checksum != $fbase_checksum"
      failures=$((failures + 1))
      continue
    fi
    echo "   ok [$ranks ranks] field=$field (kill contained)"
  done

  # Resume column: a checkpointed run interrupted by a rank kill, one journal
  # lost to the "crash", then a --resume run that must replay the surviving
  # commits, recompute the rest, and land on the baseline checksum EXACTLY.
  CKPT="$TMP/ckpt-$ranks"
  rm -rf "$CKPT"
  if ! out="$(run_pipeline "$ranks" "kill:rank=1,tag=200,at=1" \
                  --checkpoint-dir "$CKPT" --audit cheap)"; then
    echo "FAIL [$ranks ranks] resume: checkpointed kill run exited nonzero"
    failures=$((failures + 1))
  else
    lost="$(ls "$CKPT"/journal-rank-*.ckpt 2>/dev/null | head -1)"
    [ -n "$lost" ] && rm -f "$lost"
    if ! out="$(run_pipeline "$ranks" "" \
                    --checkpoint-dir "$CKPT" --resume 1 --audit cheap)"; then
      echo "FAIL [$ranks ranks] resume: --resume run exited nonzero"
      failures=$((failures + 1))
    else
      read -r completed total <<<"$(completed_of "$out")"
      checksum="$(checksum_of "$out")"
      replayed="$(printf '%s\n' "$out" | sed -n 's|^checkpoint: \([0-9]*\) item(s) replayed.*|\1|p')"
      if [ "$completed" != "$total" ] || [ "$total" != "$base_total" ]; then
        echo "FAIL [$ranks ranks] resume: $completed/$total fields completed"
        failures=$((failures + 1))
      elif [ "${replayed:-0}" -eq 0 ]; then
        echo "FAIL [$ranks ranks] resume: no items replayed from checkpoints"
        failures=$((failures + 1))
      elif [ "$checksum" != "$base_checksum" ]; then
        # Exact string equality: resumed runs are bitwise deterministic.
        echo "FAIL [$ranks ranks] resume: checksum $checksum != $base_checksum"
        failures=$((failures + 1))
      else
        echo "   ok [$ranks ranks] resume ($replayed replayed, checksum exact)"
      fi
    fi
  fi
done

if [ "$failures" -gt 0 ]; then
  echo "fault matrix: $failures case(s) FAILED"
  exit 1
fi
echo "fault matrix: all cases passed"
