#!/usr/bin/env bash
# flags_smoke.sh — the command-line tools reject out-of-contract flag values.
#
# --stop-ci takes an interval width strictly inside (0,1). NaN compares false
# against both bounds, so a naive range check lets it through and the
# campaign then runs with no early stop. Every tool that parses the flag
# (chaser_run, chaser_fleet run, chaser_fleet merge) must exit 2 with the
# "(0,1)" message for nan, inf and the bounds themselves, before doing any
# work.
#
# usage: tools/flags_smoke.sh [path/to/build/tools]
#
# Exits 0 on success, 1 on any accepted bad value.
set -u

TOOLS="${1:-build/tools}"
RUN="$TOOLS/chaser_run"
FLEET="$TOOLS/chaser_fleet"

for bin in "$RUN" "$FLEET"; do
  if [[ ! -x "$bin" ]]; then
    echo "flags_smoke: binary not found at '$bin'" >&2
    echo "  build first (cmake --build build) or pass the tools dir" >&2
    exit 1
  fi
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-flags-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail=0
expect_rejected() {  # expect_rejected <label> <command...>
  local label="$1"
  shift
  "$@" >"$WORK/out" 2>&1
  local status=$?
  if [[ "$status" -ne 2 ]] || ! grep -q 'interval width in (0,1)' "$WORK/out"; then
    echo "flags_smoke: FAIL — $label was not rejected with the (0,1) message (exit $status)"
    head -5 "$WORK/out"
    fail=1
  fi
}

for w in nan NaN -nan inf -inf infinity 0 1 1.5; do
  expect_rejected "chaser_run --stop-ci $w" \
      "$RUN" --app matvec --runs 4 --sample weighted --stop-ci "$w"
  expect_rejected "chaser_fleet run --stop-ci $w" \
      "$FLEET" run --app matvec --runs 4 --shards 2 --sample weighted \
               --stop-ci "$w" --dir "$WORK/fleet"
  expect_rejected "chaser_fleet merge --stop-ci $w" \
      "$FLEET" merge --app matvec --runs 4 --sample weighted --stop-ci "$w" \
               --out "$WORK/merged.csv" "$WORK/none.csv"
done

if [[ "$fail" -eq 0 ]]; then
  echo "flags_smoke: PASS — every tool rejects non-finite and out-of-range --stop-ci"
fi
exit "$fail"
