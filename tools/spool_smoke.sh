#!/usr/bin/env bash
# spool_smoke.sh — a --jobs 4 spool equals the serial one under --stop-ci.
#
# With an early stop, worker threads still finish trials they claimed before
# the stop latched. Those trials never enter the report or the records, so
# they must not leave a trial-<seed>/ spool either: the spool tree of a
# --jobs 4 campaign must be byte-identical (diff -r) to the --jobs 1 tree,
# and hold exactly one trial dir per committed record.
#
# usage: tools/spool_smoke.sh [path/to/build/tools]
#
# Exits 0 on success, 1 on any divergence.
set -u

RUN="${1:-build/tools}/chaser_run"
if [[ ! -x "$RUN" ]]; then
  echo "spool_smoke: chaser_run binary not found at '$RUN'" >&2
  echo "  build first (cmake --build build) or pass the tools dir" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-spool-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail=0
for jobs in 1 4; do
  "$RUN" --app matvec --sample weighted --stop-ci 0.2 --runs 200 --seed 7 \
         --jobs "$jobs" --spool "$WORK/spool-$jobs" --out "$WORK/$jobs.csv" \
         >"$WORK/$jobs.report" 2>&1 || {
    echo "spool_smoke: FAIL (--jobs $jobs run crashed)"
    cat "$WORK/$jobs.report"
    exit 1
  }
done

if ! diff -r "$WORK/spool-1" "$WORK/spool-4" >"$WORK/diff" 2>&1; then
  echo "spool_smoke: FAIL — --jobs 4 spool differs from the serial spool"
  head -20 "$WORK/diff"
  fail=1
fi
if ! cmp -s "$WORK/1.csv" "$WORK/4.csv"; then
  echo "spool_smoke: FAIL — --jobs 4 records differ from the serial records"
  fail=1
fi
records=$(grep -c '^[0-9]' "$WORK/1.csv")
dirs=$(find "$WORK/spool-1" -mindepth 1 -maxdepth 1 -name 'trial-*' | wc -l)
if [[ "$records" -ne "$dirs" ]]; then
  echo "spool_smoke: FAIL — $dirs trial dirs for $records records"
  fail=1
fi

if [[ "$fail" -eq 0 ]]; then
  echo "spool_smoke: PASS — $dirs trial dirs, serial == --jobs 4"
fi
exit "$fail"
