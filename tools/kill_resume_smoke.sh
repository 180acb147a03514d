#!/usr/bin/env bash
# kill_resume_smoke.sh — end-to-end crash-safety smoke test for chaser_run.
#
# Proves the trial journal and the CTR store survive a SIGKILL mid-campaign:
# a campaign is started with --resume, killed hard partway through, and
# resumed into the same store, which must then be byte-identical (diff -r)
# to an uninterrupted reference run's store — and so must its export-csv
# output and the report. A victim that finishes before the kill lands fails
# the test: a kill/resume test that never kills tests nothing, so raise
# --runs until the victim is still running when the journal shows progress.
#
# usage: tools/kill_resume_smoke.sh [path/to/chaser_run] [jobs] [app] [flags...]
#
# app defaults to matvec; clamr exercises the trial-checkpoint ladder, whose
# resumed process starts with an empty ladder and must still match. Any
# further arguments are passed to every chaser_run invocation (for example
# `--runs 400 --sample weighted --stop-ci 0.1`; a later --runs overrides
# the default). chaser_analyze is taken from chaser_run's directory.
#
# Exits 0 on success, 1 on any divergence. Safe to run repeatedly.
set -u

BIN="${1:-build/tools/chaser_run}"
JOBS="${2:-4}"
APP="${3:-matvec}"
EXTRA=("${@:4}")
RUNS=60
SEED=20260806
ANALYZE="$(dirname "$BIN")/chaser_analyze"

for bin in "$BIN" "$ANALYZE"; do
  if [[ ! -x "$bin" ]]; then
    echo "kill_resume_smoke: binary not found at '$bin'" >&2
    echo "  build it first (cmake --build build) or pass chaser_run's path" >&2
    exit 1
  fi
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-kill-resume.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

run() {  # run [exec] <store> <report> [extra flags...]
  # "exec" replaces the (background) subshell with chaser_run, so that $!
  # is the campaign itself: a SIGKILL to a function's subshell would leave
  # chaser_run running, racing the resume for the journal and the store.
  local launch=()
  if [[ "$1" == exec ]]; then launch=(exec); shift; fi
  local store="$1" report="$2"
  shift 2
  "${launch[@]}" "$BIN" --app "$APP" --runs "$RUNS" --seed "$SEED" \
         --jobs "$JOBS" "${EXTRA[@]}" --out "$store" "$@" >"$report" 2>&1
}

echo "== reference: uninterrupted $APP campaign (--runs $RUNS --jobs $JOBS ${EXTRA[*]})"
run "$WORK/ref.ctr" "$WORK/ref.report" || {
  echo "kill_resume_smoke: FAIL (reference run crashed)"; exit 1; }

echo "== victim: same campaign with --resume, SIGKILLed mid-flight"
JOURNAL="$WORK/trials.journal"
run exec "$WORK/victim.ctr" "$WORK/victim.report" --resume "$JOURNAL" &
VICTIM=$!

# Wait until the journal shows real progress (some frames past the header),
# then kill -9 with trials still outstanding.
for _ in $(seq 1 500); do
  size=$(stat -c %s "$JOURNAL" 2>/dev/null || echo 0)
  [[ "$size" -gt 256 ]] && break
  kill -0 "$VICTIM" 2>/dev/null || break
  sleep 0.01
done
if kill -9 "$VICTIM" 2>/dev/null; then
  echo "   killed pid $VICTIM with journal at $(stat -c %s "$JOURNAL" 2>/dev/null || echo 0) bytes"
  wait "$VICTIM" 2>/dev/null
else
  echo "kill_resume_smoke: FAIL — the victim finished before the kill landed," \
       "so nothing was resumed; raise --runs"
  exit 1
fi

echo "== resume: rerun into the same journal and store; only missing seeds execute"
run "$WORK/victim.ctr" "$WORK/resumed.report" --resume "$JOURNAL" || {
  echo "kill_resume_smoke: FAIL (resumed run crashed)"; exit 1; }

fail=0
if ! diff -r "$WORK/ref.ctr" "$WORK/victim.ctr" >/dev/null; then
  echo "kill_resume_smoke: FAIL — resumed store differs from reference"
  diff -rq "$WORK/ref.ctr" "$WORK/victim.ctr" | head -10
  fail=1
fi
for store in ref victim; do
  "$ANALYZE" export-csv "$WORK/$store.ctr" --out "$WORK/$store.csv" \
      >"$WORK/$store.export.log" 2>&1 || {
    echo "kill_resume_smoke: FAIL (export-csv of $store.ctr crashed)"; exit 1; }
done
if ! diff -q "$WORK/ref.csv" "$WORK/victim.csv" >/dev/null; then
  echo "kill_resume_smoke: FAIL — resumed store's CSV export differs from reference"
  diff "$WORK/ref.csv" "$WORK/victim.csv" | head -20
  fail=1
fi
# The "wrote N records to PATH (ctr store, ..., M resumed)" line names the
# store and how much of it was already there, which legitimately differ
# between the two runs — keep only the record count. Ditto the live
# shared-tb-cache counters: replayed trials are accounted without
# re-executing, so the resumed process performs less translation work than
# the reference. The campaign *results* (store + report body) must still
# match byte for byte.
norm() { sed -e 's|^\(wrote [0-9]* records to\) .*|\1 STORE|' \
             -e 's|^shared tb cache: .*|shared tb cache: (live counters)|' "$1"; }
norm "$WORK/ref.report" >"$WORK/ref.report.norm"
norm "$WORK/resumed.report" >"$WORK/resumed.report.norm"
if ! diff -q "$WORK/ref.report.norm" "$WORK/resumed.report.norm" >/dev/null; then
  echo "kill_resume_smoke: FAIL — resumed report differs from reference"
  diff "$WORK/ref.report.norm" "$WORK/resumed.report.norm" | head -20
  fail=1
fi

if [[ "$fail" -eq 0 ]]; then
  echo "kill_resume_smoke: PASS — resumed run is byte-identical to reference"
fi
exit "$fail"
