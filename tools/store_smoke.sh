#!/usr/bin/env bash
# store_smoke.sh — end-to-end smoke test for the CTR columnar trial store.
#
# Proves the whole columnar chain: a `chaser_run --out` campaign SIGKILLed
# mid-run, a journal+store resume that converges back to the uninterrupted
# byte stream, a run killed before its first block (an empty, unsealed
# store that export-csv and summarize still read), a 3-shard fleet
# producing per-shard stores, a streaming `chaser_fleet merge` into one
# merged store, and `chaser_analyze query` /
# `export-csv` over the result — with every exported CSV byte-identical to
# the records CSV chaser_run wrote for this campaign before CSV became
# export-only (pinned below by its sha256). Companion to fleet_smoke.sh, one
# storage layer down.
#
# usage: tools/store_smoke.sh [path/to/build/tools]
#
# Exits 0 on success, 1 on any divergence. Safe to run repeatedly.
set -u

TOOLS="${1:-build/tools}"
RUN="$TOOLS/chaser_run"
FLEET="$TOOLS/chaser_fleet"
ANALYZE="$TOOLS/chaser_analyze"
APP=matvec
RUNS=120
SEED=20260807
# sha256 of `chaser_run --app matvec --runs 120 --seed 20260807 --jobs 1
# --out x.csv` from the last build that still wrote CSVs (records CSV v4).
# A deliberate change to the records or the CSV format updates it.
REF_CSV_SHA256=425dd8208a6b2872e8ec2b01921f35af9b104e6ce31f337aba28844835837fd6

for bin in "$RUN" "$FLEET" "$ANALYZE"; do
  if [[ ! -x "$bin" ]]; then
    echo "store_smoke: binary not found at '$bin'" >&2
    echo "  build first (cmake --build build) or pass the tools dir" >&2
    exit 1
  fi
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-store-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

echo "== reference: uninterrupted run into a CTR store ($RUNS trials)"
"$RUN" --app "$APP" --runs "$RUNS" --seed "$SEED" --jobs 1 \
       --out "$WORK/clean.ctr" --report "$WORK/ref.report" \
       >"$WORK/clean.log" 2>&1 || {
  echo "store_smoke: FAIL (reference run crashed; see $WORK/clean.log)"
  exit 1; }

store_run() {  # [exec] -> journaled CTR run into $WORK/kill.ctr
  # "exec" replaces the (background) subshell with chaser_run, so that $!
  # is the campaign itself: a SIGKILL to a function's subshell would leave
  # chaser_run running, racing the resume for the journal and the store.
  local launch=()
  [[ "${1:-}" == exec ]] && launch=(exec)
  "${launch[@]}" "$RUN" --app "$APP" --runs "$RUNS" --seed "$SEED" --jobs 1 \
         --resume "$WORK/kill.journal" --out "$WORK/kill.ctr"
}

echo "== kill: journaled CTR run is SIGKILLed mid-campaign"
store_run exec >"$WORK/kill.log" 2>&1 &
VICTIM=$!
for _ in $(seq 1 500); do
  size=$(stat -c %s "$WORK/kill.journal" 2>/dev/null || echo 0)
  [[ "$size" -gt 256 ]] && break
  kill -0 "$VICTIM" 2>/dev/null || break
  sleep 0.01
done
if kill -9 "$VICTIM" 2>/dev/null; then
  echo "   killed pid $VICTIM with journal at $(stat -c %s "$WORK/kill.journal" 2>/dev/null || echo 0) bytes"
else
  echo "   run finished before the kill landed; resume becomes a replay"
fi
wait "$VICTIM" 2>/dev/null

echo "== resume: rerun from journal + torn store"
store_run >"$WORK/resume.log" 2>&1 || {
  echo "store_smoke: FAIL (resume crashed; see $WORK/resume.log)"; exit 1; }

fail=0
if ! diff -rq "$WORK/clean.ctr" "$WORK/kill.ctr" >/dev/null; then
  echo "store_smoke: FAIL — resumed store differs from the uninterrupted store"
  diff -rq "$WORK/clean.ctr" "$WORK/kill.ctr" | head -10
  fail=1
fi

echo "== early kill: a run SIGKILLed before its first block leaves an empty store"
# clamr trials are slow enough that the first 512-record block is seconds
# away when the store directory appears.
"$RUN" --app clamr --runs 600 --seed "$SEED" --jobs 1 \
       --out "$WORK/early.ctr" >"$WORK/early.log" 2>&1 &
VICTIM=$!
for _ in $(seq 1 3000); do
  [[ -d "$WORK/early.ctr" ]] && break
  kill -0 "$VICTIM" 2>/dev/null || break
  sleep 0.001
done
kill -9 "$VICTIM" 2>/dev/null
wait "$VICTIM" 2>/dev/null
if [[ ! -d "$WORK/early.ctr" ]] || [[ -n "$(ls -A "$WORK/early.ctr")" ]]; then
  echo "store_smoke: FAIL — the early kill did not leave an empty store directory"
  ls -la "$WORK/early.ctr" 2>&1 | head -5
  fail=1
else
  "$ANALYZE" export-csv "$WORK/early.ctr" --out "$WORK/early.csv" \
      >"$WORK/early-export.log" 2>&1 || {
    echo "store_smoke: FAIL (export-csv of the empty store failed)"
    cat "$WORK/early-export.log"; fail=1; }
  if [[ "$(grep -vc '^#' "$WORK/early.csv" 2>/dev/null)" != 1 ]]; then
    echo "store_smoke: FAIL — the empty store's CSV is not a lone header"
    head -3 "$WORK/early.csv"; fail=1
  fi
  "$ANALYZE" summarize "$WORK/early.ctr" >"$WORK/early-summary.txt" 2>&1 || {
    echo "store_smoke: FAIL (summarize of the empty store failed)"
    cat "$WORK/early-summary.txt"; fail=1; }
  for log in "$WORK/early-export.log" "$WORK/early-summary.txt"; do
    grep -q "is not sealed" "$log" || {
      echo "store_smoke: FAIL — no unsealed-store warning in $(basename "$log")"
      fail=1; }
  done
  grep -q " 0 records" "$WORK/early-summary.txt" || {
    echo "store_smoke: FAIL — summarize of the empty store did not see 0 records"
    head -5 "$WORK/early-summary.txt"; fail=1; }
fi

echo "== shards: 3-shard fleet into per-shard stores, streaming merge"
"$FLEET" run --app "$APP" --runs "$RUNS" --seed "$SEED" --shards 3 \
         --dir "$WORK/fleet" >"$WORK/fleet.log" 2>&1 || {
  echo "store_smoke: FAIL (fleet run crashed; see $WORK/fleet.log)"; exit 1; }
if [[ ! -d "$WORK/fleet/merged.ctr" ]]; then
  echo "store_smoke: FAIL — fleet left no merged.ctr store"; exit 1
fi
if ! diff -q "$WORK/ref.report" "$WORK/fleet/report.txt" >/dev/null; then
  echo "store_smoke: FAIL — fleet report differs from the unsharded reference"
  diff "$WORK/ref.report" "$WORK/fleet/report.txt" | head -20
  fail=1
fi

echo "== export: every store must reproduce the reference CSV byte for byte"
for store in "$WORK/clean.ctr" "$WORK/kill.ctr" "$WORK/fleet/merged.ctr"; do
  "$ANALYZE" export-csv "$store" --out "$WORK/export.csv" \
      >"$WORK/export.log" 2>&1 || {
    echo "store_smoke: FAIL (export-csv crashed on $store)"; fail=1; continue; }
  sum="$(sha256sum "$WORK/export.csv" | cut -d' ' -f1)"
  if [[ "$sum" != "$REF_CSV_SHA256" ]]; then
    echo "store_smoke: FAIL — export of $store differs from the reference CSV"
    echo "   sha256 $sum, want $REF_CSV_SHA256"
    head -3 "$WORK/export.csv"
    fail=1
  fi
done

echo "== query: summarize and a filtered group-by over the merged store"
"$ANALYZE" summarize "$WORK/fleet/merged.ctr" >"$WORK/summary.txt" 2>&1 || {
  echo "store_smoke: FAIL (summarize over the store crashed)"; fail=1; }
grep -q "$RUNS records" "$WORK/summary.txt" || {
  echo "store_smoke: FAIL — store summarize did not see all $RUNS records"
  head -5 "$WORK/summary.txt"; fail=1; }
"$ANALYZE" query "$WORK/fleet/merged.ctr" --group-by outcome \
    >"$WORK/query.txt" 2>&1 || {
  echo "store_smoke: FAIL (query over the store crashed)"; fail=1; }
grep -q "$RUNS records scanned" "$WORK/query.txt" || {
  echo "store_smoke: FAIL — query did not scan all $RUNS records"
  head -5 "$WORK/query.txt"; fail=1; }

if [[ "$fail" -eq 0 ]]; then
  echo "store_smoke: PASS — kill+resume, early kill, 3-shard streaming merge, query, and export-csv all byte-identical to the CSV reference"
fi
exit "$fail"
