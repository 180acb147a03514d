#!/usr/bin/env bash
# flags_smoke.sh — the command-line tools reject out-of-contract input.
#
# --stop-ci takes an interval width strictly inside (0,1). NaN compares false
# against both bounds, so a naive range check lets it through and the
# campaign then runs with no early stop. Every tool that parses the flag
# (chaser_run, chaser_fleet run, chaser_fleet merge) must exit 2 with the
# "(0,1)" message for nan, inf and the bounds themselves, before doing any
# work. `chaser_fleet merge` must refuse inputs that are not one CTR store
# per shard of the plan's campaign — a store passed twice, a store of
# another seed or app, a shard-count mismatch, a records CSV — with exit 2
# and a one-line message naming the offending path. --records-format is
# gone: CTR is the only --out format.
#
# usage: tools/flags_smoke.sh [path/to/build/tools]
#
# Exits 0 on success, 1 on any accepted bad value.
set -u

TOOLS="${1:-build/tools}"
RUN="$TOOLS/chaser_run"
FLEET="$TOOLS/chaser_fleet"
ANALYZE="$TOOLS/chaser_analyze"

for bin in "$RUN" "$FLEET" "$ANALYZE"; do
  if [[ ! -x "$bin" ]]; then
    echo "flags_smoke: binary not found at '$bin'" >&2
    echo "  build first (cmake --build build) or pass the tools dir" >&2
    exit 1
  fi
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-flags-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail=0
expect_rejected() {  # expect_rejected <label> <message fragment> <command...>
  local label="$1" want="$2"
  shift 2
  "$@" >"$WORK/out" 2>&1
  local status=$?
  if [[ "$status" -ne 2 ]] || ! grep -qF -- "$want" "$WORK/out" ||
     [[ "$(wc -l <"$WORK/out")" -ne 1 ]]; then
    echo "flags_smoke: FAIL — $label was not rejected with a one-line" \
         "'$want' message (exit $status)"
    head -5 "$WORK/out"
    fail=1
  fi
}

for w in nan NaN -nan inf -inf infinity 0 1 1.5; do
  expect_rejected "chaser_run --stop-ci $w" "interval width in (0,1)" \
      "$RUN" --app matvec --runs 4 --sample weighted --stop-ci "$w"
  expect_rejected "chaser_fleet run --stop-ci $w" "interval width in (0,1)" \
      "$FLEET" run --app matvec --runs 4 --shards 2 --sample weighted \
               --stop-ci "$w" --dir "$WORK/fleet"
  expect_rejected "chaser_fleet merge --stop-ci $w" "interval width in (0,1)" \
      "$FLEET" merge --app matvec --runs 4 --sample weighted --stop-ci "$w" \
               --out "$WORK/merged.ctr" "$WORK/none.ctr"
done

expect_rejected "chaser_run --records-format" \
    "unknown flag '--records-format'" \
    "$RUN" --app matvec --runs 4 --out "$WORK/x.ctr" --records-format csv
expect_rejected "chaser_fleet run --records-format" \
    "unknown flag '--records-format'" \
    "$FLEET" run --app matvec --runs 4 --dir "$WORK/fleet" \
             --records-format ctr

# Merge inputs: two shards of a 4-trial matvec campaign (seed 3), shard 1
# of the same plan at seed 4, and shard 0 exported as a records CSV.
shard_store() {  # shard_store <seed> <i> <out>
  "$RUN" --app matvec --runs 4 --seed "$1" --jobs 1 --shard "$2/2" \
         --out "$3" >"$WORK/run.log" 2>&1 || {
    echo "flags_smoke: FAIL (shard run crashed)"; cat "$WORK/run.log"; exit 1; }
}
shard_store 3 0 "$WORK/s0.ctr"
shard_store 3 1 "$WORK/s1.ctr"
shard_store 4 1 "$WORK/seed4.ctr"
"$ANALYZE" export-csv "$WORK/s0.ctr" --out "$WORK/s0.csv" >/dev/null 2>&1 || {
  echo "flags_smoke: FAIL (export-csv crashed)"; exit 1; }
merge() {
  "$FLEET" merge --runs 4 --seed 3 --out "$WORK/merged.ctr" "$@"
}

merge --app matvec "$WORK/s0.ctr" "$WORK/s1.ctr" >"$WORK/out" 2>&1 || {
  echo "flags_smoke: FAIL — the well-formed merge the refusals vary failed"
  head -5 "$WORK/out"
  fail=1; }
expect_rejected "merge of a store passed twice" "'$WORK/s0.ctr'" \
    merge --app matvec "$WORK/s0.ctr" "$WORK/s0.ctr"
grep -q "two stores claim shard" "$WORK/out" || {
  echo "flags_smoke: FAIL — a store passed twice is not named as such"; fail=1; }
expect_rejected "merge of another seed's store" "'$WORK/seed4.ctr'" \
    merge --app matvec "$WORK/s0.ctr" "$WORK/seed4.ctr"
expect_rejected "merge of another app's stores" "'$WORK/s0.ctr'" \
    merge --app kmeans "$WORK/s0.ctr" "$WORK/s1.ctr"
expect_rejected "merge with a shard missing" "'$WORK/s0.ctr'" \
    merge --app matvec "$WORK/s0.ctr"
grep -q "is shard 0 of 2 but 1 stores were given" "$WORK/out" || {
  echo "flags_smoke: FAIL — the shard-count mismatch is not named as such"
  fail=1; }
expect_rejected "merge of a records CSV" "'$WORK/s0.csv'" \
    merge --app matvec "$WORK/s0.csv" "$WORK/s1.ctr"
grep -q "not a CTR store" "$WORK/out" || {
  echo "flags_smoke: FAIL — a records CSV input is not named as such"; fail=1; }

if [[ "$fail" -eq 0 ]]; then
  echo "flags_smoke: PASS — non-finite and out-of-range --stop-ci, the" \
       "removed --records-format and bad merge inputs are all refused"
fi
exit "$fail"
