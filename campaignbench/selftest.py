#!/usr/bin/env python3
"""Self-test of the campaign benchmark at tiny size.

    python3 campaignbench/selftest.py

For every workload, runs run.py once per --trace mode with a few trials and
one campaign, and checks that
  * the last stdout line is the result object with exactly the keys correct,
    attempted, failed and metrics, and the run is correct;
  * every metric BENCHMARK.json names for that mode is emitted, with its
    unit, and nothing else;
  * a pinned report digest is enforced: the run's own digest passes, and a
    deliberately wrong one marks the run failed.
Exits non-zero on the first failure. Takes about a minute once built.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TINY_RUNS = {"clamr-trace": 4, "matvec-store": 24, "kmeans-sampled": 40}
SEED = 5


def run(workload, trace, spec=None):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
           "--runs", str(TINY_RUNS[workload]), "--max-campaigns", "1"]
    if spec:
        cmd += ["--spec", str(spec)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = re.search(r"first report digest ([0-9a-f]{16})", proc.stderr).group(1)
    return result, digest


def check(cond, msg):
    if not cond:
        sys.exit(f"selftest: FAIL: {msg}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "selftest"
    build.mkdir(parents=True, exist_ok=True)
    for workload in TINY_RUNS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, digest = run(workload, trace)
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: run not correct: {result}")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{workload} trace {trace}: metrics/units differ: "
                  f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                  f"units {[(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]}")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{workload} trace {trace}: non-numeric metric value")

        for pinned, expect_correct in ((digest, True), ("0" * 16, False)):
            pinned_spec = json.loads(json.dumps(spec))
            pinned_spec["workloads"][workload]["pins"] = {"runs": TINY_RUNS[workload],
                                                          "digests": {str(SEED): pinned}}
            path = build / f"spec-{workload}.json"
            path.write_text(json.dumps(pinned_spec))
            result, _ = run(workload, 0, spec=path)
            check(result["correct"] == expect_correct and (result["failed"] > 0) != expect_correct,
                  f"{workload}: pinned digest {pinned} gave {result['correct']}, "
                  f"failed {result['failed']}")
        print(f"selftest: {workload} ok")
    print("selftest: all ok")


if __name__ == "__main__":
    main()
