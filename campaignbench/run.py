#!/usr/bin/env python3
"""Campaign benchmark: build, run one workload, check it, print its metrics.

    python3 campaignbench/run.py --workload clamr-trace --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first call builds the Chaser
libraries and campaign_bench (campaign_bench.cpp) with CMake into
$CARGO_TARGET_DIR/campaignbench (default .bench_build/campaignbench); later
calls reuse that build. campaign_bench repeats whole campaigns for --seconds and
prints raw per-campaign samples; this script reduces them to the metrics
named in BENCHMARK.json and prints, as its last stdout line, one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics (plain campaigns only). --trace 1
runs the traced, the untaint-tracked and (matvec-store) the journaled
variants beside the plain one and reports the per-layer metrics, the
benchmark's own span self-times and the tracing overhead. spec.json beside this file holds the pinned report digests
and what each metric and workload is for.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_DEADLINE_S = 170  # the whole call must end within 180 s
# The reference kernel's duration on an unloaded core of the host the
# benchmark was built on (4-core x86-64 VM); see speed().
REF_NOMINAL_S = 0.005


def fail(msg):
    print(f"campaignbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "campaignbench"


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Chaser sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "campaign_bench"


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Linear-interpolated percentile (q in [0, 100]) of a non-empty list."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ratio(a, b):
    return a / b if b else 0.0


def ns_per_insn(c):
    """Trial-phase time outside the record sink, per guest instruction."""
    return ratio((c["trial_phase_s"] - c["sink_s"]) * 1e9, c["insns"])


def self_times(spans_path):
    """Per root span (one campaign): summed self time per span name, in ms.

    A span's self time is its duration minus that of its direct children;
    campaign_bench's spans are single-threaded and nested, so children never
    overlap each other.
    """
    spans = [json.loads(line) for line in Path(spans_path).read_text().splitlines()]
    child_s = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_s[s["parent"]] += s["t1"] - s["t0"]
    per_campaign = []
    root_of = [0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] < 0:
            root_of[i] = len(per_campaign)
            per_campaign.append({})
        else:
            root_of[i] = root_of[s["parent"]]
        acc = per_campaign[root_of[i]]
        acc[s["name"]] = acc.get(s["name"], 0.0) + 1e3 * (s["t1"] - s["t0"] - child_s[i])
    return per_campaign


SPAN_NAMES = ["campaign", "apps.build", "campaign.golden", "campaign.trials",
              "sink.commit", "store.add", "report.render", "store.finish",
              "store.readback", "store.query", "resume", "resume.replay"]


def speed(c):
    """Host-speed factor of one campaign: nominal / measured reference time.

    campaign_bench times a fixed reference kernel (no library code) before and
    after each campaign. Multiplying a campaign's durations by this factor
    states them at the reference host speed, which divides out the 2x
    swings of a shared host; a library change cannot move the kernel.
    """
    return REF_NOMINAL_S / (0.5 * (c["ref_before_s"] + c["ref_after_s"]))


def med(cs, fn):
    """Median over campaigns of a duration, each at the reference speed."""
    return median([fn(c) * speed(c) for c in cs])


def end_to_end(plain):
    trial_ms = [x * speed(c) for c in plain for x in c["trial_ms"]]
    return {
        "setup_s": (med(plain, lambda c: c["setup_s"]), "s"),
        "time_to_answer_s": (med(plain, lambda c: c["time_to_answer_s"]), "s"),
        "trials_per_s": (median([ratio(c["committed"], c["trial_phase_s"] * speed(c))
                                 for c in plain]), "1/s"),
        "trial_ms_p50": (percentile(trial_ms, 50), "ms"),
        "trial_ms_p95": (percentile(trial_ms, 95), "ms"),
        "cpu_s": (med(plain, lambda c: c["cpu_s"]), "s"),
        "peak_rss_mb": (min(c["peak_rss_mb"] for c in plain), "MB"),
        "resume_s": (percentile([c["resume_s"] * speed(c) for c in plain], 25), "s"),
    }


def per_layer(run, v, failed, attempted):
    # Counts and ratios come from the first traced campaign, whose seed is
    # fixed by --seed, so they repeat exactly; durations are medians over
    # every traced campaign of the run, at the reference host speed.
    traced, durable = v["traced"], v["durable"]
    f = traced[0]
    n = f["committed"]
    by_seed = {}
    for c in run["campaigns"]:
        by_seed.setdefault(c["campaign_seed"], {})[c["variant"]] = c
    pairs = [p for p in by_seed.values() if {"plain", "traced", "notaint"} <= set(p)]
    exec_ms = [x * speed(c) for c in traced for x in c["exec_ms"]]
    translations, reuses = f.get("tcg_translations", 0), f.get("tcg_reuses", 0)

    def field(key):
        return med(traced, lambda c: c[key])

    def overhead_pct(p, variant):
        """Paired time_to_answer_s of `variant` over plain, in percent."""
        plain_s = p["plain"]["time_to_answer_s"] * speed(p["plain"])
        return 100.0 * ratio(p[variant]["time_to_answer_s"] * speed(p[variant]) - plain_s,
                             plain_s)

    # The durable variant runs only on workloads with a journal; fsync
    # latency is the disk's, so it is not scaled by the CPU speed factor.
    d = durable[0] if durable else None
    journal = {
        "journal.fsync_us": (median([c["fsync_us"] for c in durable]), "us"),
        "journal.fsyncs_per_trial": (ratio(d["fsync_count"], d["committed"]) if d else 0,
                                     "count"),
        "journal.replay_ms": (med(durable, lambda c: c["replay_ms"]), "ms"),
        "journal.overhead_pct": (median([overhead_pct(p, "durable") for p in by_seed.values()
                                         if "durable" in p and "plain" in p]), "%"),
    }

    m = {
        "apps.build_ms": (field("build_ms"), "ms"),
        "campaign.golden_ms": (field("golden_ms"), "ms"),
        "vm.golden_ns_per_insn": (med(traced, lambda c: ratio(c["golden_ms"] * 1e6,
                                                              c["golden_insns"])), "ns"),
        "campaign.trial_exec_ms_p50": (percentile(exec_ms, 50), "ms"),
        "campaign.ns_per_guest_insn": (med(traced, ns_per_insn), "ns"),
        "campaign.guest_insns_per_trial": (ratio(f["insns"], n), "count"),
        "campaign.infra_trials": (f["infra"], "count"),
        "campaign.failed_frac": (ratio(failed, attempted), "ratio"),
        "report.render_ms": (field("render_ms"), "ms"),
        "sampling.trials_to_stop": (n if f["estimates"] else 0, "count"),
        "sampling.effective_n": (f["effective_n"], "count"),
        "parallel.cpu_util": (median([ratio(c["trial_cpu_s"], c["trial_phase_s"])
                                      for c in traced]), "ratio"),
        "vm.chain_hit_ratio": (ratio(f["chain_hits"], f["eng_tb_execs"]), "ratio"),
        "vm.tlb_hit_ratio": (ratio(f["tlb_hits"], f["tlb_hits"] + f["tlb_misses"]), "ratio"),
        "vm.tb_execs_per_trial": (ratio(f["eng_tb_execs"], n), "count"),
        "tcg.translations": (translations, "count"),
        "tcg.shared_reuse_ratio": (ratio(reuses, reuses + translations), "ratio"),
        "tcg.translate_ms": (field("translate_ms"), "ms"),
        "taint.ns_per_insn": (median([ns_per_insn(p["plain"]) * speed(p["plain"])
                                      - ns_per_insn(p["notaint"]) * speed(p["notaint"])
                                      for p in pairs]), "ns"),
        "taint.tainted_reads_per_trial": (ratio(f["tainted_reads"], n), "count"),
        "taint.tainted_writes_per_trial": (ratio(f["tainted_writes"], n), "count"),
        "taint.peak_tainted_bytes_p50": (f["peak_tainted_p50"], "bytes"),
        "taint.propagate_us": (field("propagate_us"), "us"),
        "core.inject_us": (field("inject_us"), "us"),
        "core.trace_events_per_trial": (ratio(f["eng_trace_events"], n), "count"),
        "core.trace_dropped": (f["trace_dropped"], "count"),
        "mpi.messages_per_trial": (ratio(f["eng_messages"], n), "count"),
        "hub.publishes_per_trial": (ratio(f["hub_publishes"], n), "count"),
        "hub.polls_per_trial": (ratio(f["hub_polls"], n), "count"),
        "hub.hit_ratio": (ratio(f["eng_hub_hits"], f["eng_hub_polls"]), "ratio"),
        "hub.publish_us": (field("hub_publish_us"), "us"),
        "hub.poll_us": (field("hub_poll_us"), "us"),
        "store.add_us": (field("store_add_us"), "us"),
        "store.finish_ms": (field("finish_ms"), "ms"),
        "store.bytes_per_record": (ratio(f["store_bytes"], n), "bytes"),
        "store.query_ms": (field("query_ms"), "ms"),
        **journal,
        "bench.tracing_overhead_pct": (median([overhead_pct(p, "traced") for p in pairs]), "%"),
        "bench.host_slowdown": (median([1.0 / speed(c) for c in run["campaigns"]]), "ratio"),
    }
    # Span roots are the traced campaigns, in order.
    selfs = self_times(run["spans"])
    for name in SPAN_NAMES:
        m[f"self.{name}_ms"] = (median([s.get(name, 0.0) * speed(c)
                                        for s, c in zip(selfs, traced)]), "ms")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=0,
                    help="trials per campaign (default: the workload's own)")
    ap.add_argument("--max-campaigns", type=int, default=0)
    ap.add_argument("--spec", default=str(BENCH_DIR / "spec.json"),
                    help="workload spec with the pinned report digests")
    args = ap.parse_args()
    started = time.monotonic()

    spec = json.loads(Path(args.spec).read_text())
    if args.workload not in spec["workloads"]:
        fail(f"unknown workload '{args.workload}'")
    binary = build()

    work = build_dir() / f"work-{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.runs:
        cmd += ["--runs", str(args.runs)]
    if args.max_campaigns:
        cmd += ["--max-campaigns", str(args.max_campaigns)]
    try:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(10, RUN_DEADLINE_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            fail(f"campaign_bench did not finish within {RUN_DEADLINE_S} s")
        if proc.returncode != 0:
            fail(f"campaign_bench exited with {proc.returncode}")
        run = json.loads(proc.stdout)
        by_variant = {"plain": [], "traced": [], "notaint": [], "durable": []}
        for c in run["campaigns"]:
            by_variant[c["variant"]].append(c)
        plain = by_variant["plain"]

        # Correctness: every check campaign_bench ran, the pinned digest of the
        # first campaign, and telemetry, spans and the journal leaving the
        # report untouched.
        bad = {id(c) for c in run["campaigns"] if c["failed_checks"]}
        pins = spec["workloads"][args.workload]["pins"]
        pinned = pins["digests"].get(str(args.seed)) if run["runs"] == pins["runs"] else None
        if pinned is not None and plain[0]["digest"] != pinned:
            print(f"campaignbench: report digest {plain[0]['digest']} != pinned {pinned}",
                  file=sys.stderr)
            bad.add(id(plain[0]))
        plain_digest = {c["campaign_seed"]: c["digest"] for c in plain}
        for c in by_variant["traced"] + by_variant["durable"]:
            if plain_digest.get(c["campaign_seed"]) != c["digest"]:
                bad.add(id(c))
        # A failed check (infra trials among them) fails its whole campaign.
        attempted = sum(int(c["committed"]) for c in run["campaigns"])
        failed = sum(int(c["committed"]) for c in run["campaigns"] if id(c) in bad)
        for c in run["campaigns"]:
            if c["failed_checks"]:
                print(f"campaignbench: campaign {c['campaign_seed']} ({c['variant']}) failed "
                      + ", ".join(c["failed_checks"]), file=sys.stderr)

        if args.trace:
            metrics = per_layer(run, by_variant, failed, attempted)
        else:
            metrics = end_to_end(plain)
        print(f"campaignbench: {args.workload} seed {args.seed}: {len(plain)} campaigns, "
              f"first report digest {plain[0]['digest']}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
