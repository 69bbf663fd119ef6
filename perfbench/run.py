#!/usr/bin/env python3
"""Campaign benchmark: probes/s, set-up time and peak RSS of whole campaigns.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign-2018 --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all                  # every workload, one table

The first call builds the libraries from ./src and the campaign binary
(perfbench/campaign_bench.cpp) into .bench_build/perfbench. Each campaign
runs in a fresh process; a run repeats the campaign until --seconds have
passed and reports medians, with times scaled to a reference host speed
(README.md, "Noise"). `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of traced campaigns and writes their spans
to .bench_build/perfbench/. Every campaign's output is checked (see README.md);
the last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "campaign_bench"
PINNED = HERE / "reference.json"

# Wall-clock guard: a run stops starting campaigns after this many seconds,
# so it ends well inside its 180 s budget whatever --seconds says.
RUN_DEADLINE_S = 120.0
MIN_SAMPLES = 3
# The yardstick's time (campaign_bench.cpp) at the reference host speed,
# per thread it runs on: its median on the 4-vCPU box the benchmark was
# calibrated on, in a fast stretch.
YARDSTICK_REF_S = 0.08
CAMPAIGN_TIMEOUT_S = 100.0

# year/scale/threads select the campaign; raw_steps_per_host overrides the
# Table II scan slice after build_population (dense workloads); cross_check
# runs core::run_measurement with the same configuration in every run. Why
# each workload exists: BENCHMARK.json and README.md.
WORKLOADS = {
    "campaign-2018": dict(year=2018, scale=512, threads=1, cross_check=True),
    "campaign-2013-t4": dict(year=2013, scale=256, threads=4, cross_check=True),
    "dense-2018": dict(year=2018, scale=128, threads=1, raw_steps_per_host=4),
    "dense-2018-dotcp": dict(year=2018, scale=128, threads=1, raw_steps_per_host=4,
                             udp_limit=64, tcp=True),
}

END_TO_END_UNITS = {
    "campaign_s": "s",
    "probes_per_s": "Q1/s",
    "responses_per_s": "R2/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "r2_capture_ratio": "ratio",
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ---- build -----------------------------------------------------------------

def build():
    if not (ROOT / "src" / "core" / "pipeline.h").is_file():
        fail(f"{ROOT / 'src'} not found: run from the root of a full checkout", 3)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 4)
    if not BINARY.is_file():
        fail(f"build produced no {BINARY}", 4)


# ---- one campaign ----------------------------------------------------------

def campaign_args(w, seed, scale):
    args = ["--year", str(w["year"]), "--scale", str(scale),
            "--threads", str(w["threads"]), "--seed", str(seed)]
    if w.get("raw_steps_per_host"):
        args += ["--raw-steps-per-host", str(w["raw_steps_per_host"])]
    if w.get("udp_limit"):
        args += ["--udp-limit", str(w["udp_limit"])]
    if w.get("tcp"):
        args.append("--tcp")
    return args


def run_campaign(args):
    """One campaign in a fresh process; None if it crashed or timed out."""
    try:
        proc = subprocess.run([str(BINARY)] + args, capture_output=True,
                              text=True, timeout=CAMPAIGN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: campaign timed out: {args}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: campaign exited {proc.returncode}: {args}\n"
              f"{proc.stderr}", file=sys.stderr)
        return None
    out = json.loads(proc.stdout)
    out["tables_sha256"] = hashlib.sha256(out["tables"].encode()).hexdigest()
    return out


# ---- correctness -----------------------------------------------------------

def pin_key(name, scale, seed):
    return f"{name}/scale{scale}/seed{seed}"


def check(sample, expect, pinned):
    """Problems with one composed campaign (empty list = correct).

    `expect` is the output every campaign of the run must reproduce (the
    run_measurement reference on cross-checked workloads, else the run's
    first campaign); `pinned` is the entry recorded when the benchmark was
    created, if one exists for this workload, scale and seed.
    """
    if sample is None:
        return ["campaign crashed or timed out"]
    s = sample["scan"]
    problems = []
    if s["r2_received"] != sample["planted"]:
        problems.append(f"r2_received {s['r2_received']} != planted {sample['planted']}")
    grouped = s["r2_matched"] + s["r2_unmatched"] + s["r2_empty_question"]
    if grouped != s["r2_received"]:
        problems.append(f"matched+unmatched+empty_question {grouped} != "
                        f"r2_received {s['r2_received']}")
    if sample["layer"]["r2_classified"] != s["r2_received"]:
        problems.append(f"r2_classified {sample['layer']['r2_classified']} != "
                        f"r2_received {s['r2_received']}")
    for ref, what in ((expect, "this run's reference"), (pinned, "pinned reference")):
        if ref is None:
            continue
        if sample["digest"] != ref["digest"]:
            problems.append(f"digest {sample['digest']} != {what} {ref['digest']}")
        if sample["tables_sha256"] != ref["tables_sha256"]:
            problems.append(f"Tables III-X differ from {what}")
        if sample["planted"] != ref["planted"]:
            problems.append(f"planted {sample['planted']} != {what} {ref['planted']}")
    return problems


# ---- metrics ---------------------------------------------------------------

def ratio(num, den):
    return num / den if den else 0.0


def timings(done, host_speed):
    """Median campaign and set-up times over one run's campaigns, divided by
    `host_speed`, and the throughputs they give."""
    campaign_s = statistics.median(x["phase"]["campaign_s"] for x in done) / host_speed
    return {
        "campaign_s": campaign_s,
        # q1_sent and r2_classified are the same in every campaign of a run.
        "probes_per_s": done[0]["scan"]["q1_sent"] / campaign_s,
        "responses_per_s": done[0]["layer"]["r2_classified"] / campaign_s,
        "setup_s": statistics.median(x["phase"]["setup_s"] for x in done) / host_speed,
    }


def host_speed(done):
    """How much slower than the reference speed the host ran this run's
    campaigns: their median yardstick time over YARDSTICK_REF_S."""
    return statistics.median(x["yardstick_s"] for x in done) / YARDSTICK_REF_S


def end_to_end(runs):
    """End-to-end metrics over one run's untraced campaigns, given as
    (output or None, problems) pairs. Times are at the reference host
    speed; the manifest line has the raw walls."""
    done = [x for x, _ in runs if x is not None]
    planted = done[0]["planted"]
    values = {
        **timings(done, host_speed(done)),
        "peak_rss_mb": statistics.median(x["peak_rss_kb"] / 1024.0 for x in done),
        # A campaign that failed its checks counts every responder as missed.
        "r2_capture_ratio": ratio(
            sum(x["layer"]["r2_classified"] for x, v in runs if not v),
            len(runs) * planted),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def per_layer(traced, untraced):
    """Per-layer metrics: counts from the traced campaign (identical in every
    traced campaign of a run), times as medians over the traced campaigns."""
    t = traced[0]
    s, m, lay = t["scan"], t["metrics"], t["layer"]

    def med(f):
        return statistics.median(f(x) for x in traced)

    def mean_of(hist):
        return ratio(m[hist + "_sum"], m[hist + "_count"])

    on_r2_s = med(lambda x: x["layer"]["on_r2_s"])
    campaign_s = med(lambda x: x["phase"]["campaign_s"])
    untraced_s = statistics.median(x["phase"]["campaign_s"] for x in untraced)
    return {
        "core.population_s": (med(lambda x: x["phase"]["population_s"]), "s"),
        "core.plan_s": (med(lambda x: x["phase"]["plan_s"]), "s"),
        "core.instantiate_s": (med(lambda x: x["phase"]["instantiate_s"]), "s"),
        "core.scan_s": (med(lambda x: x["phase"]["scan_s"]), "s"),
        "core.scan_ns_per_probe": (
            med(lambda x: x["phase"]["scan_busy_s"]) * 1e9 / s["q1_sent"], "ns"),
        "core.shard_skew": (med(lambda x: x["phase"]["shard_skew"]), "ratio"),
        "core.teardown_s": (med(lambda x: x["phase"]["teardown_s"]), "s"),
        "core.merge_s": (med(lambda x: x["phase"]["merge_s"]), "s"),
        "core.finalize_s": (med(lambda x: x["phase"]["finalize_s"]), "s"),
        "prober.q1_sent": (s["q1_sent"], "count"),
        "prober.live_ratio": (ratio(s["r2_matched"], s["q1_sent"]), "ratio"),
        "prober.timeouts_reaped": (s["timeouts_reaped"], "count"),
        "prober.outstanding_peak": (m["orp_scan_outstanding_peak"], "count"),
        "prober.template_hit_ratio": (
            ratio(s["template_stamped"], s["template_stamped"] + s["template_fallback"]),
            "ratio"),
        "prober.r2_unmatched": (s["r2_unmatched"], "count"),
        "prober.rate_deferred": (m["orp_rate_deferred"], "count"),
        "prober.tcp_retries": (s["tcp_retries"], "count"),
        "prober.tcp_answer_ratio": (ratio(s["tcp_answers"], s["tcp_retries"]), "ratio"),
        "net.sent": (m["orp_net_sent"], "count"),
        "net.dropped_unbound": (m["orp_net_dropped_unbound"], "count"),
        "net.unbound_share": (
            ratio(m["orp_net_dropped_unbound"], m["orp_net_sent"]), "ratio"),
        "net.delivered": (m["orp_net_delivered"], "count"),
        "net.loop_events": (m["orp_loop_events_run"], "count"),
        "net.loop_batch_mean": (mean_of("orp_loop_batch_size"), "count"),
        "net.delivery_batch_mean": (mean_of("orp_net_delivery_batch_size"), "count"),
        "net.batch_fallback_singles": (m["orp_net_batch_fallback_singles"], "count"),
        "net.pool_slabs_peak": (m["orp_pool_slabs"], "count"),
        "net.capture_packets": (m["orp_capture_packets"], "count"),
        "resolver.queries": (m["orp_resolver_queries"], "count"),
        "resolver.recursions": (m["orp_resolver_recursions"], "count"),
        "resolver.forwarded": (m["orp_resolver_forwarded"], "count"),
        "resolver.upstream_queries": (m["orp_resolver_upstream_queries"], "count"),
        "resolver.cache_bypass": (m["orp_resolver_cache_bypass"], "count"),
        "resolver.truncated": (m["orp_resolver_truncated"], "count"),
        "resolver.template_hit_ratio": (
            ratio(m["orp_resolver_template_stamped"],
                  m["orp_resolver_template_stamped"] + m["orp_resolver_template_fallback"]),
            "ratio"),
        "authns.q2_received": (m["orp_auth_q2_received"], "count"),
        "authns.template_hit_ratio": (
            ratio(m["orp_auth_template_stamped"],
                  m["orp_auth_template_stamped"] + m["orp_auth_template_fallback"]),
            "ratio"),
        "authns.cluster_loads": (m["orp_auth_cluster_loads"], "count"),
        "authns.load_cluster_s": (med(lambda x: x["layer"]["load_cluster_s"]), "s"),
        "analysis.r2_classified": (lay["r2_classified"], "count"),
        "analysis.on_r2_s": (on_r2_s, "s"),
        "analysis.ns_per_r2": (ratio(on_r2_s * 1e9, lay["on_r2_calls"]), "ns"),
        "analysis.on_r2_share": (ratio(on_r2_s, campaign_s), "ratio"),
        "analysis.table_bytes": (lay["table_bytes"], "bytes"),
        "trace_overhead": (ratio(campaign_s, untraced_s), "ratio"),
    }


# ---- one run ---------------------------------------------------------------

def load_pinned(path):
    if path.is_file():
        return json.loads(path.read_text())
    return {}


def source_rev():
    """git rev when the checkout is a git work tree, plus a hash of src/ that
    identifies the measured code either way."""
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return rev, h.hexdigest()[:16]


def run_workload(name, seed, seconds, trace, scale, pinned_path, pin):
    w = WORKLOADS[name]
    scale = scale or w["scale"]
    args = campaign_args(w, seed, scale)
    started = time.monotonic()
    pinned_all = load_pinned(pinned_path)
    pinned = pinned_all.get(pin_key(name, scale, seed))

    reference = run_campaign(args + ["--reference"]) if w.get("cross_check") else None
    attempted = 1 if w.get("cross_check") else 0
    problems = []
    expect_first = None  # without a reference, the run's first campaign
    if w.get("cross_check") and reference is None:
        problems.append("reference run_measurement campaign failed")

    # Pinning records one campaign; measuring takes medians of several.
    min_samples = 1 if pin else MIN_SAMPLES
    runs = {False: [], True: []}  # traced? -> [(output or None, problems)]
    run_id = 0
    while True:
        elapsed = time.monotonic() - started
        enough = len(runs[False]) >= min_samples and (
            not trace or len(runs[True]) >= min_samples)
        if (enough and (pin or elapsed >= seconds)) or (
                elapsed >= RUN_DEADLINE_S and runs[False]):
            break
        # A traced run alternates traced and untraced campaigns, so the
        # tracing overhead is measured against neighbours in time.
        traced = trace and len(runs[True]) < len(runs[False])
        run_id += 1
        sample = run_campaign(args + ["--run-id", str(run_id)] +
                              (["--trace"] if traced else []))
        if reference is None and expect_first is None:
            expect_first = sample
        found = check(sample, reference or expect_first, pinned)
        runs[traced].append((sample, found))
        attempted += 1
        problems += [f"campaign {run_id}: {p}" for p in found]

    all_runs = runs[False] + runs[True]
    failed = sum(1 for _, v in all_runs if v) + (
        1 if w.get("cross_check") and reference is None else 0)
    done = {t: [x for x, _ in runs[t] if x is not None] for t in runs}

    if pin and not problems:
        first = done[False][0]
        pinned_all[pin_key(name, scale, seed)] = {
            "digest": first["digest"], "tables_sha256": first["tables_sha256"],
            "planted": first["planted"], "q1_sent": first["scan"]["q1_sent"]}
        pinned_path.write_text(json.dumps(pinned_all, indent=1, sort_keys=True) + "\n")

    if not done[False] or (trace and not done[True]):
        metrics = {}
    elif trace:
        metrics = per_layer(done[True], done[False])
    else:
        metrics = end_to_end(runs[False])

    if trace and done[True]:
        out = BUILD_DIR / f"trace-{name}-seed{seed}.json"
        out.write_text(json.dumps({
            "spans": [sp for x in done[True] for sp in x["spans"]],
            "shard_layers": {x["run_id"]: x["shard_layers"] for x in done[True]},
        }) + "\n")

    rev, src_hash = source_rev()
    first = done[False][0] if done[False] else {}
    manifest = {
        "workload": name, "seed": seed, "year": w["year"], "scale": scale,
        "threads": w["threads"],
        "raw_steps_override": (f"{w['raw_steps_per_host']} x planted"
                               if w.get("raw_steps_per_host") else None),
        "raw_steps": first.get("raw_steps"), "planted": first.get("planted"),
        "q1_sent": first.get("scan", {}).get("q1_sent"),
        "events": first.get("events"), "q2_received": first.get("q2_received"),
        "udp_limit": w.get("udp_limit", 0), "tcp": bool(w.get("tcp")),
        "hardware_concurrency": os.cpu_count(), "git_rev": rev,
        "src_sha256": src_hash, "trace": trace,
        "campaigns": {"untraced": len(runs[False]), "traced": len(runs[True]),
                      "reference": 1 if w.get("cross_check") else 0},
        "campaign_s_each": [round(x["phase"]["campaign_s"], 4) for x in done[False]],
        "yardstick_s_each": [round(x["yardstick_s"], 4) for x in done[False]],
        "wall": timings(done[False], 1.0) if done[False] else None,
        "pinned_reference": "absent" if pinned is None else "checked",
        "r2_miss_ratio": (1.0 - metrics["r2_capture_ratio"][0]
                          if "r2_capture_ratio" in metrics else None),
        "problems": problems[:20],
    }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "manifest": manifest}


def print_table(name, metrics):
    print(f"== {name}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:28s} {v:16.6g} {unit}")


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running campaign.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, default=0,
                    help="override the workload's 1/scale (tests use tiny scales)")
    ap.add_argument("--reference", type=Path, default=PINNED,
                    help="pinned reference file (default perfbench/reference.json)")
    ap.add_argument("--pin", action="store_true",
                    help="record this run's digest and tables as the pinned reference")
    opts = ap.parse_args()
    if opts.pin and opts.trace:
        ap.error("--pin records untraced campaigns only")

    build()
    names = sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = {n: run_workload(n, opts.seed, opts.seconds, bool(opts.trace),
                               opts.scale, opts.reference, opts.pin)
               for n in names}

    for n, r in results.items():
        print(json.dumps(r["manifest"], sort_keys=True))
        print_table(n, r["metrics"])
        for p in r["manifest"]["problems"]:
            print(f"  FAILED: {p}")
    single = len(names) == 1
    metrics = {(k if single else f"{n}/{k}"): {"value": v, "unit": unit}
               for n, r in results.items() for k, (v, unit) in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
