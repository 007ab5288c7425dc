"""Benchmark of the spinweil CLI verbs, one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload cayley --seed 1 --seconds 30 --trace 0

Workloads: cayley, verify (see perfbench/README.md).  The workload
runs in a fresh single-threaded interpreter (worker.py) that drives the
verbs in-process through spinweil.cli.main with stdout captured.  With
--trace 0 more fresh interpreters only set up, and setup_s is the
median of all set-ups (3, or up to 15 when set-up is cheap).  With
--trace 1 one traced interpreter gives the per-layer split instead.  Every
time is CPU time scaled to a nominal machine speed (see worker.scale).  The
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Exits 2 when the spinweil sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import worker

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cayley", "verify")
#: set-ups per --trace 0 run: at least SETUPS, then more while they add up
#: to less than SETUP_SPAN_S, at most SETUPS_MAX (cheap set-ups are noisy)
SETUPS = 3
SETUP_SPAN_S = 2.0
SETUPS_MAX = 15
RUN_LIMIT_S = 175

#: end-to-end metrics of every workload (BENCHMARK.json gates them)
END_TO_END = ("setup_s", "peak_rss_mb", "items_per_s", "heavy_mean_s")

#: the workload's operation kinds: heavy kind first
KINDS = {"cayley": ("noniso", "iso"), "verify": ("verify",)}

#: the workload-specific names of the reported latencies, by kind
KIND_METRIC = {"noniso": "cayley_noniso", "iso": "cayley_iso",
               "verify": "verify"}


def percentile_report(name, samples):
    """Median always; p90 only when at least ten samples lie beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    lines = [(f"{name}_p50_s", statistics.median(ordered), "s",
              f"n={n}")]
    rank = math.ceil(0.9 * n)
    if n - rank >= 10:
        lines.append((f"{name}_p90_s", ordered[rank - 1], "s",
                      f"n={n}, {n - rank} beyond"))
    return lines


def git_commit(root):
    """The checked-out commit, or "unknown" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_worker(root, spec, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one unit of work and one set-up (for tests)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spinweil" / "__init__.py").is_file():
        print("error: run from the repository root; src/spinweil is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "setup_only": False}
    result = run_worker(root, spec, deadline)
    setups = [result]
    if not args.trace and not args.smoke:
        while len(setups) < SETUPS or (
                sum(r["setup_cpu_s"] for r in setups) < SETUP_SPAN_S
                and len(setups) < SETUPS_MAX):
            setups.append(run_worker(root, dict(spec, setup_only=True),
                                     deadline))

    kinds = KINDS[args.workload]
    lat, cpu = result["latencies"], result["cpu_latencies"]
    if args.workload == "verify":
        per_item, busy_s, what = (result["attempted"], sum(lat["verify"]),
                                  "checks")
    else:  # iso calls only, so that per-call cost is not drowned out
        per_item, busy_s, what = len(lat["iso"]), sum(lat["iso"]), "iso calls"
    items_per_s = per_item / busy_s
    # the mean latency of the heavy operation: a noniso call, or a registry
    # pass (the sum of its suite calls).  A mean of the noniso calls spread
    # less between runs than their median.
    heavy = sum if args.workload == "verify" else statistics.mean
    heavy_mean = heavy(lat[kinds[0]])
    correct = result["consistent"] and (args.workload == "verify"
                                        or result["failed"] == 0)

    report = [("setup_s", statistics.median(r["setup_s"] for r in setups),
               "s", f"median of {len(setups)} set-ups: "
               + ", ".join(f"{r['setup_s']:.4f}" for r in setups)),
              ("peak_rss_mb", result["peak_rss_kb"] / 1024, "MB",
               "workload process"),
              ("items_per_s", items_per_s, "1/s",
               f"{per_item} {what} in {busy_s:.3f} s"),
              ("heavy_mean_s", heavy_mean, "s",
               f"{kinds[0]}, n={len(lat[kinds[0]])}; CPU time "
               f"{heavy(cpu[kinds[0]]):.4g} s"),
              ("error_rate", result["failed"] / result["attempted"], "ratio",
               f"{result['failed']}/{result['attempted']}")]
    if args.workload == "verify":
        report.append(("verify_s", heavy_mean, "s",
                       f"one registry pass, {len(lat['verify'])} suites"))
    for kind in kinds:
        if kind != "verify":
            report.extend(percentile_report(KIND_METRIC[kind], lat[kind]))

    print(f"# spinweil benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# note: nproc={os.cpu_count()} python={platform.python_version()} "
          f"commit={git_commit(root)} items="
          + ",".join(f"{k}:{len(v)}" for k, v in lat.items())
          + "".join(f" {k}_height={lo}..{hi}"
                    for k, (lo, hi) in result["heights"].items()))
    refs = sorted(result["reference_s"])
    print(f"# machine: {len(refs)} reference passes {refs[0] * 1e3:.1f}.."
          f"{refs[-1] * 1e3:.1f} ms, median {statistics.median(refs) * 1e3:.1f}"
          f" ms; times are scaled to {worker.REFERENCE_NOMINAL_S * 1e3:g} ms")
    for reason in result["failures"]:
        print(f"# failure: {reason}")

    if args.trace:
        units = {name: unit for name, unit, _ in spans.metric_specs()}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in result["per_layer"].items()}
        metrics["trace.items_per_s"] = {"value": items_per_s, "unit": "1/s"}
        metrics["trace.heavy_mean_s"] = {"value": heavy_mean, "unit": "s"}
        metrics["trace.self_coverage"] = {"value": result["self_coverage"],
                                          "unit": "ratio"}
        if not 0 < result["self_coverage"] <= 1 + 1e-9:
            correct = False
        for name, value, unit, note in report[2:4]:
            print(f"traced {name} {value:.6g} {unit} ({note})")
        print(f"traced self_s total / traced window = "
              f"{result['self_coverage']:.4f} of "
              f"{result['traced_window_s']:.3f} s")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in report if name in END_TO_END}
        for name, value, unit, note in report:
            print(f"metric {name} {value:.6g} {unit} ({note})")
    print(json.dumps({"correct": bool(correct),
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
