"""Benchmark of the ligi CLI and its implicit steps.

    python3 bench/run.py --workload heavytop-warm --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; ligi is imported from ``src/``.  Each
measurement runs in a fresh single-threaded child interpreter (BLAS and OpenMP
pools pinned to one thread), one child at a time.

``--trace 0`` times the workload for ``--seconds`` and prints the end-to-end
metrics: steps_per_s, solve_us_p50, solve_us_p99 (per step; on implicit-cold a
step is one cold solve, elsewhere a sample is one CLI run's time per step),
setup_s (median over several fresh interpreters) and peak_rss_mb.  Times are
scaled to a fixed reference speed by a reference loop run next to them (see
``worker.REF_UNIT_S``); the unscaled figures are in the details.

``--trace 1`` runs one pass of the workload untraced and then traced, in each
of two children, and prints the per-layer metrics: counts and self times per
ligi module, the tracing slowdown, the gap between summed self times and the
traced wall time, and whether the counts of the two children agree exactly.

Every operation's output is checked; ``failed`` counts operations that raised,
exited non-zero or failed a check.  The last stdout line is the JSON result;
the line before it and ``.bench_out/`` hold the details (environment, sample
counts, per-operation counts and the raw spans).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The keys of workloads.WORKLOADS, named here so the parent imports no numpy.
WORKLOADS = ("heavytop-warm", "implicit-cold", "frb-s3", "explicit-actions")
SETUP_PROBES = 6      # extra set-up-only interpreters per timed run
DEADLINE_S = 170.0    # every child must have finished by then
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, mode, started, out_dir, tag="0"):
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise ChildFailed("out of time before starting a child")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds), "--root", args.root, "--out", out_dir,
           "--tag", tag, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=args.root, env=child_env(args.root),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_result(args, started, out_dir):
    probes = [run_child(args, "setup", started, out_dir) for _ in range(SETUP_PROBES)]
    run = run_child(args, "run", started, out_dir)
    setups = [p["setup_s"] for p in probes] + [run["setup_s"]]
    if run["steps_per_s"] is None:
        raise ChildFailed(f"no operation succeeded: {run['failures']}")
    metrics = {
        "steps_per_s": metric(run["steps_per_s"], "steps/s"),
        "solve_us_p50": metric(run["solve_us_p50"], "us"),
        "solve_us_p99": metric(run["solve_us_p99"], "us"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MiB"),
    }
    detail = dict(run, setup_samples_s=setups, unscaled_setup_samples_s=[
        p["unscaled_setup_s"] for p in probes + [run]])
    return metrics, run["attempted"], run["failed"], True, detail


def traced_result(args, started, out_dir):
    runs = [run_child(args, "trace", started, out_dir, tag=str(k)) for k in range(2)]
    first = runs[0]
    repeat = all(r["consistency"]["counts"] == first["consistency"]["counts"]
                 and r["per_label"] == first["per_label"] for r in runs[1:])
    gaps = [abs(r["consistency"]["self_sum_s"] - r["traced_wall_s"]) / r["traced_wall_s"]
            for r in runs]
    negative = min(r["consistency"]["min_self_s"] for r in runs) < -1e-9
    metrics = {}
    for name, m in first["layers"].items():
        if m["unit"] in ("s", "us/call"):  # times: mean of the two traced runs
            m = metric(statistics.fmean(r["layers"][name]["value"] for r in runs), m["unit"])
        metrics[name] = m
    metrics["trace.slowdown"] = metric(statistics.fmean(
        r["steps_per_s_untraced"] / r["steps_per_s_traced"] for r in runs), "ratio")
    metrics["trace.self_sum_rel_err"] = metric(max(gaps), "ratio")
    metrics["trace.counts_repeat"] = metric(1.0 if repeat else 0.0, "bool")
    consistent = repeat and max(gaps) < 1e-2 and not negative
    detail = {"per_label": first["per_label"], "runs": runs}
    return (metrics, sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs),
            consistent, detail)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.root = os.getcwd()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(args.root, "src", "ligi", "cli.py")):
        print("error: run from the root of a ligi checkout (src/ligi not found)",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(args.root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "commit": git_commit(args.root),
           "nproc": os.cpu_count(), "loadavg_at_start": os.getloadavg()}
    try:
        measure = traced_result if args.trace else timed_result
        metrics, attempted, failed, consistent, detail = measure(args, started, out_dir)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key in ("python", "numpy", "scipy"):
        env[key] = (detail.get("runs") or [detail])[0][key]
    record = {"environment": env, "detail": detail}
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": env,
                      "failed_ratio": failed / attempted,
                      "failures": detail.get("failures")
                      or [f for r in detail.get("runs", []) for f in r["failures"]],
                      "latency_samples": detail.get("latency_samples"),
                      "per_label": detail.get("per_label")}))
    print(json.dumps({"correct": failed == 0 and consistent, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
