"""One benchmark child process: set up a workload, then time it or trace it.

    python3 bench/worker.py --workload NAME --seed N --mode setup|run|trace \
        --seconds S --t0 T --out DIR

``--t0`` is ``time.monotonic()`` in the parent just before this process was
started, so ``setup_s`` covers interpreter start-up, imports and building the
workload's inputs.  The last line on stdout is a JSON object with the results.
Run it through ``bench/run.py``, which sets the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import ligi_api as api
import workloads

clock = time.perf_counter

# The reference loop: fixed Python and 3-vector numpy work of the kind ligi's
# inner loops do, and no ligi code.  On shared virtual cores the speed drifts by
# tens of percent over seconds to minutes, so every timing is scaled by how long
# the reference loop took next to it: a time is reported as it would read when
# one reference unit takes REF_UNIT_S.
REF_UNIT_S = 200e-6
REF_SHARE = 0.05  # reference work after each operation, relative to its time
REF_WINDOW_UNITS = 50  # an operation is scaled by at least this many units around it
_REF_M = np.array([[0.9, 0.1, 0.0], [-0.1, 0.9, 0.2], [0.0, -0.2, 0.95]])
_REF_V = np.array([0.3, -0.2, 0.5])


def reference_unit():
    v = _REF_V
    for _ in range(20):
        w = _REF_M @ v
        v = w / math.sqrt(float(w @ w))
        x = np.empty(3)
        x[0] = v[1] * 2.0
        x[1] = v[2] - v[0]
        x[2] = abs(v[0]) + 0.5
        v = 0.5 * (v + x / np.linalg.norm(x))
    return v


def reference_time(units):
    """Seconds per reference unit, measured over ``units`` units."""
    start = clock()
    for _ in range(units):
        reference_unit()
    return (clock() - start) / units


def timed(call, *args):
    start = clock()
    result = call(*args)
    return result, clock() - start


def run_pass(ops, call_timer, on_op=None, reference=False):
    """Run one list of operations.

    Returns (samples, attempted, failures, scales).  With ``reference``, the
    reference loop runs after each operation for REF_SHARE of its time, and
    each sample's scale is REF_UNIT_S over the loop's mean unit time in a window
    of at least REF_WINDOW_UNITS units around its operation: the factor that
    brings the sample to the reference speed.  Otherwise every scale is 1.
    """
    samples, failures, refs, owner = [], [], [], []
    for i, op in enumerate(ops):
        if on_op is not None:
            on_op(i)
        start = clock()
        try:
            got, reason = op.execute(call_timer)
        except Exception as exc:  # a raising operation is a failed operation
            got, reason = [], f"{type(exc).__name__}: {exc}"
        if reference:
            units = 1 + int(REF_SHARE * (clock() - start) / REF_UNIT_S)
            refs.append((units, units * reference_time(units)))
        if reason is None:
            samples.extend(got)
            owner.extend([i] * len(got))
        else:
            failures.append(f"{op.label}: {reason}")
    op_scales = _window_scales(refs) if reference else [1.0] * len(ops)
    return samples, len(ops), failures, [op_scales[i] for i in owner]


def _window_scales(refs):
    scales = []
    for i, (units, seconds) in enumerate(refs):
        lo = hi = i
        while units < REF_WINDOW_UNITS and (lo > 0 or hi < len(refs) - 1):
            for j in (lo - 1, hi + 1):
                if 0 <= j < len(refs):
                    units += refs[j][0]
                    seconds += refs[j][1]
            lo, hi = max(lo - 1, 0), min(hi + 1, len(refs) - 1)
        scales.append(REF_UNIT_S * units / seconds)
    return scales


def throughput(samples):
    """Steps per second at the median time of each kind of operation.

    The sum of the per-kind step counts over the sum of the per-kind median
    times: one pass's worth of work at typical speed, robust to single slow
    operations.
    """
    times, steps = {}, {}
    for label, dt, n in samples:
        times.setdefault(label, []).append(dt)
        steps[label] = n
    return sum(steps.values()) / sum(statistics.median(t) for t in times.values())


def latency_us(samples, passes, per_solve):
    """Median and tail of microseconds per step, and the sample count.

    With per-solve samples (thousands per run) these are the 50th and 99th
    percentiles by nearest rank.  A CLI workload gives only tens of commands
    per run, of a few kinds with very different costs, so its median is the
    median over passes of the pass's time per step, and its tail the median
    over passes of the slowest command's time per step.
    """
    per_step = sorted(1e6 * dt / n for _, dt, n in samples)
    if per_solve:
        return (per_step[max(0, math.ceil(0.5 * len(per_step)) - 1)],
                per_step[max(0, math.ceil(0.99 * len(per_step)) - 1)], len(per_step))
    mean = [1e6 * sum(dt for _, dt, _ in got) / sum(n for _, _, n in got)
            for got in passes]
    worst = [max(1e6 * dt / n for _, dt, n in got) for got in passes]
    return statistics.median(mean), statistics.median(worst), len(per_step)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, seconds):
    """Repeat passes for ``seconds``; times are scaled to the reference speed."""
    passes, raw_passes, scales, attempted, failures = [], [], [], 0, []
    start, index = time.monotonic(), 0
    while index == 0 or time.monotonic() - start < seconds:
        got, tried, bad, got_scales = run_pass(workload.make_pass(index), timed,
                                               reference=True)
        attempted += tried
        failures += bad
        scales += got_scales
        if got:
            raw_passes.append(got)
            passes.append([(label, dt * scale, n)
                           for (label, dt, n), scale in zip(got, got_scales)])
        index += 1
    result = {"passes": index, "measured_s": time.monotonic() - start,
              "attempted": attempted, "failed": len(failures), "failures": failures[:5]}
    if not passes:
        return dict(result, steps_per_s=None)
    samples = [s for got in passes for s in got]
    raw = [s for got in raw_passes for s in got]
    p50, p99, count = latency_us(samples, passes, workload.PER_SOLVE)
    raw_p50, raw_p99, _ = latency_us(raw, raw_passes, workload.PER_SOLVE)
    return dict(result, steps_per_s=throughput(samples), solve_us_p50=p50,
                solve_us_p99=p99, latency_samples=count,
                machine_speed=statistics.median(scales),
                unscaled={"steps_per_s": throughput(raw), "solve_us_p50": raw_p50,
                          "solve_us_p99": raw_p99})


def traced_run(name, seed, out_dir, tag):
    """One untraced pass, then the same pass traced; spans saved to out_dir."""
    import tracing  # the untraced path never loads the hooks

    plain, plain_attempted, plain_failures, _ = run_pass(
        workloads.WORKLOADS[name](seed).make_pass(0), timed)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    ops = workloads.WORKLOADS[name](seed).make_pass(0)  # rebuilt through the hooks
    traced_timer = tracer.wrap(timed, "bench.call", "bench")
    samples, attempted, failures, _ = run_pass(ops, traced_timer, tracer.set_op)
    tracer.set_op(-1)
    metrics, per_label, consistency = tracing.summarize(
        tracer, [op.label for op in ops], [_op_steps(op) for op in ops])
    wall = sum(dt for _, dt, _ in samples)
    tracer.save(os.path.join(out_dir, f"spans-{name}-seed{seed}-{tag}.npz"))
    return {
        "layers": metrics, "per_label": per_label, "consistency": consistency,
        "traced_wall_s": wall,
        "steps_per_s_untraced": throughput(plain) if plain else None,
        "steps_per_s_traced": throughput(samples) if samples else None,
        "attempted": attempted + plain_attempted,
        "failed": len(failures) + len(plain_failures),
        "failures": (plain_failures + failures)[:5],
    }


def _op_steps(op):
    """Integration steps of one operation; a cold operation is two solves."""
    return 2 if isinstance(op, workloads.ColdOp) else op.steps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tag", default="0")
    args = parser.parse_args(argv)

    api.check_source(args.root)
    if args.mode == "trace":
        result = traced_run(args.workload, args.seed, args.out, args.tag)
    else:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        setup_s = time.monotonic() - args.t0
        # Scaled by the reference speed right after set-up.
        result = {"setup_s": setup_s * REF_UNIT_S / reference_time(250),
                  "unscaled_setup_s": setup_s}
        if args.mode == "run":
            result.update(timed_run(workload, args.seconds))
    result.update(peak_rss_mb=peak_rss_mb(), python=sys.version.split()[0],
                  numpy=np.__version__, scipy=scipy.__version__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
