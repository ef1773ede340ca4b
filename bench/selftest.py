"""Self-test of the benchmark's failure accounting and hook handling.

    python3 bench/selftest.py

Run from the root of a ligi checkout.  Shows that corrupted outputs (a NaN
row, a wrong drift class, a non-zero exit, a raising step) are counted as
failed operations, and that a traced-run hook whose target has gone is
reported as missing instead of crashing the run.  Exits 1 if any case fails.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import ligi_api as api  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

results = []


def expect(name, ok):
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}")


def corrupt_row(csv_text, row, value="nan"):
    lines = csv_text.splitlines(keepends=True)
    cells = lines[row].split(",")
    cells[1] = value
    lines[row] = ",".join(cells)
    return "".join(lines)


def main():
    api.check_source(os.getcwd())
    ops = {op.label: op for op in workloads.HeavytopWarm(0).make_pass(0)}
    drifting = ops["heavytop-rkmk-theta0"]
    code, out, _ = api.run_cli(list(drifting.argv))
    expect("real heavytop-rkmk-theta0 output passes its check",
           drifting.check(code, out) is None)
    expect("a NaN row is counted as failed",
           drifting.check(code, corrupt_row(out, 500)) is not None)
    expect("a wrong drift class is counted as failed",
           ops["heavytop-theta05"].check(code, out) is not None)
    expect("a non-zero exit is counted as failed", drifting.check(2, out) is not None)

    # Real CLI runs that go wrong, through the same pass runner as a timed run.
    steps = 10
    bad_config = workloads.CliOp(
        "bad-config", ("integrate", "--problem", "heavytop", "--scheme", "cf4",
                       "--h", "0.05", "--steps", str(steps)), steps,
        lambda c, o: workloads.checks.check_trajectory("finite", steps, c, o))
    nan_step = workloads.CliOp(
        "nan-step", ("integrate", "--preset", "frb-s2-rkmk4", "--h", "nan",
                     "--steps", str(steps)), steps,
        lambda c, o: workloads.checks.check_trajectory("sphere", steps, c, o))

    def diverging(system, state, h):
        raise api.symplectic.FixedPointDivergence("forced", h=h, residual=1.0)

    cold = workloads.ImplicitCold(0).make_pass(0)[0]
    raising = workloads.ColdOp("raising", diverging, cold.system, cold.state,
                               cold.h, cold.check)
    samples, attempted, failures, _ = worker.run_pass(
        [drifting, bad_config, nan_step, cold, raising], worker.timed)
    expect("exit 2, an all-NaN CSV with exit 0 and a raising step: 3 of 5 failed",
           attempted == 5 and len(failures) == 3
           and [f.split(":")[0] for f in failures] == ["bad-config", "nan-step", "raising"])
    expect("failed operations give no timing samples",
           sorted({label for label, _, _ in samples})
           == ["heavytop-rkmk-theta0", "theta/back", "theta/fwd"])

    # A hook whose target is gone: reported missing, its metric left out.
    saved = api.HOOK_FUNCTIONS
    api.HOOK_FUNCTIONS = tuple(h for h in saved if h != ("ligi.cli", "write_csv")) \
        + (("ligi.cli", "no_such_function"),)
    try:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    finally:
        api.HOOK_FUNCTIONS = saved
    tracer.set_op(0)
    code, out, _ = api.run_cli(list(drifting.argv))
    tracer.set_op(-1)
    metrics, _, consistency = tracing.summarize(tracer, [drifting.label], [drifting.steps])
    expect("a missing hook is listed and its metric omitted",
           "ligi.cli.no_such_function" in consistency["missing_hooks"]
           and "cli.csv_s" not in metrics and "cli.self_s" in metrics and code == 0)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
