"""L0 and L1 timings: closed forms, implicit-loop pieces, single steps and CSV output.

    python scripts/bench_primitives.py
    python scripts/bench_primitives.py --baseline ../ligi-parent \
        --runs parent=logs/parent --runs change=logs/change

Run from the root of a checkout; the record is written to
BENCH_one_abelian_algebra.json unless ``--out`` names another file (the
earlier records are BENCH_so3_kernels.json, BENCH_implicit_loops.json,
BENCH_cotangent_family.json, BENCH_explicit_actions.json,
BENCH_rkmk_family.json, BENCH_one_solver.json, BENCH_one_tableau.json,
BENCH_so3_algebra.json, BENCH_frb_kernels.json,
BENCH_cotangent_kernels.json, BENCH_semidirect_kernels.json,
BENCH_theta_stage.json, BENCH_one_stage_system.json,
BENCH_dg_kernel.json, BENCH_one_dg_update.json,
BENCH_one_cotangent_class.json and BENCH_lazy_scipy.json).
The cases of ``src/`` are timed as "change"; with ``--baseline`` those of
``<baseline>/src`` are timed too, as "parent".  A case whose statement
raises AttributeError on a tree, one that names an operation the tree does
not have, is left out for that tree.
Each round is one fresh single-threaded child interpreter that imports every
tree's ligi side by side (the first tree loaded alternates between rounds) and
times each case on the trees back to back, repeat by repeat, alternating their
order.  A case runs ``REPEAT`` ``timeit`` repeats per tree and round, each of
the case's own number of calls, and each repeat is followed by
``REF_WINDOW_UNITS`` units of ``bench/worker.py``'s reference loop (imported,
not copied): the repeat's time is scaled by ``REF_UNIT_S`` over the loop's
mean unit time, as the benchmark scales its operations, so that it reads as at
a fixed reference speed.  A case's headline time is the median over all scaled
repeats, given with their quartiles; the minimum and maximum are recorded too.
With a baseline, the change over the parent is the median (with quartiles)
over the rounds of the ratio of the two trees' medians in that round's child,
so a bias of one child acts on both sides of its ratio.

The L0 cases are the so(3) and S^3 closed forms (the dexp family as the
``SO3`` and ``S3`` methods; ``quat_mul``, ``quat_exp`` and ``quat_log`` also
as their private bodies on tuples, so that the two rows of each show what its
array wrapper costs), the 2x2 exponential of ``SL2`` against
``scipy.linalg.expm`` on the same matrix, the torus exponential with its
action, the callbacks of the quaternion free rigid body (energy, field,
energy differential) with its body momentum, the heavy top's force map, and
the exponential, product and order-2 dexpinv of ``CotangentOps`` over SO(3)
(the RKMK theta comparator's semidirect operations, on float kernels) and
over S^3 (the composition from the base's operations), its exponential
and product over ``TranslationOps(3)`` (the composition that every group
without a float kernel runs), the abelian transports ``dual_dexp`` of
``TranslationOps(3)`` and ``dexpinv`` of ``TorusOps``, and the
symplectic family's theta = 1/2 stages ``SO3.symplectic_stages`` at the
heavy-top start's explicit Euler iterate, as the float kernel and as the
``GroupOps`` composition that every other tableau and group runs.
The L1 cases are one call of
each piece of the implicit inner loops (the theta = 1/2, theta = 0 and RKMK
theta residuals, the semidirect bracket on SO(3) and S^3, the two-form and
the quaternion log), one cold step of each implicit
scheme from the heavy-top and quaternion free rigid body start states, each
with a fresh solver (the symplectic family at theta = 1/2 and theta = 0,
through theta_step and through symplectic_step, and its two-stage Gauss
member; the RKMK theta comparator at theta = 1/2 and theta = 0), one warm step
of the symplectic theta = 1/2 and theta = 0 and RKMK theta = 1/2 schemes along
a heavy-top preset run (one solver per run of 1000 steps, as the heavytop-warm
workload runs them), of ``dg_step`` along the frb-s3-dg preset run with the
Gonzalez and with the averaged differential, and of the Gonzalez ``dg_step``
on SO(3) along a run of the height H(R) = c . (R u) under a field tangent to
its level sets, one explicit KUTTA4 ``rkmk_step`` on the free rigid body
on S^2 from the frb-s2 preset's start, and ``cli.write_csv`` of the
full-length torus-descent and heavytop-theta05 trajectories into memory.

The import case times ``import ligi.cli`` in fresh interpreters, which the
children above cannot do, since each imports every tree side by side:
``IMPORT_INTERPRETERS`` interpreters per tree, alternating trees, each
reporting its import time (unscaled) and which of ``scipy.linalg`` and
``scipy.special`` the import left loaded.  With a baseline, the change over
the parent is the median (with quartiles) of the ratio of each pair of
interpreters started one after the other.

``--runs LABEL=DIR`` adds the end-to-end results of ``bench/run.py``: DIR
holds one file per run with that run's stdout; other files in it, such as a
saved stderr, are skipped.  Each workload's metrics are
summarised by median and quartiles, and when both "parent" and "change" are
given, runs with the same workload and seed are paired and the change's wins
counted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import timeit

import numpy
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS, REPEAT, NUMBER = 10, 3, 20000
IMPORT_INTERPRETERS = 20

# (case, statement, calls per repeat); sigma has the size of a heavy-top
# Newton iterate, so every closed form takes its trigonometric branch.
L0_KERNELS = (
    ("cross3", "S, V"),
    ("hat", "S"),
    ("rotation_from_vector", "S"),
    ("SO3.dexp", "S, V"),
    ("SO3.dexpinv", "S, V"),
    ("SO3.dual_dexp", "S, V"),
    ("S3.dexp", "S, V"),
    ("S3.dexpinv", "S, V"),
    ("S3.dual_dexp", "S, V"),
    ("quat_mul", "P, Q"),
    ("quat_exp", "S"),
    ("quat_conj", "Q"),
    ("euler_rodrigues", "Q"),
    ("quat_log", "P"),
    ("_quat_mul", "PT, QT"),
    ("_quat_exp", "ST"),
    ("_quat_log", "PT"),
)
CASES = tuple((name, f"liealg.{name}({args})", NUMBER) for name, args in L0_KERNELS) + (
    ("SL2.exp", "liealg.SL2.exp(A2)", NUMBER),
    ("scipy.linalg.expm_2x2", "scipy.linalg.expm(A2)", NUMBER),
    ("TorusOps.exp+TorusAction.apply",
     "actions.TORUS.apply(actions.TORUS.group.exp(XI2), M22)", NUMBER),
    ("FRB.energy", "FRB.energy(P)", NUMBER),
    ("FRB.field", "FRB.field(P)", NUMBER),
    ("FRB.energy_differential", "FRB.energy_differential(P)", NUMBER),
    ("body_momentum", "discrete_gradient.body_momentum(P, FRB_M0)", NUMBER),
    ("heavy_top.force_map", "HT.force_map(*HT_STATE)", NUMBER),
    ("CotangentOps.exp", "CT.exp(A6)", NUMBER),
    ("CotangentOps.mul", "CT.mul(CT_G, CT_G)", NUMBER),
    ("CotangentOps.dexpinv_order2", "CT.dexpinv(A6, B6, 2)", NUMBER),
    ("CotangentOps_S3.exp", "CT_S3.exp(A6)", NUMBER),
    ("CotangentOps_S3.mul", "CT_S3.mul(CT_S3_G, CT_S3_G)", NUMBER),
    ("CotangentOps_S3.dexpinv_order2", "CT_S3.dexpinv(A6, B6, 2)", NUMBER),
    ("CotangentOps_R3.exp", "CT_R3.exp(A6)", NUMBER),
    ("CotangentOps_R3.mul", "CT_R3.mul(CT_R3_G, CT_R3_G)", NUMBER),
    ("TranslationOps_R3.dual_dexp", "R3.dual_dexp(S, V)", NUMBER),
    ("TorusOps.dexpinv", "actions.TORUS.group.dexpinv(XI2, XI2)", NUMBER),
    ("SO3.symplectic_stages", "liealg.SO3.symplectic_stages(THETA05, THETA_Z, *HT_STATE)",
     NUMBER),
    ("GroupOps.symplectic_stages_SO3",
     "liealg.GroupOps.symplectic_stages(liealg.SO3, THETA05, THETA_Z, *HT_STATE)", NUMBER),
    ("theta_residual", "THETA_RESIDUAL(THETA_Z)", 2000),
    ("theta0_residual", "THETA0_RESIDUAL(THETA0_Z)", 2000),
    ("rkmk_theta_residual", "RKMK_RESIDUAL(RKMK_K)", 1000),
    ("CotangentOps.bracket", "CT.bracket(A6, B6)", 5000),
    ("CotangentOps_S3.bracket", "CT_S3.bracket(A6, B6)", 5000),
    ("two_form_matrix", "discrete_gradient.two_form_matrix(FRB, P, gamma=GAMMA)", 5000),
    ("theta_step_cold", "symplectic.theta_step(0.5, HT, HT_STATE, 0.05)", 100),
    ("theta0_step_cold", "symplectic.theta_step(0.0, HT, HT_STATE, 0.05)", 100),
    ("symplectic_step_theta05_cold",
     "symplectic.symplectic_step(THETA05, HT, HT_STATE, 0.05)", 100),
    ("symplectic_step_theta0_cold",
     "symplectic.symplectic_step(THETA0, HT, HT_STATE, 0.05)", 100),
    ("symplectic_step_gauss2_cold",
     "symplectic.symplectic_step(GAUSS2, HT, HT_STATE, 0.05)", 50),
    ("rkmk_theta_step_cold", "symplectic.rkmk_theta_step(0.5, HT, HT_STATE, 0.05)", 100),
    ("rkmk_theta0_step_cold", "symplectic.rkmk_theta_step(0.0, HT, HT_STATE, 0.05)", 2000),
    ("theta_step_warm", "WARM_THETA05()", 200),
    ("theta0_step_warm", "WARM_THETA0()", 200),
    ("rkmk_theta_step_warm", "WARM_RKMK_THETA05()", 200),
    ("dg_step_warm_frb_s3", "WARM_DG()", 300),
    ("dg_step_warm_frb_s3_avf", "WARM_DG_AVF()", 100),
    ("dg_step_warm_so3", "WARM_DG_SO3()", 100),
    ("rkmk_step_kutta4_frb_s2", "steppers.rkmk_step(FRB_S2, M3, 0.05)", 2000),
    ("dg_step_cold", "discrete_gradient.dg_step(FRB, P, 1 / 64)", 300),
    ("write_csv_torus_descent", "cli.write_csv(*TORUS_RUN, io.StringIO())", 5),
    ("write_csv_heavytop_theta05", "cli.write_csv(*HEAVYTOP_RUN, io.StringIO())", 3),
)
SETUP = """
import io
from functools import partial
import numpy as np
import scipy.linalg
from ligi import actions, cli, discrete_gradient, liealg, problems, semidirect, steppers
from ligi import symplectic
S = np.array([0.31, -0.22, 0.38])
V = np.array([0.1, 0.5, -0.3])
P = np.array([0.9, 0.1, -0.3, 0.3]) / np.linalg.norm([0.9, 0.1, -0.3, 0.3])
Q = np.array([0.5, 0.5, -0.5, 0.5])
ST, PT, QT = tuple(S.tolist()), tuple(P.tolist()), tuple(Q.tolist())
CT = semidirect.CotangentOps(liealg.SO3)
CT_S3 = semidirect.CotangentOps(liealg.S3)
R3 = liealg.TranslationOps(3)
CT_R3 = semidirect.CotangentOps(R3)
A6 = np.concatenate([S, 40.0 * V])
B6 = np.concatenate([V, 30.0 * S])
CT_G, CT_S3_G, CT_R3_G = CT.exp(B6), CT_S3.exp(B6), CT_R3.exp(B6)
HT = symplectic.heavy_top(symplectic.HeavyTopParams.benchmark())
HT_STATE = symplectic.HeavyTopParams.benchmark().state0
THETA05 = steppers.ButcherTableau.theta(0.5)
THETA0 = steppers.ButcherTableau.theta(0.0)
GAUSS2 = steppers.ButcherTableau(  # the two-stage Gauss-Legendre coefficients
    a=[[0.25, 0.25 - 3 ** 0.5 / 6], [0.25 + 3 ** 0.5 / 6, 0.25]], b=[0.5, 0.5])
class Capture:  # a solver that keeps the residual and returns the start point
    def solve(self, residual, z0, h=None):
        self.residual, self.z0 = residual, z0
        return z0
cap = Capture()
symplectic.theta_step(0.5, HT, HT_STATE, 0.05, solver=cap)
THETA_RESIDUAL, THETA_Z = cap.residual, cap.z0
symplectic.theta_step(0.0, HT, HT_STATE, 0.05, solver=cap)
THETA0_RESIDUAL, THETA0_Z = cap.residual, cap.z0
symplectic.rkmk_theta_step(0.5, HT, HT_STATE, 0.05, solver=cap)
RKMK_RESIDUAL, RKMK_K = cap.residual, cap.z0
class WarmRun:  # one step per call along a preset run of 1000 steps
    def __init__(self, make_step, state0, h):
        self.make_step, self.state0, self.h, self.k = make_step, state0, h, 1000
    def __call__(self):
        if self.k == 1000:  # a new run: a new step map, as every preset run has
            self.step, self.state, self.k = self.make_step(), self.state0, 0
        self.state = self.step(self.state, self.h)
        self.k += 1
WARM_THETA05 = WarmRun(lambda: symplectic.cotangent_step(HT, "symplectic_theta", 0.5),
                       HT_STATE, 0.05)
WARM_THETA0 = WarmRun(lambda: symplectic.cotangent_step(HT, "symplectic_theta", 0.0),
                      HT_STATE, 0.05)
WARM_RKMK_THETA05 = WarmRun(lambda: symplectic.cotangent_step(HT, "rkmk_theta", 0.5),
                            HT_STATE, 0.05)
FRB_M0 = np.array([1.0, 0.1, -1.0 / 60.0])  # the frb-s3 presets' (1, 1/2, -1) / I
FRB = discrete_gradient.free_rigid_body_quat(np.array([1.0, 5.0, 60.0]), FRB_M0)
WARM_DG = WarmRun(lambda: partial(discrete_gradient.dg_step, FRB),
                  np.array([1.0, 0.0, 0.0, 0.0]), 1 / 64)
WARM_DG_AVF = WarmRun(lambda: partial(discrete_gradient.dg_step, FRB, tdd="avf"),
                      np.array([1.0, 0.0, 0.0, 0.0]), 1 / 64)
SO3_C, SO3_U = np.array([0.4, 0.2, -0.9]), np.array([0.7, 0.1, 0.2])
def so3_height_differential(R):
    return np.cross(R @ SO3_U, SO3_C)
SO3_HEIGHT = discrete_gradient.InvariantSystem(
    group=liealg.SO3, energy=lambda R: float(SO3_C @ (R @ SO3_U)),
    field=lambda R: np.cross(so3_height_differential(R), np.array([0.2, -1.0, 0.4])),
    energy_differential=so3_height_differential)
WARM_DG_SO3 = WarmRun(lambda: partial(discrete_gradient.dg_step, SO3_HEIGHT), np.eye(3), 1 / 64)
GAMMA = discrete_gradient.trivialized_differential(
    FRB.group, FRB.energy, P, closed_form=FRB.energy_differential)
A2 = np.array([[0.0, 0.01], [-0.015625, 0.0]])  # h f at the duffing-sl2 start
XI2 = np.array([-0.068, 0.175])  # h f at the torus-descent start
M22 = problems.torus_state(0.3, 1.2)
FRB_S2 = problems.free_rigid_body_s2(1.0, 5.0, 60.0)
M3 = np.array([np.cos(1.1), 0.0, np.sin(1.1)])  # the frb-s2 preset's start
TORUS_RUN = cli.run_trajectory(cli.RunConfig(**cli.PRESETS["torus-descent"]))
HEAVYTOP_RUN = cli.run_trajectory(cli.RunConfig(**cli.PRESETS["heavytop-theta05"]))
"""
# One fresh interpreter's import of the CLI, and the scipy modules it left loaded.
IMPORT_PROBE = """
import json, sys, time
start = time.perf_counter()
import ligi.cli
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds,
                  "loaded": [m for m in ("scipy.linalg", "scipy.special") if m in sys.modules]}))
"""
END_TO_END = ("steps_per_s", "solve_us_p50", "solve_us_p99", "setup_s", "peak_rss_mb")
HIGHER_IS_BETTER = {"steps_per_s"}


def load_tree(src):
    """The SETUP namespace on a fresh import of the ligi under src.

    The modules of an earlier tree stay alive through its namespace, so trees
    loaded one after another run side by side in one interpreter.
    """
    for name in [m for m in sys.modules if m == "ligi" or m.startswith("ligi.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        namespace = {}
        exec(SETUP, namespace)
    finally:
        sys.path.remove(src)
    return namespace


def time_primitives(trees):
    """{label: {case: per-call microseconds of every repeat at the reference speed}}.

    trees maps labels to src directories, loaded in that order; every repeat
    times the trees back to back, in an order that alternates by repeat.
    """
    # The worker imports ligi, so only the children, with a src/ on their path, load it.
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from worker import REF_UNIT_S, REF_WINDOW_UNITS, reference_time

    namespaces = {label: load_tree(src) for label, src in trees.items()}
    out = {label: {} for label in trees}
    for name, statement, number in CASES:
        timers = {label: timeit.Timer(statement, globals=namespace)
                  for label, namespace in namespaces.items() if runs_on(statement, namespace)}
        for label in timers:
            out[label][name] = []
        for k in range(REPEAT):
            for label in (list(timers) if k % 2 == 0 else list(reversed(timers))):
                seconds = timers[label].timeit(number)
                scale = REF_UNIT_S / reference_time(REF_WINDOW_UNITS)
                out[label][name].append(seconds / number * 1e6 * scale)
    return out


def runs_on(statement, namespace):
    """False when the statement names an attribute the tree lacks."""
    try:
        exec(statement, namespace)
    except AttributeError:
        return False
    return True


def single_threaded_env(src):
    return dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1")


def run_child(trees):
    env = single_threaded_env(next(iter(trees.values())))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child",
         *(f"{label}={src}" for label, src in trees.items())],
        env=env, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout)


def time_imports(trees):
    """{label: [{"seconds", "loaded"} per interpreter]}, the trees alternating in each pair."""
    out = {label: [] for label in trees}
    for k in range(IMPORT_INTERPRETERS):
        for label in (list(trees) if k % 2 == 0 else list(reversed(list(trees)))):
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                                  env=single_threaded_env(trees[label]), capture_output=True,
                                  text=True, check=True, timeout=120)
            out[label].append(json.loads(proc.stdout))
    return out


def summarise_imports(probes):
    """Median and quartiles of the import times, by label, with the modules each loaded."""
    out = {}
    for label, runs in probes.items():
        q1, q2, q3 = quartiles([run["seconds"] for run in runs])
        out[label] = {"min_s": min(run["seconds"] for run in runs), "q1_s": q1,
                      "median_s": q2, "q3_s": q3,
                      "max_s": max(run["seconds"] for run in runs),
                      "interpreters": len(runs),
                      "loaded": sorted({m for run in runs for m in run["loaded"]})}
    if {"parent", "change"} <= set(probes):
        q1, q2, q3 = quartiles([c["seconds"] / p["seconds"]
                                for c, p in zip(probes["change"], probes["parent"])])
        out["change_over_parent"] = {"median": q2, "q1": q1, "q3": q3}
    return out


def quartiles(values):
    if len(values) == 1:  # statistics.quantiles needs two points
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise_times(samples):
    q1, q2, q3 = quartiles(samples)
    return {"min_us": min(samples), "q1_us": q1, "median_us": q2, "q3_us": q3,
            "max_us": max(samples), "repeats": len(samples)}


def _json_object(line):
    try:
        value = json.loads(line)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def read_run(path):
    """((workload, seed), metrics) of one saved bench/run.py stdout; None for another file.

    A run's stdout ends in two JSON lines, the details (with its
    "environment") and the result.  A file without that details line, such as
    a saved stderr, is no run output; one that has it but no readable result
    after it stops the script with the file's name.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
    except (OSError, UnicodeDecodeError):
        return None
    details = _json_object(lines[-2]) if len(lines) >= 2 else None
    if details is None or not isinstance(details.get("environment"), dict):
        return None
    result, env = _json_object(lines[-1]), details["environment"]
    try:
        correct = result["correct"]
        key = env["workload"], env["seed"]
        metrics = {k: result["metrics"][k]["value"] for k in END_TO_END}
    except (KeyError, TypeError) as exc:
        raise SystemExit(f"{path}: malformed bench/run.py output, no readable result ({exc!r})") from None
    if not correct:
        raise SystemExit(f"{path}: run reported failures: {result}")
    return key, metrics


def read_runs(directory):
    """{(workload, seed): metrics} from saved bench/run.py outputs; other files are skipped."""
    runs, skipped = {}, 0
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        run = read_run(path) if os.path.isfile(path) else None
        if run is None:
            skipped += 1
            continue
        key, metrics = run
        runs[key] = metrics
    if skipped:
        print(f"{directory}: skipped {skipped} files that are not bench/run.py outputs",
              file=sys.stderr)
    return runs


def summarise_runs(runs_by_label):
    out = {}
    workloads = sorted({w for runs in runs_by_label.values() for w, _ in runs})
    for workload in workloads:
        entry = {}
        for label, runs in runs_by_label.items():
            values = [m for (w, _), m in runs.items() if w == workload]
            entry[label] = {"runs": len(values)}
            for metric in END_TO_END:
                q1, q2, q3 = quartiles([m[metric] for m in values])
                entry[label][metric] = {"median": q2, "q1": q1, "q3": q3}
        if {"parent", "change"} <= set(runs_by_label):
            parent, change = runs_by_label["parent"], runs_by_label["change"]
            seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
            entry["pairs"] = len(seeds)
            for metric in END_TO_END:
                sign = 1.0 if metric in HIGHER_IS_BETTER else -1.0
                wins = sum(sign * (change[(workload, s)][metric]
                                   - parent[(workload, s)][metric]) > 0 for s in seeds)
                ratio = entry["change"][metric]["median"] / entry["parent"][metric]["median"]
                entry[metric + "_change_over_parent"] = {"median_ratio": ratio,
                                                         "change_wins": wins}
        out[workload] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", help="root of a second checkout to time as parent")
    parser.add_argument("--runs", action="append", default=[], metavar="LABEL=DIR")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_one_abelian_algebra.json"))
    parser.add_argument("--child", nargs="+", metavar="LABEL=SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        trees = dict(spec.partition("=")[::2] for spec in args.child)
        print(json.dumps(time_primitives(trees)))
        return 0

    trees = {"change": os.path.join(ROOT, "src")}
    if args.baseline:
        trees["parent"] = os.path.join(os.path.abspath(args.baseline), "src")
    rounds = {label: {name: [] for name, *_ in CASES} for label in trees}
    for k in range(ROUNDS):
        order = list(trees) if k % 2 == 0 else list(reversed(list(trees)))
        for label, cases in run_child({label: trees[label] for label in order}).items():
            for name, times in cases.items():
                rounds[label][name].append(times)

    primitives = {}
    for name, *_ in CASES:
        entry = {label: summarise_times([t for times in rounds[label][name] for t in times])
                 for label in trees if rounds[label][name]}
        if {"parent", "change"} <= set(entry):
            q1, q2, q3 = quartiles([statistics.median(c) / statistics.median(p) for c, p
                                    in zip(rounds["change"][name], rounds["parent"][name])])
            entry["change_over_parent"] = {"median": q2, "q1": q1, "q3": q3}
        primitives[name] = entry
    imports = summarise_imports(time_imports(trees))
    record = {
        "environment": {"nproc": os.cpu_count(), "machine": platform.machine(),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__},
        "method": {"rounds": ROUNDS, "repeat": REPEAT,
                   "pairing": "every tree timed in each round's one child, "
                              "repeat by repeat in alternating order",
                   "scaling": "bench/worker.py reference loop after each repeat",
                   "number": {name: number for name, _, number in CASES},
                   "statements": {name: statement for name, statement, _ in CASES},
                   "inputs": [line for line in SETUP.strip().splitlines()
                              if not line.startswith(("import ", "from "))],
                   "import_interpreters": IMPORT_INTERPRETERS},
        "primitives": primitives,
        "import_ligi_cli": imports,
    }
    if args.runs:
        runs = {}
        for spec in args.runs:
            label, _, directory = spec.partition("=")
            runs[label] = read_runs(directory)
        record["end_to_end"] = summarise_runs(runs)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, entry in primitives.items():
        line = "  ".join(f"{label} {entry[label]['median_us']:8.2f} us"
                         f" [{entry[label]['q1_us']:.2f}, {entry[label]['q3_us']:.2f}]"
                         for label in trees if label in entry)
        if "change_over_parent" in entry:
            ratio = entry["change_over_parent"]
            line += f"  ratio {ratio['median']:.3f} [{ratio['q1']:.3f}, {ratio['q3']:.3f}]"
        print(f"{name:30s} {line}")
    line = "  ".join(f"{label} {imports[label]['median_s'] * 1e3:7.1f} ms"
                     f" [{imports[label]['q1_s'] * 1e3:.1f}, {imports[label]['q3_s'] * 1e3:.1f}]"
                     f" loads {imports[label]['loaded']}" for label in trees)
    if "change_over_parent" in imports:
        ratio = imports["change_over_parent"]
        line += f"  ratio {ratio['median']:.3f} [{ratio['q1']:.3f}, {ratio['q3']:.3f}]"
    print(f"{'import ligi.cli':30s} {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
