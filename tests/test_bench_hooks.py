"""The names the benchmark's traced run patches must exist in ligi.

bench/ligi_api.py lists every (module, name) that the traced benchmark wraps
to count work per layer.  The tables are read here, and patched only in a
child interpreter that checks every span pattern finds a hooked name.  The
traced run reads iteration counts from calls of hooked names, so later tests
check that each such name is called once per iteration.  The traced run
patches the names before it runs the CLI, so the last test checks that the
CLI looks them up when it runs, not when it is imported.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ligi import cli, discrete_gradient, steppers, symplectic
from ligi.errors import FixedPointDivergence

ROOT = Path(__file__).resolve().parent.parent
LIGI_API = ROOT / "bench" / "ligi_api.py"

# Hooked for an older layout; the traced run reports them as missing hooks.
RETIRED = {"ligi.cli.integrate_cotangent", "ligi.symplectic.dexpinv_series"}


def hook_tables():
    spec = importlib.util.spec_from_file_location("bench_ligi_api", LIGI_API)
    api = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(api)
    return api


def test_every_hook_target_resolves():
    api = hook_tables()
    targets = [*api.HOOK_FUNCTIONS, *api.HOOK_CLASSES, api.HOOK_SOLVER,
               *api.HOOK_STEP_TABLES, *((m, n) for m, n, *_ in api.HOOK_FACTORIES)]
    unresolved = []
    for module, name in targets:
        if f"{module}.{name}" in RETIRED:
            continue
        target = getattr(importlib.import_module(module), name, None)
        if isinstance(target, dict):  # a step table of (function, kwargs)
            ok = all(callable(fn) and isinstance(kw, dict) for fn, kw in target.values())
        else:
            ok = callable(target)
        if not ok:
            unresolved.append(f"{module}.{name}")
    assert unresolved == []
    assert callable(getattr(symplectic.ImplicitSolver, "solve", None))


def test_retired_hooks_are_gone_from_ligi_but_still_listed():
    api = hook_tables()
    listed = {f"{module}.{name}" for module, name in api.HOOK_FUNCTIONS}
    assert RETIRED <= listed
    for qualified in RETIRED:
        module, name = qualified.rsplit(".", 1)
        assert not hasattr(importlib.import_module(module), name), qualified


# Installs every hook in a fresh interpreter, so this process stays unpatched.
INSTALL_HOOKS = """
import json, re
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
print(json.dumps({
    "missing": tracer.missing,
    "unmatched": [key for key, pattern in tracing.PATTERNS.items()
                  if not any(re.match(pattern, name) for name in tracer.names)],
}))
"""


def test_every_span_pattern_matches_a_hooked_name():
    """A pattern that matches no hooked name drops its per-layer metrics from
    the traced result, which is then rejected as malformed."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", INSTALL_HOOKS], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["unmatched"] == []
    assert set(result["missing"]) == RETIRED


def test_solver_calls_scipy_lu_by_name():
    """The solver's LU calls must stay scipy's own lu_factor and lu_solve.

    The traced run counts Jacobian builds and Newton iterations by the span
    names scipy.lu_factor and scipy.lu_solve.  A solver that calls LAPACK
    directly still gives correct steps, but drops
    symplectic.jacobian_builds_per_solve, symplectic.newton_iters_per_solve
    and symplectic.jacobian_reuse_ratio from the traced result, and a result
    without every declared per-layer metric is rejected as malformed.
    """
    assert symplectic.lu_factor is scipy.linalg.lu_factor
    assert symplectic.lu_solve is scipy.linalg.lu_solve


ITERATIONS = 3


def test_dg_step_builds_one_two_form_per_iteration(monkeypatch):
    """discrete_gradient.iters_per_step counts calls of two_form_matrix."""
    calls = []
    two_form_matrix = discrete_gradient.two_form_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return two_form_matrix(*args, **kwargs)

    monkeypatch.setattr(discrete_gradient, "two_form_matrix", counted)
    monkeypatch.setattr(symplectic, "SOLVER_TOL", 0.0)  # never reached
    system = discrete_gradient.free_rigid_body_quat([1.0, 5.0, 60.0], [1.0, 0.1, -0.01])
    with pytest.raises(FixedPointDivergence):
        discrete_gradient.dg_step(system, np.array([1.0, 0.0, 0.0, 0.0]), 1 / 64,
                                  solver=symplectic.ImplicitSolver(max_iter=ITERATIONS))
    assert len(calls) == ITERATIONS


def test_dg_step_evaluates_one_differential_per_iteration(monkeypatch):
    """discrete_gradient.differential_evals_per_step counts calls of trivialized_differential."""
    calls = []
    trivialized_differential = discrete_gradient.trivialized_differential

    def counted(*args, **kwargs):
        calls.append(1)
        return trivialized_differential(*args, **kwargs)

    monkeypatch.setattr(discrete_gradient, "trivialized_differential", counted)
    monkeypatch.setattr(symplectic, "SOLVER_TOL", 0.0)  # never reached
    system = discrete_gradient.free_rigid_body_quat([1.0, 5.0, 60.0], [1.0, 0.1, -0.01])
    with pytest.raises(FixedPointDivergence):
        discrete_gradient.dg_step(system, np.array([1.0, 0.0, 0.0, 0.0]), 1 / 64,
                                  solver=symplectic.ImplicitSolver(max_iter=ITERATIONS))
    assert len(calls) == ITERATIONS


def test_fixed_point_evaluates_one_update_per_iteration():
    """The dg iterations the traced run counts are the moves of fixed_point."""
    calls = []

    def update(z):
        calls.append(1)
        return 0.9 * z + 1.0

    solver = symplectic.ImplicitSolver(max_iter=ITERATIONS)
    with pytest.raises(FixedPointDivergence):
        solver.fixed_point(update, np.zeros(2), 0.1, "no convergence")
    assert len(calls) == ITERATIONS


def test_dg_step_never_calls_solve(monkeypatch):
    """The traced run counts every ImplicitSolver.solve call into the
    symplectic.*_per_solve metrics; a dg step must add none."""
    calls = []
    solve = symplectic.ImplicitSolver.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(symplectic.ImplicitSolver, "solve", counted)
    system = discrete_gradient.free_rigid_body_quat([1.0, 5.0, 60.0], [1.0, 0.1, -0.01])
    discrete_gradient.dg_step(system, np.array([1.0, 0.0, 0.0, 0.0]), 1 / 64)
    assert calls == []


def _counted(fn, calls):
    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    return counted


INTEGRATE = ["integrate", "--h", "0.05", "--steps", "2"]
ORDER = ["order", "--h-list", "0.1,0.05,0.025", "--T", "0.1"]


@pytest.mark.parametrize("module, name, problem, scheme, commands", [
    (steppers, "rkmk4_step", "frb_s2", "lie_euler", [ORDER]),  # convergence_study's reference
    (cli, "ACTION_STEPS", "frb_s2", "lie_euler", [INTEGRATE, ORDER]),
    (cli, "dg_step", "frb_s3", "dg", [INTEGRATE, ORDER]),
    (symplectic, "theta_step", "heavytop", "symplectic_theta", [INTEGRATE, ORDER]),
], ids=["rkmk4_step", "ACTION_STEPS", "dg_step", "theta_step"])
def test_cli_reads_hooked_names_at_call_time(monkeypatch, capsys, module, name, problem,
                                             scheme, commands):
    # A CLI that bound one of these names at import would step past the wrapper.
    for command, *options in commands:
        calls = []
        if name == "ACTION_STEPS":  # a table entry, wrapped in place
            fn, kwargs = cli.ACTION_STEPS[scheme]
            monkeypatch.setitem(cli.ACTION_STEPS, scheme, (_counted(fn, calls), kwargs))
        else:
            monkeypatch.setattr(module, name, _counted(getattr(module, name), calls))
        argv = [command, "--problem", problem, "--scheme", scheme, *options]
        assert cli.main(argv) == 0
        assert calls, f"ligi {' '.join(argv)} never called the hooked {name}"
        monkeypatch.undo()
