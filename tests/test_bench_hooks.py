"""The names the benchmark's traced run patches must exist in ligi.

bench/ligi_api.py lists every (module, name) that the traced benchmark wraps
to count work per layer.  The tables are read here and nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

import scipy.linalg

from ligi import symplectic

LIGI_API = Path(__file__).resolve().parent.parent / "bench" / "ligi_api.py"

# Hooked for an older layout; the traced run reports it as a missing hook.
RETIRED = {"ligi.cli.integrate_cotangent"}


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
