"""Every call the benchmark makes into ligi, and every name its traced run patches.

The rest of the benchmark reaches ligi only through this module, so a change to
ligi's public surface (a renamed step function, a moved factory) is absorbed
here.  The untraced run uses the call wrappers only; the hook tables at the end
are read by ``tracing.py`` alone.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

import ligi
from ligi import cli, discrete_gradient, symplectic


def check_source(root):
    """Refuse to measure a ligi that is not the one under ``root/src``."""
    src = os.path.realpath(os.path.join(root, "src"))
    found = os.path.realpath(ligi.__file__)
    if not found.startswith(src + os.sep):
        raise RuntimeError(f"ligi imported from {found}, expected it under {src}")


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------

def run_cli(argv):
    """Run ``ligi <argv>`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def heavy_top():
    """The benchmark heavy top: (system, inertia)."""
    params = symplectic.HeavyTopParams.benchmark()
    return symplectic.heavy_top(params), params.inertia


# The quaternion free rigid body of the frb-s3 presets: I = (1, 5, 60), I m0 = (1, 1/2, -1).
FRB_S3_INERTIA = np.array([1.0, 5.0, 60.0])
FRB_S3_M0 = np.array([1.0, 0.5, -1.0]) / FRB_S3_INERTIA


def frb_s3():
    return discrete_gradient.free_rigid_body_quat(FRB_S3_INERTIA, FRB_S3_M0)


def theta_step(system, state, h):
    """Symplectic theta = 1/2 step with a fresh solver."""
    return symplectic.theta_step(0.5, system, state, h)


def rkmk_theta_step(system, state, h):
    """RKMK theta = 1/2 step with a fresh solver."""
    return symplectic.rkmk_theta_step(0.5, system, state, h)


def dg_step(system, q, h):
    """Energy-preserving discrete-differential step (Gonzalez differential)."""
    return discrete_gradient.dg_step(system, q, h)


# ---------------------------------------------------------------------------
# Hook tables for the traced run: (module, name) where the name is looked up
# ---------------------------------------------------------------------------

# Plain functions, patched in the namespace that calls them.
HOOK_FUNCTIONS = (
    ("ligi.cli", "main"),
    ("ligi.cli", "run_trajectory"),
    ("ligi.cli", "write_csv"),
    ("ligi.cli", "dg_step"),
    ("ligi.cli", "integrate"),
    ("ligi.cli", "integrate_cotangent"),
    ("ligi.cli", "convergence_study"),
    ("ligi.steppers", "rkmk4_step"),  # convergence_study's reference step
    ("ligi.symplectic", "theta_step"),
    ("ligi.symplectic", "rkmk_theta_step"),
    ("ligi.symplectic", "dexpinv_series"),
    ("ligi.symplectic", "lu_factor"),
    ("ligi.symplectic", "lu_solve"),
    ("ligi.discrete_gradient", "dg_step"),
    ("ligi.discrete_gradient", "two_form_matrix"),
    ("ligi.discrete_gradient", "trivialized_differential"),
    ("ligi.liealg", "quat_mul"),
    ("scipy.linalg", "expm"),  # liealg calls it as scipy.linalg.expm
)

# Classes whose public methods (and those of every subclass) are patched.
HOOK_CLASSES = (
    ("ligi.liealg", "GroupOps"),
    ("ligi.actions", "GroupAction"),
)

# The implicit solver; its solve() also counts residual evaluations and reuse.
HOOK_SOLVER = ("ligi.symplectic", "ImplicitSolver")

# Dispatch tables of (step function, kwargs) pairs.
HOOK_STEP_TABLES = (
    ("ligi.cli", "ACTION_STEPS"),
)

# Problem factories; the callables of the object they return get wrapped.
HOOK_FACTORIES = (
    ("ligi.cli", "duffing_problem", ("coefficient_map",), "invariants"),
    ("ligi.cli", "free_rigid_body_s2", ("coefficient_map",), "invariants"),
    ("ligi.cli", "torus_descent_problem", ("coefficient_map",), "invariants"),
    ("ligi.cli", "pca_gradient_problem", ("coefficient_map",), "invariants"),
    ("ligi.cli", "free_rigid_body_quat",
     ("field", "energy", "energy_differential"), None),
    ("ligi.discrete_gradient", "free_rigid_body_quat",
     ("field", "energy", "energy_differential"), None),
    ("ligi.cli", "heavy_top", ("hamiltonian", "force_map"), None),
    ("ligi.symplectic", "heavy_top", ("hamiltonian", "force_map"), None),
)
