"""The four workloads: what one pass runs, and how each output is checked.

Every workload is a closed loop with one caller: an operation starts when the
previous one has returned.  A pass is a fixed list of operations; a timed run
repeats passes, and a traced run makes exactly one (pass 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import ligi_api as api


@dataclass(frozen=True)
class CliOp:
    """One ``ligi`` command line, timed as a whole; ``steps`` integration steps."""

    label: str
    argv: tuple
    steps: int
    check: Callable  # (exit code, stdout) -> reason or None

    def execute(self, timed):
        (code, out, _), dt = timed(api.run_cli, list(self.argv))
        return [(self.label, dt, self.steps)], self.check(code, out)


@dataclass(frozen=True)
class ColdOp:
    """One implicit step forward from a fresh state and one back, each timed."""

    label: str
    step: Callable
    system: object
    state: object
    h: float
    check: Callable  # (start, forward, back) -> reason or None

    def execute(self, timed):
        forward, t_fwd = timed(self.step, self.system, self.state, self.h)
        back, t_back = timed(self.step, self.system, forward, -self.h)
        return ([(f"{self.label}/fwd", t_fwd, 1), (f"{self.label}/back", t_back, 1)],
                self.check(self.state, forward, back))


def _trajectory(label, preset, steps, check, *extra, reduce=True):
    argv = ("integrate", "--preset", preset) + tuple(extra)
    if reduce:
        argv += ("--steps", str(steps))
    return CliOp(label, argv, steps,
                 lambda code, out: checks.check_trajectory(check, steps, code, out))


class HeavytopWarm:
    """The four heavy-top presets at 1000 steps, each reusing one solver."""

    PER_SOLVE = False
    why = ("Newton solves in symplectic through semidirect and so(3) liealg, "
           "warm-started and reusing the Jacobian along each run")
    STEPS = 1000
    DRIFT = (("heavytop-theta05", "no-drift"), ("heavytop-theta0", "no-drift"),
             ("heavytop-rkmk-theta05", "no-drift"), ("heavytop-rkmk-theta0", "drift"))

    def __init__(self, seed):
        self.ops = [_trajectory(p, p, self.STEPS, f"heavytop:{expected}")
                    for p, expected in self.DRIFT]

    def make_pass(self, index):
        return self.ops


class FrbS3:
    """Energy-preserving dg steps and the explicit Heun comparator on S^3."""

    PER_SOLVE = False
    why = ("fixed-point discrete-gradient steps on quaternion liealg primitives, "
           "with explicit Heun on the same primitives as comparator")
    STEPS = 1000

    def __init__(self, seed):
        self.ops = [_trajectory("frb-s3-dg", "frb-s3-dg", self.STEPS, "frb-s3-dg"),
                    _trajectory("frb-s3-heun", "frb-s3-heun", self.STEPS, "frb-s3-heun")]

    def make_pass(self, index):
        return self.ops


# ligi order's reference run: rkmk4 at h_min / 20 (convergence_study's default).
ORDER_T = 2.0
ORDER_H = (0.1, 0.05, 0.025, 0.0125)
ORDER_STEPS = round(ORDER_T / (ORDER_H[-1] / 20)) + sum(round(ORDER_T / h) for h in ORDER_H)


class ExplicitActions:
    """Explicit schemes on group actions, plus one order study."""

    PER_SOLVE = False
    why = ("explicit RKMK, CF and Lie-Euler steps through actions, problems and "
           "liealg exponentials (scipy expm on sl2 and Stiefel), plus CSV output")

    def __init__(self, seed):
        order_argv = ("order", "--problem", "frb_s2", "--scheme", "rkmk",
                      "--h-list", ",".join(str(h) for h in ORDER_H), "--T", str(ORDER_T))
        self.ops = [
            _trajectory("frb-s2-rkmk4", "frb-s2-rkmk4", 1000, "sphere", reduce=False),
            _trajectory("stiefel-pca", "stiefel-pca", 600, "stiefel",
                        "--seed", str(seed), reduce=False),
            _trajectory("torus-descent", "torus-descent", 2000, "torus", reduce=False),
            _trajectory("duffing-sl2-lie-euler", "duffing-sl2-lie-euler", 2000,
                        "finite", reduce=False),
            CliOp("order-frb_s2-rkmk", order_argv, ORDER_STEPS,
                  lambda code, out: checks.check_order(4, code, out)),
        ]

    def make_pass(self, index):
        return self.ops


def random_rotations(rng, n):
    """Haar-random rotation matrices from uniformly random unit quaternions."""
    q = rng.standard_normal((n, 4))
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=1).reshape(n, 3, 3)


class ImplicitCold:
    """Cold implicit steps (a fresh solver each) from seeded random states."""

    PER_SOLVE = True
    why = ("one theta, RKMK-theta or dg solve per step from a random state with a "
           "fresh solver: no warm start and no Jacobian reuse")
    PER_PASS = 100   # states per scheme in one pass: 600 solves
    POOL = 5000      # states per scheme drawn from the seed
    H_TOP = 0.05
    H_DG = 1.0 / 64.0

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.top, inertia = api.heavy_top()
        self.rotations = random_rotations(rng, self.POOL)
        self.momenta = inertia * rng.uniform(-15.0, 15.0, size=(self.POOL, 3))
        q = rng.standard_normal((self.POOL, 4))
        self.quats = q / np.linalg.norm(q, axis=1, keepdims=True)
        self.frb = api.frb_s3()

    def _dg_check(self, start, forward, back):
        return checks.check_quat_roundtrip(start, forward, back,
                                           api.FRB_S3_INERTIA, api.FRB_S3_M0)

    def make_pass(self, index):
        ops = []
        for k in range(self.PER_PASS):
            i = (index * self.PER_PASS + k) % self.POOL
            state = (self.rotations[i].copy(), self.momenta[i].copy())
            ops.append(ColdOp("theta", api.theta_step, self.top, state, self.H_TOP,
                              checks.check_cotangent_roundtrip))
            ops.append(ColdOp("rkmk_theta", api.rkmk_theta_step, self.top, state,
                              self.H_TOP, checks.check_cotangent_roundtrip))
            ops.append(ColdOp("dg", api.dg_step, self.frb, self.quats[i].copy(),
                              self.H_DG, self._dg_check))
        return ops


WORKLOADS = {
    "heavytop-warm": HeavytopWarm,
    "implicit-cold": ImplicitCold,
    "frb-s3": FrbS3,
    "explicit-actions": ExplicitActions,
}
