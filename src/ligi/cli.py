"""Command-line front end: run experiments, order studies and drift reports.

    ligi integrate --problem frb_s2 --scheme rkmk4 --h 0.05 --steps 200
    ligi order     --problem heavytop --scheme symplectic_theta --h-list 0.02,0.01,0.005 --T 0.2
    ligi drift     --preset heavytop-theta05

Every command runs on every problem and each of its schemes.  Trajectories
are written as CSV (full precision, deterministic for a given config and
seed); order and drift reports are printed as JSON.  An order study measures
the scheme against RKMK4 on the same problem at a finer step.

Exit codes: 2 configuration error, 3 solver divergence, 4 non-finite state or
invariant, 5 numerical-domain error (errors.DomainError: a closed form that is
undefined at the values the run reached; a smaller h usually avoids it).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import numbers
import sys
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .actions import QUAT_LEFT, FrozenFieldProblem
from .discrete_gradient import body_momentum, dg_step, free_rigid_body_quat
from .errors import DomainError, FixedPointDivergence, NonFiniteState
from .problems import (
    DuffingParams,
    StiefelFlowProblem,
    duffing_problem,
    free_rigid_body_s2,
    pca_gradient_problem,
    random_orthonormal,
    torus_descent_problem,
    torus_state,
)
from .steppers import (
    KUTTA4,
    Trajectory,
    cf4_step,
    convergence_study,
    drift_report,
    heun_step,
    integrate,
    lie_euler_step,
    rkmk4_step,
    rkmk_step,
)
from .symplectic import HeavyTopParams, cotangent_step, heavy_top


@dataclass
class RunConfig:
    """Everything a run needs; unset fields fall back to preset/config values."""

    command: str = "integrate"
    problem: str = None
    scheme: str = None
    h: float = None
    steps: int = None
    theta: float = 0.5
    series_order: int = 4
    seed: int = 0
    out: str = None
    h_list: tuple = None
    T: float = 2.0

    def validate(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; known: {sorted(PROBLEMS)}")
        if self.command in ("integrate", "drift"):
            if self.h is None or not (math.isfinite(self.h) and self.h > 0.0):
                raise ConfigError("h must be positive and finite")
            if self.steps is None or self.steps < 1:
                raise ConfigError("steps must be >= 1")
        if self.command == "order":
            if self.h_list is None or len(self.h_list) < 3:
                raise ConfigError("order needs at least 3 step sizes (--h-list)")
            if not all(math.isfinite(h) and h > 0.0 for h in self.h_list):
                raise ConfigError("step sizes in --h-list must be positive and finite")
            # T / h > 0.5 is round(T / h) >= 1 for the largest h; round(inf) would raise
            if self.T is None or not (math.isfinite(self.T)
                                      and self.T / max(self.h_list) > 0.5):
                raise ConfigError("T must be finite and give at least one step"
                                  " of the largest step size")
        if self.theta is None or not math.isfinite(self.theta):
            raise ConfigError("theta must be finite")


class ConfigError(ValueError):
    pass


PRESETS = {
    "heavytop-theta0": dict(problem="heavytop", scheme="symplectic_theta",
                            theta=0.0, h=0.05, steps=10000),
    "heavytop-theta05": dict(problem="heavytop", scheme="symplectic_theta",
                             theta=0.5, h=0.05, steps=10000),
    "heavytop-rkmk-theta0": dict(problem="heavytop", scheme="rkmk_theta",
                                 theta=0.0, h=0.05, steps=10000),
    "heavytop-rkmk-theta05": dict(problem="heavytop", scheme="rkmk_theta",
                                  theta=0.5, h=0.05, steps=10000),
    "frb-s3-dg": dict(problem="frb_s3", scheme="dg", h=1.0 / 64.0, steps=10000),
    "frb-s3-heun": dict(problem="frb_s3", scheme="heun_rkmk", h=1.0 / 64.0,
                        steps=10000),
    "frb-s2-rkmk4": dict(problem="frb_s2", scheme="rkmk4", h=0.05, steps=1000),
    "duffing-sl2-lie-euler": dict(problem="duffing_sl2", scheme="lie_euler",
                                  h=0.01, steps=2000),
    "torus-descent": dict(problem="torus", scheme="lie_euler", h=0.02, steps=2000),
    "stiefel-pca": dict(problem="stiefel_pca", scheme="cf4", h=0.05, steps=600),
}

ACTION_STEPS = {
    "lie_euler": (lie_euler_step, {}),
    "heun_rkmk": (heun_step, {"variant": "rkmk"}),
    "heun_cg_left": (heun_step, {"variant": "cg_left"}),
    "heun_cg_right": (heun_step, {"variant": "cg_right"}),
    "rkmk": (rkmk_step, {"tableau": KUTTA4}),
    "rkmk4": (rkmk4_step, {}),
    "cf4": (cf4_step, {}),
}


def _action_schemes(problem, config):
    """The make_step of every ACTION_STEPS scheme on problem; each reads the table when called."""

    def make_step(name):
        function, kwargs = ACTION_STEPS[name]
        if name == "rkmk":
            kwargs = {**kwargs, "series_order": config.series_order}
        return partial(function, problem, **kwargs)

    return {name: partial(make_step, name) for name in ACTION_STEPS}


def _setup(config, problem, state0, labels, schemes=None):
    """The run of config.scheme as dict(state0, labels, invariants, problem, make_step).

    schemes maps each scheme name of the problem to its make_step (by default
    _action_schemes); an unknown scheme raises ConfigError listing the names.
    """
    schemes = schemes or _action_schemes(problem, config)
    if config.scheme not in schemes:
        raise ConfigError(f"scheme {config.scheme!r} not available for {config.problem!r};"
                          f" choose from {sorted(schemes)}")
    return dict(state0=state0, labels=labels, invariants=problem.invariants,
                problem=problem, make_step=schemes[config.scheme])


def _problem_duffing(frame, config):
    problem = duffing_problem(DuffingParams(1.0, 1.0), frame)
    return _setup(config, problem, np.array([0.75, 0.75]), ["x", "y"])


def _problem_frb_s2(config):
    problem = free_rigid_body_s2(1.0, 5.0, 60.0)
    state0 = np.array([np.cos(1.1), 0.0, np.sin(1.1)])
    return _setup(config, problem, state0, ["m1", "m2", "m3"])


def _problem_torus(config):
    return _setup(config, torus_descent_problem(), torus_state(0.3, 1.2),
                  ["u1", "u2", "v1", "v2"])


def _problem_stiefel(config):
    flow = StiefelFlowProblem(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]), k=2)
    q0 = random_orthonormal(flow.n, flow.k, config.seed)
    labels = [f"q{i + 1}{j + 1}" for i in range(flow.n) for j in range(flow.k)]
    return _setup(config, pca_gradient_problem(flow), q0, labels)


def _problem_heavytop(config):
    params = HeavyTopParams.benchmark()
    system = heavy_top(params)
    schemes = {name: partial(cotangent_step, system, name, theta=config.theta)
               for name in ("symplectic_theta", "rkmk_theta")}
    labels = [f"g{i + 1}{j + 1}" for i in range(3) for j in range(3)] + ["mu1", "mu2", "mu3"]
    return _setup(config, system.cotangent_problem, params.state0, labels, schemes)


def _problem_frb_s3(config):
    inertia = np.array([1.0, 5.0, 60.0])
    m0 = np.array([1.0, 0.5, -1.0]) / inertia  # body momentum with I*m0 = (1, 1/2, -1)
    system = free_rigid_body_quat(inertia, m0)
    invariants = (
        ("energy", system.energy),
        ("norm", lambda q: float(np.linalg.norm(q))),
        ("momentum_norm", lambda q: float(np.linalg.norm(body_momentum(q, m0)))),
    )
    problem = FrozenFieldProblem(action=QUAT_LEFT, coefficient_map=system.field,
                                 invariants=invariants)
    schemes = _action_schemes(problem, config)
    schemes["dg"] = lambda: partial(dg_step, system)
    schemes["dg_avf"] = lambda: partial(dg_step, system, tdd="avf")
    return _setup(config, problem, np.array([1.0, 0.0, 0.0, 0.0]),
                  ["q0", "q1", "q2", "q3"], schemes)


# Every builder maps a RunConfig to dict(state0, labels, invariants, problem,
# make_step): make_step() returns a fresh one-step map step(y, h) of
# config.scheme, and problem is the FrozenFieldProblem of the same ODE on which
# cmd_order runs its reference.
PROBLEMS = {
    "duffing_r2": partial(_problem_duffing, "r2"),
    "duffing_sl2": partial(_problem_duffing, "sl2"),
    "duffing_se2": partial(_problem_duffing, "se2"),
    "frb_s2": _problem_frb_s2,
    "torus": _problem_torus,
    "stiefel_pca": _problem_stiefel,
    "heavytop": _problem_heavytop,
    "frb_s3": _problem_frb_s3,
}


def _flatten_state(state):
    if isinstance(state, tuple):
        return np.concatenate([np.ravel(np.asarray(part, float)) for part in state])
    return np.ravel(np.asarray(state, float))


def run_trajectory(config: RunConfig) -> tuple[Trajectory, list]:
    """Execute the configured run; returns the trajectory and state labels."""
    setup = PROBLEMS[config.problem](config)
    traj = integrate(setup["make_step"](), setup["state0"], config.h, config.steps,
                     setup["invariants"])
    return traj, setup["labels"]


# Rows per block of write_csv: few enough that a block's text stays small.
CSV_BLOCK_ROWS = 256


def write_csv(traj: Trajectory, labels, stream):
    """Write t, the flattened state and the invariants, one row per time.

    Every value is written as "%.17g".  Rows are formatted and written in
    blocks of CSV_BLOCK_ROWS, each block one float array read with tolist().
    """
    names = list(traj.invariants)
    stream.write(",".join(["t", *labels, *names]) + "\n")
    for start in range(0, len(traj.times), CSV_BLOCK_ROWS):
        rows = slice(start, start + CSV_BLOCK_ROWS)
        block = np.column_stack([traj.times[rows],
                                 [_flatten_state(y) for y in traj.states[rows]],
                                 *(traj.invariants[name][rows] for name in names)])
        row = ",".join(["%.17g"] * block.shape[1]) + "\n"
        stream.write("".join([row % tuple(values) for values in block.tolist()]))


def cmd_integrate(config: RunConfig) -> int:
    traj, labels = run_trajectory(config)
    with open(config.out, "w") if config.out else contextlib.nullcontext(sys.stdout) as fh:
        write_csv(traj, labels, fh)
    return 0


def write_json(report, config: RunConfig) -> int:
    """Print the report, headed by the problem and scheme, as JSON; also to config.out when set."""
    text = json.dumps({"problem": config.problem, "scheme": config.scheme, **report}, indent=2)
    print(text)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def cmd_drift(config: RunConfig) -> int:
    traj, _ = run_trajectory(config)
    if not traj.invariants:
        raise ConfigError("drift needs a problem exposing at least one invariant")
    return write_json({"T": float(traj.times[-1]), "invariants": drift_report(traj)}, config)


def cmd_order(config: RunConfig) -> int:
    setup = PROBLEMS[config.problem](config)
    slope, errors = convergence_study(setup["make_step"], setup["problem"], setup["state0"],
                                      config.T, list(config.h_list))
    return write_json({"slope": slope, "h_list": list(config.h_list), "errors": errors},
                      config)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ligi",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="presets: " + ", ".join(sorted(PRESETS)),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("integrate", "order", "drift"):
        p = sub.add_parser(name)
        p.add_argument("--problem", help=f"one of {sorted(PROBLEMS)}")
        p.add_argument("--scheme")
        p.add_argument("--h", type=float)
        p.add_argument("--steps", type=int)
        p.add_argument("--theta", type=float)
        p.add_argument("--series-order", dest="series_order", type=int)
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--config", help="JSON file with config values")
        p.add_argument("--out", help="output path (CSV or JSON)")
        p.add_argument("--seed", type=int)
        if name == "order":
            p.add_argument("--h-list", dest="h_list",
                           help="comma-separated decreasing step sizes")
            p.add_argument("--T", type=float)
    return parser


def _real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_config_file(values):
    """Reject config-file values of the wrong type; argparse types the flags."""
    if not isinstance(values, dict):
        raise ConfigError("a config file must hold a JSON object")
    for name in ("h", "T", "theta"):
        if values.get(name) is not None and not _real(values[name]):
            raise ConfigError(f"{name} must be a number, got {values[name]!r}")
    for name in ("steps", "series_order", "seed"):
        value = values.get(name)
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for name in ("problem", "scheme", "out"):
        if values.get(name) is not None and not isinstance(values[name], str):
            raise ConfigError(f"{name} must be a string, got {values[name]!r}")
    h_list = values.get("h_list")
    if h_list is not None and not (isinstance(h_list, list) and all(map(_real, h_list))):
        raise ConfigError(f"h_list must be a list of numbers, got {h_list!r}")
    return values


def _assemble_config(args) -> RunConfig:
    values = {}
    if args.preset:
        values.update(PRESETS[args.preset])
    if args.config:
        with open(args.config) as fh:
            values.update(_check_config_file(json.load(fh)))
    for name in ("problem", "scheme", "h", "steps", "theta", "series_order", "seed", "out", "T"):
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    if getattr(args, "h_list", None) is not None:
        values["h_list"] = args.h_list.split(",")
    if values.get("h_list") is not None:
        values["h_list"] = tuple(float(x) for x in values["h_list"])
    unknown = set(values) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    config = RunConfig(command=args.command, **values)
    config.validate()
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _assemble_config(args)
        if args.command == "integrate":
            return cmd_integrate(config)
        if args.command == "order":
            return cmd_order(config)
        return cmd_drift(config)
    except DomainError as exc:  # a ValueError: caught before the config errors
        print(f"numerical domain error: {exc}", file=sys.stderr)
        return 5
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FixedPointDivergence as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return 3
    except NonFiniteState as exc:
        print(f"non-finite state: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
