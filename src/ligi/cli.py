"""Command-line front end: run experiments, order studies and drift reports.

    ligi integrate --problem frb_s2 --scheme rkmk4 --h 0.05 --steps 200
    ligi order     --problem heavytop --scheme symplectic_theta --h-list 0.02,0.01,0.005 --T 0.2
    ligi drift     --preset heavytop-theta05

Every command runs on every problem and each of its schemes.  Trajectories
are written as CSV (full precision, deterministic for a given config and
seed); order and drift reports are printed as JSON.  An order study measures
the scheme against RKMK4 on the same problem at a finer step.

Exit codes: 2 configuration error (ConfigError, raised before the run starts)
or an unreadable or unwritable file, 3 solver divergence, 4 non-finite state or
invariant, 5 numerical-domain error (errors.DomainError: a closed form that is
undefined at the values the run reached, which a smaller h usually avoids, or
a drift fit over times whose squares underflow).  Any other exception, exit 1
with a traceback, is a defect, not a bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .actions import QUAT_LEFT, FrozenFieldProblem
from .discrete_gradient import body_momentum, dg_step, free_rigid_body_quat
from .errors import DomainError, FixedPointDivergence, NonFiniteState
from .liealg import MAX_SERIES_ORDER
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
    REFERENCE_REFINEMENT,
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


class ConfigError(ValueError):
    pass


# Largest step count of a run, and of an order study's reference run.  A
# trajectory keeps every state in memory, so a longer run would not fit; far
# past it, even the time grid cannot be allocated.
MAX_STEPS = 10**8


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


def _norm(v):
    """Euclidean norm of a short vector on floats, as sqrt(v . v) without numpy's dispatch."""
    return math.sqrt(sum([x * x for x in np.asarray(v, dtype=float).tolist()]))


def _problem_frb_s3(config):
    inertia = np.array([1.0, 5.0, 60.0])
    m0 = np.array([1.0, 0.5, -1.0]) / inertia  # body momentum with I*m0 = (1, 1/2, -1)
    system = free_rigid_body_quat(inertia, m0)
    invariants = (
        ("energy", system.energy),
        ("norm", _norm),
        ("momentum_norm", lambda q: _norm(body_momentum(q, m0))),
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


@dataclass
class RunConfig:
    """Everything a run needs.  Every field but command is an option: the flag
    --name (_ as -) and the config-file key name, typed by its annotation
    (OPTION_TYPES); metadata gives a flag's help and limits it to one command.
    """

    command: str = "integrate"
    problem: str = field(default=None, metadata={"help": f"one of {sorted(PROBLEMS)}"})
    scheme: str = None
    h: float = None
    steps: int = None
    theta: float = 0.5
    series_order: int = field(default=4, metadata={
        "help": "order of the dexpinv series of --scheme rkmk; no effect on frb_s2 and"
                " frb_s3, whose so(3) and S^3 closed forms are exact"})
    seed: int = 0
    out: str = field(default=None, metadata={"help": "output path (CSV or JSON)"})
    h_list: tuple = field(default=None, metadata={
        "command": "order", "help": "comma-separated decreasing step sizes"})
    T: float = field(default=2.0, metadata={"command": "order"})

    def validate(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; known: {sorted(PROBLEMS)}")
        if self.command in ("integrate", "drift"):
            if self.h is None or not (math.isfinite(self.h) and self.h > 0.0):
                raise ConfigError("h must be positive and finite")
            if self.steps is None or not 1 <= self.steps <= MAX_STEPS:
                raise ConfigError(f"steps must be in 1..{MAX_STEPS} (MAX_STEPS)")
        if self.command == "order":
            if self.h_list is None or len(self.h_list) < 3:
                raise ConfigError("order needs at least 3 step sizes (--h-list)")
            if not all(math.isfinite(h) and h > 0.0 for h in self.h_list):
                raise ConfigError("step sizes in --h-list must be positive and finite")
            if any(h2 >= h1 for h1, h2 in zip(self.h_list, self.h_list[1:])):
                raise ConfigError("step sizes in --h-list must be strictly decreasing")
            # T / h > 0.5 is round(T / h) >= 1 for the largest h; round(inf) would raise
            if not (math.isfinite(self.T) and self.T / max(self.h_list) > 0.5):
                raise ConfigError("T must be finite and give at least one step"
                                  " of the largest step size")
            h_ref = self.h_list[-1] / REFERENCE_REFINEMENT  # the reference step; may underflow
            if not (h_ref > 0.0 and self.T / h_ref <= MAX_STEPS):
                raise ConfigError("T / min(h_list) too large: the reference run of"
                                  f" {REFERENCE_REFINEMENT} T / min(h_list) steps must be"
                                  f" at most {MAX_STEPS} (MAX_STEPS)")
        if not math.isfinite(self.theta):
            raise ConfigError("theta must be finite")
        if not 0 <= self.series_order <= MAX_SERIES_ORDER:
            raise ConfigError(f"series_order must be in 0..{MAX_SERIES_ORDER}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


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
    h_list = [float(h) for h in config.h_list]  # a config file may give integers
    slope, errors = convergence_study(setup["make_step"], setup["problem"], setup["state0"],
                                      config.T, h_list)
    return write_json({"slope": slope, "h_list": h_list, "errors": errors}, config)


COMMANDS = {"integrate": cmd_integrate, "order": cmd_order, "drift": cmd_drift}


def _real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(value):
    """A real that float() takes: a JSON integer can be past float's range."""
    if not _real(value):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _float_tuple(text):
    return tuple(float(x) for x in text.split(","))


# Per RunConfig annotation (a string: annotations here are not evaluated): the
# flag's argparse type, the config-file value check, and what the check wants.
OPTION_TYPES = {
    "str": (str, lambda value: isinstance(value, str), "a string"),
    "float": (float, _number, "a number in float range"),
    "int": (int, lambda value: _real(value) and isinstance(value, numbers.Integral), "an integer"),
    "tuple": (_float_tuple, lambda value: isinstance(value, list) and all(map(_number, value)),
              "a list of numbers in float range"),
}

OPTIONS = {f.name: f for f in fields(RunConfig) if f.name != "command"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ligi",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="presets: " + ", ".join(sorted(PRESETS)),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        for option in OPTIONS.values():
            if option.metadata.get("command", command) == command:
                p.add_argument("--" + option.name.replace("_", "-"),
                               type=OPTION_TYPES[option.type][0],
                               help=option.metadata.get("help"))
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--config", help="JSON file with config values")
    return parser


def _check_config_file(path):
    """The config file's values, each of its option's type; argparse types the flags."""
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("a config file must hold a JSON object")
    unknown = sorted(set(values) - set(OPTIONS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    for name, value in values.items():
        _, check, wanted = OPTION_TYPES[OPTIONS[name].type]
        if not check(value):
            raise ConfigError(f"{name} must be {wanted}, got {value!r}")
    return values


def _assemble_config(args) -> RunConfig:
    """The preset, then the config file, then every flag that is set; validated."""
    values = dict(PRESETS[args.preset]) if args.preset else {}
    if args.config:
        values.update(_check_config_file(args.config))
    values.update((name, getattr(args, name)) for name in OPTIONS
                  if getattr(args, name, None) is not None)
    config = RunConfig(command=args.command, **values)
    config.validate()
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](_assemble_config(args))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FixedPointDivergence as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return 3
    except NonFiniteState as exc:
        print(f"non-finite state: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"numerical domain error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
