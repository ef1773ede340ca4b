"""Outside-in tracing of ligi for the benchmark's traced run.

``install(tracer)`` replaces the names listed in ``ligi_api``'s hook tables with
wrappers that record one span per call: name, start, end, parent span and
operation id, in flat arrays kept in memory until the run ends.  A span's
layer is the ligi module that defines the called code (``scipy`` for scipy
functions, ``bench`` for the benchmark's own root spans).  Self time is a
span's duration minus the durations of its direct children; in a
single-threaded run the children never overlap, so the self times of all
spans add up to the durations of the root spans.

A hook whose target has gone is recorded in ``tracer.missing``, and every
metric that needs it is left out of the report rather than read as zero.
"""

from __future__ import annotations

import dataclasses
import importlib
import re
import time
from array import array

import numpy as np

import ligi_api


def _layer(module_name):
    if module_name.startswith("ligi."):
        return module_name[len("ligi."):]
    return module_name.split(".")[0]


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        self.layers = []         # layer per name id
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = [-1]
        self.solves = []         # (op, rebuilt the Jacobian, raised) per solve
        self.missing = []

    def set_op(self, index):
        self._op[0] = index

    def intern(self, name, layer):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def wrap(self, fn, name, layer):
        nid = self.intern(name, layer)
        name_id, parent, op, start, end = \
            self.name_id, self.parent, self.op, self.start, self.end
        stack, current_op, clock = self._stack, self._op, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(current_op[0])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- analysis ----------------------------------------------------------
    def arrays(self):
        dur = np.frombuffer(self.end, float) - np.frombuffer(self.start, float)
        parent = np.frombuffer(self.parent, np.int32)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        return dict(name_id=np.frombuffer(self.name_id, np.int32),
                    op=np.frombuffer(self.op, np.int32), parent=parent,
                    dur=dur, self_time=dur - children)

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(self.layers),
            name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            op=np.frombuffer(self.op, np.int32),
            start=np.frombuffer(self.start, float),
            end=np.frombuffer(self.end, float))


# ---------------------------------------------------------------------------
# Installing hooks
# ---------------------------------------------------------------------------

def _resolve(module):
    try:
        return importlib.import_module(module), True
    except ImportError:
        return None, False


def _hook_function(tracer, module, name):
    mod, ok = _resolve(module)
    fn = getattr(mod, name, None) if ok else None
    if not callable(fn):
        tracer.missing.append(f"{module}.{name}")
        return
    layer = _layer(getattr(fn, "__module__", None) or module)
    setattr(mod, name, tracer.wrap(fn, f"{layer}.{name}", layer))


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def _hook_class(tracer, module, name):
    mod, ok = _resolve(module)
    base = getattr(mod, name, None) if ok else None
    if not isinstance(base, type):
        tracer.missing.append(f"{module}.{name}")
        return
    for cls in _subclasses(base):
        for attr, fn in list(vars(cls).items()):
            if attr.startswith("_") or not callable(fn) or isinstance(fn, type) \
                    or isinstance(fn, (staticmethod, classmethod)):
                continue
            layer = _layer(cls.__module__)
            setattr(cls, attr, tracer.wrap(fn, f"{layer}.{cls.__name__}.{attr}", layer))


def _hook_solver(tracer, module, name):
    mod, ok = _resolve(module)
    cls = getattr(mod, name, None) if ok else None
    solve = getattr(cls, "solve", None)
    if not callable(solve):
        tracer.missing.append(f"{module}.{name}.solve")
        return
    layer = _layer(cls.__module__)
    residual_name = f"{layer}.{name}.residual"
    tracer.intern(residual_name, layer)
    lu = tracer._ids.get("scipy.lu_factor", -1)  # hooked before this, if present
    name_id, solves, current_op = tracer.name_id, tracer.solves, tracer._op

    def counted_solve(solver, residual, *args, **kwargs):
        first = len(name_id)
        try:
            result = solve(solver, tracer.wrap(residual, residual_name, layer),
                           *args, **kwargs)
        except Exception:
            solves.append((current_op[0], lu in name_id[first:], True))
            raise
        solves.append((current_op[0], lu in name_id[first:], False))
        return result

    cls.solve = tracer.wrap(counted_solve, f"{layer}.{name}.solve", layer)


def _hook_step_table(tracer, module, name):
    mod, ok = _resolve(module)
    table = getattr(mod, name, None) if ok else None
    if not isinstance(table, dict):
        tracer.missing.append(f"{module}.{name}")
        return
    for key, (fn, kwargs) in list(table.items()):
        layer = _layer(fn.__module__)
        table[key] = (tracer.wrap(fn, f"{layer}.{fn.__name__}", layer), kwargs)


def _hook_factory(tracer, module, name, fields, invariants):
    mod, ok = _resolve(module)
    factory = getattr(mod, name, None) if ok else None
    if not callable(factory):
        tracer.missing.append(f"{module}.{name}")
        return
    layer = _layer(factory.__module__)
    prefix = f"{layer}.{name}"
    for field in fields:
        tracer.intern(f"{prefix}.{field}", layer)
    if invariants:
        tracer.intern(f"{prefix}.invariant", layer)

    def wrapped_factory(*args, **kwargs):
        made = factory(*args, **kwargs)
        changes = {f: tracer.wrap(getattr(made, f), f"{prefix}.{f}", layer)
                   for f in fields if getattr(made, f, None) is not None}
        if invariants:
            changes[invariants] = tuple(
                (inv_name, tracer.wrap(fn, f"{prefix}.invariant", layer))
                for inv_name, fn in getattr(made, invariants))
        return dataclasses.replace(made, **changes)

    setattr(mod, name, wrapped_factory)


def install(tracer):
    """Patch every hook target; missing targets are noted, not fatal."""
    for module, name in ligi_api.HOOK_FUNCTIONS:
        _hook_function(tracer, module, name)
    for module, name in ligi_api.HOOK_CLASSES:
        _hook_class(tracer, module, name)
    _hook_solver(tracer, *ligi_api.HOOK_SOLVER)
    for module, name in ligi_api.HOOK_STEP_TABLES:
        _hook_step_table(tracer, module, name)
    for spec in ligi_api.HOOK_FACTORIES:
        _hook_factory(tracer, *spec)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

LAYERS = ("bench", "cli", "problems", "steppers", "actions", "liealg",
          "semidirect", "symplectic", "discrete_gradient", "scipy")

# Span-name patterns for the counts the report is built from.
PATTERNS = {
    "field_evals": r"problems\..*\.coefficient_map$",
    "invariant_evals": r"problems\..*\.invariant$",
    "step_calls": r"steppers\.\w+_step$",
    "action_apply": r"actions\.\w+\.apply$",
    "liealg_exp": r"liealg\.\w+Ops\.exp$",
    "liealg_dexp_family": r"liealg\.(\w+Ops\.(dexp|dexpinv|dual_dexp|dual_dexpinv)"
                          r"|dexpinv_series)$",
    "liealg_calls": r"liealg\.",
    "quat_mul": r"liealg\.quat_mul$",
    "scipy_expm": r"scipy\.expm$",
    "semidirect_exp": r"semidirect\.CotangentOps\.exp$",
    "solves": r"symplectic\.ImplicitSolver\.solve$",
    "residual_evals": r"symplectic\.ImplicitSolver\.residual$",
    "jacobian_builds": r"scipy\.lu_factor$",
    "newton_iters": r"scipy\.lu_solve$",
    "dg_steps": r"discrete_gradient\.dg_step$",
    "fixed_point_iters": r"discrete_gradient\.two_form_matrix$",
    "differential_evals": r"discrete_gradient\.trivialized_differential$",
    "csv": r"cli\.write_csv$",
}


def _name_sets(tracer):
    return {key: [i for i, n in enumerate(tracer.names) if re.match(p, n)]
            for key, p in PATTERNS.items()}


def summarize(tracer, op_labels, op_steps):
    """Counts and self times of one traced pass.

    op_labels/op_steps give, per operation index, its label and its number of
    integration steps (solves, on the implicit-cold workload).  Returns
    (per-layer metrics, per-label counts per step, consistency figures).
    """
    a = tracer.arrays()
    keep = a["op"] >= 0  # spans outside any operation (set-up) are not counted
    a = {key: value[keep] for key, value in a.items()}
    sets = _name_sets(tracer)
    n_ops = len(op_labels)
    ops = a["op"]
    n_names = len(tracer.names)
    # calls[op, name_id]
    calls = np.zeros((n_ops, max(n_names, 1)))
    np.add.at(calls, (ops, a["name_id"]), 1)
    layer_of = np.array([LAYERS.index(l) if l in LAYERS else -1
                         for l in tracer.layers] or [-1])
    span_layer = layer_of[a["name_id"]] if len(a["name_id"]) else a["name_id"]
    self_by_layer = {layer: float(a["self_time"][span_layer == i].sum())
                     for i, layer in enumerate(LAYERS)}
    present_layers = {tracer.layers[i] for i in range(n_names)}

    def count(key, rows=slice(None)):
        return float(calls[rows][:, sets[key]].sum()) if sets[key] else None

    steps = float(sum(op_steps))
    solve_rows = [row for row in tracer.solves if row[0] >= 0]
    n_solves = len(solve_rows)

    def ratio(num, den):
        if num is None:
            return None
        return num / den if den else 0.0

    m = {}

    def put(name, value, unit):
        if value is not None:
            m[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        if layer in present_layers:
            put(f"{layer}.self_s", self_by_layer[layer], "s")
    csv_ids = sets["csv"]
    if csv_ids:
        put("cli.csv_s", float(a["dur"][np.isin(a["name_id"], csv_ids)].sum()), "s")
    put("problems.field_evals_per_step", ratio(count("field_evals"), steps), "count/step")
    put("problems.invariant_evals_per_step", ratio(count("invariant_evals"), steps),
        "count/step")
    put("steppers.steps", count("step_calls"), "count")
    put("actions.apply_per_step", ratio(count("action_apply"), steps), "count/step")
    put("liealg.exp_per_step", ratio(count("liealg_exp"), steps), "count/step")
    put("liealg.dexp_family_per_step", ratio(count("liealg_dexp_family"), steps),
        "count/step")
    lie_calls = count("liealg_calls")
    put("liealg.calls_per_step", ratio(lie_calls, steps), "count/step")
    if lie_calls is not None and "liealg" in present_layers:
        put("liealg.us_per_call",
            1e6 * self_by_layer["liealg"] / lie_calls if lie_calls else 0.0, "us/call")
    put("liealg.quat_mul_per_step", ratio(count("quat_mul"), steps), "count/step")
    put("liealg.scipy_expm_per_step", ratio(count("scipy_expm"), steps), "count/step")
    put("semidirect.exp_per_step", ratio(count("semidirect_exp"), steps), "count/step")
    if sets["solves"]:
        put("symplectic.residual_evals_per_solve",
            ratio(count("residual_evals"), n_solves), "count/solve")
        put("symplectic.jacobian_builds_per_solve",
            ratio(count("jacobian_builds"), n_solves), "count/solve")
        put("symplectic.newton_iters_per_solve",
            ratio(count("newton_iters"), n_solves), "count/solve")
        if sets["jacobian_builds"]:
            reused = sum(1 for _, rebuilt, raised in solve_rows
                         if not rebuilt and not raised)
            put("symplectic.jacobian_reuse_ratio", ratio(reused, n_solves), "ratio")
        put("symplectic.failed_solves",
            float(sum(1 for *_, raised in solve_rows if raised)), "count")
    dg_steps = count("dg_steps")
    if dg_steps is not None:
        put("discrete_gradient.iters_per_step",
            ratio(count("fixed_point_iters"), dg_steps), "count/step")
        put("discrete_gradient.differential_evals_per_step",
            ratio(count("differential_evals"), dg_steps), "count/step")

    # Per-label counts per step, for comparison with hand-made profiles.
    per_label = {}
    for label in dict.fromkeys(op_labels):
        rows = [i for i, l in enumerate(op_labels) if l == label]
        st = float(sum(op_steps[i] for i in rows))
        per_label[label] = {key: count(key, rows) / st
                            for key in ("residual_evals", "jacobian_builds",
                                        "newton_iters", "fixed_point_iters",
                                        "differential_evals", "scipy_expm",
                                        "quat_mul", "field_evals", "liealg_exp")
                            if sets[key]}
        per_label[label]["steps"] = st

    roots = a["parent"] < 0
    consistency = {
        "spans": int(len(a["dur"])),
        "self_sum_s": float(a["self_time"].sum()),
        "root_sum_s": float(a["dur"][roots].sum()),
        "min_self_s": float(a["self_time"].min()) if len(a["dur"]) else 0.0,
        "counts": {tracer.names[i]: int(c) for i, c in
                   enumerate(calls.sum(axis=0)) if c} if n_names else {},
        "missing_hooks": list(tracer.missing),
    }
    return m, per_label, consistency
