"""Output checks, at the tolerances of ligi's acceptance suite.

Each check returns None when the output is correct and a one-line reason
otherwise.  They read only what the program produced (exit code, CSV or JSON
text, returned states) and share no code with ligi.
"""

from __future__ import annotations

import io
import json

import numpy as np

DRIFT_THRESHOLD = 1e-3  # drift iff |slope| * T / |E_0| exceeds this


def parse_csv(text):
    """(header, rows) of a ligi trajectory CSV."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("CSV has no data rows")
    header = lines[0].split(",")
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] != len(header):
        raise ValueError("CSV rows and header differ in width")
    return header, rows


def _columns(header, rows, prefix, count):
    names = [h for h in header if h.startswith(prefix)][:count]
    return rows[:, [header.index(n) for n in names]]


def drift_class(times, energy):
    slope = float(np.polyfit(times, energy, 1)[0])
    rate = abs(slope) * float(times[-1]) / max(abs(float(energy[0])), 1e-300)
    return "drift" if rate > DRIFT_THRESHOLD else "no-drift"


def rotation_error(g):
    g = np.asarray(g, float).reshape(3, 3)
    return float(np.linalg.norm(g.T @ g - np.eye(3)))


def _trajectory_errors(check, header, rows):
    col = header.index
    if check.startswith("heavytop:"):
        expected = check.split(":", 1)[1]
        found = drift_class(rows[:, 0], rows[:, col("energy")])
        if found != expected:
            return f"energy {found}, expected {expected}"
        err = rotation_error(_columns(header, rows, "g", 9)[-1])
        if not err < 1e-10:
            return f"final |g^T g - I| = {err:.2e}"
    elif check in ("frb-s3-dg", "frb-s3-heun"):
        q = _columns(header, rows, "q", 4)
        norm = float(np.max(np.abs(np.linalg.norm(q, axis=1) - 1.0)))
        if not norm <= 1e-12:
            return f"||q| - 1| = {norm:.2e}"
        if check == "frb-s3-dg":
            energy = rows[:, col("energy")]
            rel = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
            if not rel <= 1e-10:
                return f"relative energy error {rel:.2e}"
    elif check == "sphere":
        m = _columns(header, rows, "m", 3)
        norm = float(np.max(np.abs(np.linalg.norm(m, axis=1) - 1.0)))
        if not norm < 1e-10:
            return f"||m| - 1| = {norm:.2e}"
    elif check == "stiefel":
        Q = _columns(header, rows, "q", 10).reshape(-1, 5, 2)
        orth = float(np.max(np.linalg.norm(
            np.swapaxes(Q, 1, 2) @ Q - np.eye(2), axis=(1, 2))))
        if not orth < 1e-10:
            return f"|Q^T Q - I| = {orth:.2e}"
        gap = abs(float(rows[-1, col("objective")]) - 4.5)
        if not gap < 1e-6:
            return f"PCA objective off 4.5 by {gap:.2e}"
    elif check == "torus":
        gap = abs(float(rows[-1, col("cost")]) - 36.0)
        if not gap < 1e-6:
            return f"torus cost off 36 by {gap:.2e}"
    elif check != "finite":
        raise ValueError(f"unknown check {check!r}")
    return None


def check_trajectory(check, steps, code, out):
    """A ``ligi integrate`` run: exit 0, steps + 1 finite rows, then ``check``."""
    if code != 0:
        return f"exit code {code}"
    try:
        header, rows = parse_csv(out)
    except ValueError as exc:
        return f"unreadable CSV: {exc}"
    if rows.shape[0] != steps + 1:
        return f"{rows.shape[0]} rows, expected {steps + 1}"
    if not np.all(np.isfinite(rows)):
        return "non-finite value in CSV"
    return _trajectory_errors(check, header, rows)


def check_order(expected_order, code, out):
    """A ``ligi order`` run: exit 0 and a fitted slope within 0.3 of the order."""
    if code != 0:
        return f"exit code {code}"
    try:
        slope = float(json.loads(out)["slope"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable order report: {exc}"
    if not abs(slope - expected_order) <= 0.3:
        return f"slope {slope:.3f}, expected {expected_order} +- 0.3"
    return None


def cotangent_distance(a, b):
    """|g1 - g2|_F + |mu1 - mu2| / max(1, |mu1|), the acceptance suite's metric."""
    (g1, mu1), (g2, mu2) = a, b
    scale = max(1.0, float(np.linalg.norm(mu1)))
    return float(np.linalg.norm(np.asarray(g1) - np.asarray(g2))
                 + np.linalg.norm(np.asarray(mu1) - np.asarray(mu2)) / scale)


def check_cotangent_roundtrip(start, forward, back):
    """Forward then backward cold step returns to the start within 1e-10."""
    for g, mu in (forward, back):
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(mu))):
            return "non-finite state"
    err = rotation_error(forward[0])
    if not err < 1e-10:
        return f"|g^T g - I| = {err:.2e}"
    dist = cotangent_distance(back, start)
    if not dist <= 1e-10:
        return f"forward-back distance {dist:.2e}"
    return None


def quat_energy(q, inertia, m0):
    """Kinetic energy of the body momentum R(q)^T m0 of a unit quaternion."""
    w, x, y, z = q
    R = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    m = R.T @ m0
    return 0.5 * float(m @ (m / inertia))


def check_quat_roundtrip(start, forward, back, inertia, m0):
    """Energy kept to 1e-10, unit norm to 1e-12, forward-back within 1e-10."""
    for q in (forward, back):
        if not np.all(np.isfinite(q)):
            return "non-finite state"
        norm = abs(float(np.linalg.norm(q)) - 1.0)
        if not norm <= 1e-12:
            return f"||q| - 1| = {norm:.2e}"
    e0 = quat_energy(start, inertia, m0)
    rel = abs(quat_energy(forward, inertia, m0) - e0) / abs(e0)
    if not rel <= 1e-10:
        return f"relative energy error {rel:.2e}"
    dist = float(np.max(np.abs(np.asarray(back) - np.asarray(start))))
    if not dist <= 1e-10:
        return f"forward-back distance {dist:.2e}"
    return None
