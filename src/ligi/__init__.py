"""Lie group integrators on manifolds.

The package provides:

* Lie algebra/group primitives: Rodrigues and quaternion exponentials,
  the dexp/dexpinv commutator series and the dual of dexp (:mod:`ligi.liealg`),
  and the semidirect product on trivialised cotangent bundles
  (:mod:`ligi.semidirect`).
* Transitive group actions and the frozen-coefficient ODE abstraction
  (:mod:`ligi.actions`).
* Steppers: Lie-Euler, Heun variants, Runge-Kutta-Munthe-Kaas and
  commutator-free fourth-order schemes (:mod:`ligi.steppers`).
* Symplectic integrators on G x| g* with the heavy-top benchmark
  (:mod:`ligi.symplectic`).
* Energy-preserving discrete-differential methods (:mod:`ligi.discrete_gradient`).
* Worked problems: Duffing frames, the free rigid body, torus descent,
  Stiefel gradient flows, Lyapunov exponents (:mod:`ligi.problems`).
* A command-line front end (``ligi integrate|order|drift``).
"""

from . import actions, discrete_gradient, errors, liealg, problems, semidirect, \
    steppers, symplectic

__all__ = [
    "actions", "discrete_gradient", "errors", "liealg", "problems",
    "semidirect", "steppers", "symplectic",
]

__version__ = "0.1.0"
