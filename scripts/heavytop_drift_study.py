"""Heavy-top energy drift study.

Runs the symplectic and Runge-Kutta-Munthe-Kaas theta methods (theta = 0 and
1/2) at the benchmark configuration and prints the per-scheme energy drift
classification, reproducing the qualitative symplectic/symmetric/no-drift
pattern.
"""

import argparse

from ligi.steppers import drift_report, integrate
from ligi.symplectic import HeavyTopParams, cotangent_step, heavy_top


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=10000)
    parser.add_argument("--h", type=float, default=0.05)
    args = parser.parse_args()

    params = HeavyTopParams.benchmark()
    system = heavy_top(params)

    print(f"heavy top: inertia {params.inertia}, mu0 {params.mu0}, "
          f"h={args.h}, {args.steps} steps")
    print(f"{'scheme':18s} {'theta':>5s} {'max |dH|/H':>12s} "
          f"{'drift rate':>12s} {'class':>9s}")
    for scheme in ("symplectic_theta", "rkmk_theta"):
        for theta in (0.0, 0.5):
            traj = integrate(cotangent_step(system, scheme, theta=theta),
                             params.state0, args.h, args.steps, system.invariants)
            stats = drift_report(traj)["energy"]
            print(f"{scheme:18s} {theta:5.2f} {stats['max_rel_deviation']:12.3e} "
                  f"{stats['rel_drift_rate']:12.3e} {stats['classification']:>9s}")


if __name__ == "__main__":
    main()
