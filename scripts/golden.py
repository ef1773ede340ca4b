"""Reference outputs of the CLI: regenerate them, or check the full-length presets.

    PYTHONPATH=src python scripts/golden.py            # rewrite tests/golden/
    PYTHONPATH=src python scripts/golden.py --check    # rerun the full presets

`tests/golden/` holds the first GOLDEN_STEPS steps of every preset, of
RKMK4 on the SE(2) Duffing frame and of the averaged discrete-gradient
scheme on S^3, three `order` reports (explicit, symplectic and
discrete-gradient schemes) and one `drift` report, each the exact bytes
`ligi ... --out` writes; `tests/test_golden.py` reruns the commands listed
in `cases.json` and compares byte for byte.  Full-length
preset runs take tens of seconds, so they are kept as sha256 digests in
`PRESET_DIGESTS.json`; `--check` reruns every preset at full length and exits
1 when a digest differs.

Regenerating is a declared change of output: run it only in a change that
means to alter the numbers, and state the largest difference it makes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from ligi import cli

GOLDEN = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                      os.pardir, "tests", "golden"))
GOLDEN_STEPS = 100
DIGESTS = "PRESET_DIGESTS.json"


def golden_cases():
    """File name -> CLI arguments (without --out) of every golden output."""
    cases = {f"{preset}.csv": ["integrate", "--preset", preset,
                               "--steps", str(GOLDEN_STEPS)]
             for preset in sorted(cli.PRESETS)}
    cases["duffing-se2-rkmk4.csv"] = [
        "integrate", "--problem", "duffing_se2", "--scheme", "rkmk4",
        "--h", "0.01", "--steps", str(GOLDEN_STEPS)]
    cases["frb_s3-dg_avf.csv"] = [
        "integrate", "--problem", "frb_s3", "--scheme", "dg_avf",
        "--h", "0.015625", "--steps", str(GOLDEN_STEPS)]
    cases["order-frb_s2-rkmk.json"] = [
        "order", "--problem", "frb_s2", "--scheme", "rkmk",
        "--h-list", "0.1,0.05,0.025,0.0125", "--T", "2"]
    cases["order-heavytop-symplectic_theta.json"] = [
        "order", "--problem", "heavytop", "--scheme", "symplectic_theta",
        "--h-list", "0.02,0.01,0.005", "--T", "0.2"]
    cases["order-frb_s3-dg.json"] = [
        "order", "--problem", "frb_s3", "--scheme", "dg",
        "--h-list", "0.1,0.05,0.025,0.0125", "--T", "2"]
    cases["drift-frb-s3-dg.json"] = [
        "drift", "--preset", "frb-s3-dg", "--steps", str(GOLDEN_STEPS)]
    return cases


def run_to(argv, path):
    with contextlib.redirect_stdout(io.StringIO()):  # order and drift also print
        code = cli.main(argv + ["--out", path])
    if code != 0:
        raise SystemExit(f"ligi {' '.join(argv)} exited {code}")


def preset_digest(preset, workdir):
    path = os.path.join(workdir, f"{preset}.csv")
    run_to(["integrate", "--preset", preset], path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    cases = golden_cases()
    for name, argv in cases.items():
        run_to(argv, os.path.join(GOLDEN, name))
    with open(os.path.join(GOLDEN, "cases.json"), "w") as fh:
        json.dump(cases, fh, indent=2)
        fh.write("\n")
    with tempfile.TemporaryDirectory() as workdir:
        digests = {p: preset_digest(p, workdir) for p in sorted(cli.PRESETS)}
    with open(os.path.join(GOLDEN, DIGESTS), "w") as fh:
        json.dump(digests, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(cases)} golden outputs and {len(digests)} digests to {GOLDEN}")


def check():
    with open(os.path.join(GOLDEN, DIGESTS)) as fh:
        expected = json.load(fh)
    if set(expected) != set(cli.PRESETS):
        print(f"presets {sorted(cli.PRESETS)} and digests {sorted(expected)} disagree")
        return 1
    bad = []
    with tempfile.TemporaryDirectory() as workdir:
        for preset in sorted(expected):
            ok = preset_digest(preset, workdir) == expected[preset]
            print(f"{preset:24s} {'identical' if ok else 'DIFFERS'}", flush=True)
            if not ok:
                bad.append(preset)
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="rerun the full-length presets against their digests")
    args = parser.parse_args()
    if args.check:
        return check()
    regenerate()
    return 0


if __name__ == "__main__":
    sys.exit(main())
