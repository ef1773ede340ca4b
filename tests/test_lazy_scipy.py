"""scipy loads only where ligi uses it.

Importing ligi loads neither scipy.linalg nor scipy.special.  scipy.linalg
loads at the first LU factorisation of a Newton solve and at the first
matrix exponential without a closed form; the presets that need neither
never load it.  Each case runs in a fresh interpreter, since this one has
scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUN_COMMANDS = """
import contextlib, io, json, sys
import ligi, ligi.cli

def loaded():
    return [m for m in ("scipy.linalg", "scipy.special") if m in sys.modules]

at_import = loaded()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ligi.cli.main(argv)
    assert code == 0, (argv, code)
print(json.dumps({"at_import": at_import, "after_commands": loaded()}))
"""


def _integrate(preset):
    return ["integrate", "--preset", preset, "--steps", "3"]


CLOSED_FORMS = [*map(_integrate, ["frb-s3-dg", "frb-s3-heun", "frb-s2-rkmk4", "torus-descent",
                                  "duffing-sl2-lie-euler"]),
                ["order", "--problem", "frb_s3", "--scheme", "dg",
                 "--h-list", "0.1,0.05,0.025", "--T", "0.1"]]


def run_in_fresh_interpreter(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("commands, loaded", [
    (CLOSED_FORMS, []),
    ([_integrate("heavytop-theta05")], ["scipy.linalg"]),  # Newton's LU
    ([_integrate("stiefel-pca")], ["scipy.linalg"]),  # expm on so(5)
], ids=["closed-forms", "heavytop-theta05", "stiefel-pca"])
def test_scipy_loads_only_where_used(commands, loaded):
    result = run_in_fresh_interpreter(RUN_COMMANDS, json.dumps(commands))
    assert result == {"at_import": [], "after_commands": loaded}
