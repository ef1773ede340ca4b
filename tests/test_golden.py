"""Byte-for-byte comparison of CLI outputs against committed references.

The references in tests/golden/ are short prefixes of every preset and of RKMK4
on the SE(2) Duffing frame, plus three order reports and one drift report (see
scripts/golden.py, which writes them and checks the full-length presets against
their digests).  The script's check, which for a preset that differs prints the
largest difference from the committed prefix, is tested here too.
"""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

from ligi import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    out = tmp_path / name
    assert cli.main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def load_golden_script():
    path = Path(__file__).parent.parent / "scripts" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prefix_difference_reads_the_committed_rows_only(tmp_path):
    golden = load_golden_script()
    prefix, full = tmp_path / "prefix.csv", tmp_path / "full.csv"
    prefix.write_text("t,x\n0,1\n0.5,2\n")
    full.write_text("t,x\n0,1.25\n0.5,2\n1,100\n")
    assert golden.prefix_difference(prefix, full) == 0.25
    full.write_text("t,y\n0,1\n0.5,2\n")
    assert golden.prefix_difference(prefix, full) == math.inf
    full.write_text("t,x\n0,1\n")
    assert golden.prefix_difference(prefix, full) == math.inf
    full.write_text("t,x\n0,1\n0.5,nan\n")
    assert golden.prefix_difference(prefix, full) == math.inf


def test_check_prints_the_prefix_difference_of_a_preset_that_differs(tmp_path, monkeypatch,
                                                                      capsys):
    golden = load_golden_script()
    presets = sorted(cli.PRESETS)
    for preset in presets:
        (tmp_path / f"{preset}.csv").write_text("t,x\n0,1\n0.5,2\n")
    outputs = {preset: "t,x\n0,1\n0.5,2\n1,3\n" for preset in presets}
    outputs[presets[0]] = "t,x\n0,1\n0.5,2.5\n1,3\n"

    def run_to(argv, path):
        Path(path).write_text(outputs[argv[argv.index("--preset") + 1]])

    monkeypatch.setattr(golden, "GOLDEN", str(tmp_path))
    monkeypatch.setattr(golden, "run_to", run_to)
    digests = {preset: hashlib.sha256(outputs[preset].encode()).hexdigest()
               for preset in presets}
    digests[presets[0]] = "0" * 64
    (tmp_path / golden.DIGESTS).write_text(json.dumps(digests))
    assert golden.check() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == [presets[0], "DIFFERS,", "first", str(golden.GOLDEN_STEPS),
                                "steps", "by", "at", "most", "0.5"]
    assert [line.split() for line in lines[1:]] == [[p, "identical"] for p in presets[1:]]
