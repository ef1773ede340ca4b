"""Byte-for-byte comparison of CLI outputs against committed references.

The references in tests/golden/ are short prefixes of every preset and of RKMK4
on the SE(2) Duffing frame, plus three order reports and one drift report (see
scripts/golden.py, which writes them and checks the full-length presets against
their digests).
"""

import json
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
