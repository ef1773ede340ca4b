"""scripts/bench_primitives.py's reader of saved bench/run.py outputs."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench_primitives.py")
spec = importlib.util.spec_from_file_location("bench_primitives", SCRIPT)
bench_primitives = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_primitives)


def run_output(workload, seed):
    """A run's stdout: progress, then the details line and the result line."""
    details = {"environment": {"workload": workload, "seed": seed}}
    metrics = {k: {"value": float(i)} for i, k in enumerate(bench_primitives.END_TO_END)}
    return "\n".join(["progress", json.dumps(details),
                      json.dumps({"correct": True, "metrics": metrics})]) + "\n"


def test_read_runs_skips_files_that_are_not_run_outputs(tmp_path):
    (tmp_path / "frb-s3-1.txt").write_text(run_output("frb-s3", 1))
    (tmp_path / "frb-s3-1.err").write_text("")
    (tmp_path / "notes.txt").write_text("one line\n")
    (tmp_path / "binary.dat").write_bytes(b"\xff\xfe\x00")
    (tmp_path / "subdir").mkdir()
    runs = bench_primitives.read_runs(str(tmp_path))
    assert list(runs) == [("frb-s3", 1)]
    assert runs[("frb-s3", 1)]["steps_per_s"] == 0.0


@pytest.mark.parametrize("result", ['{"correct": true}', "not json"])
def test_read_runs_names_a_malformed_output(tmp_path, result):
    lines = run_output("frb-s3", 1).splitlines()
    (tmp_path / "frb-s3-1.txt").write_text("\n".join(lines[:-1] + [result]))
    with pytest.raises(SystemExit, match="frb-s3-1.txt: malformed bench/run.py output"):
        bench_primitives.read_runs(str(tmp_path))
