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


def test_summarise_imports_pairs_interpreters_in_order():
    probes = {"change": [{"seconds": 0.1, "loaded": []}, {"seconds": 0.3, "loaded": []}],
              "parent": [{"seconds": 0.4, "loaded": ["scipy.linalg"]},
                         {"seconds": 0.6, "loaded": ["scipy.linalg", "scipy.special"]}]}
    summary = bench_primitives.summarise_imports(probes)
    assert summary["change"]["median_s"] == pytest.approx(0.2)
    assert summary["change"]["interpreters"] == 2
    assert summary["change"]["loaded"] == []
    assert summary["parent"]["loaded"] == ["scipy.linalg", "scipy.special"]
    assert summary["change_over_parent"]["median"] == pytest.approx((0.25 + 0.5) / 2)


def test_summarise_runs_takes_a_workload_with_one_run():
    runs = {"parent": {("frb-s3", 1): {k: 2.0 for k in bench_primitives.END_TO_END}},
            "change": {("frb-s3", 1): {k: 1.0 for k in bench_primitives.END_TO_END}}}
    entry = bench_primitives.summarise_runs(runs)["frb-s3"]
    assert entry["pairs"] == 1
    assert entry["change"]["setup_s"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert entry["setup_s_change_over_parent"] == {"median_ratio": 0.5, "change_wins": 1}
