import dataclasses
import io
import json
from functools import partial

import numpy as np
import pytest

from ligi import cli, symplectic
from ligi.errors import FixedPointDivergence
from ligi.problems import free_rigid_body_s2
from ligi.steppers import REFERENCE_REFINEMENT, Trajectory, integrate, rkmk4_step
from oracles import write_csv_rows


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def test_integrate_writes_csv(tmp_path):
    out = tmp_path / "traj.csv"
    code = run(["integrate", "--problem", "frb_s2", "--scheme", "rkmk4",
                "--h", "0.05", "--steps", "10", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "m1", "m2", "m3", "norm", "energy"]
    assert len(rows) == 11
    assert float(rows[0][0]) == 0.0
    assert abs(float(rows[-1][0]) - 0.5) < 1e-15


def test_integrate_single_step_two_rows(tmp_path):
    out = tmp_path / "one.csv"
    assert run(["integrate", "--problem", "duffing_sl2", "--scheme", "lie_euler",
                "--h", "0.1", "--steps", "1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 2


def test_integrate_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["integrate", "--problem", "stiefel_pca", "--scheme", "cf4",
            "--h", "0.05", "--steps", "5", "--seed", "3"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_integrate_seed_changes_start(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["integrate", "--problem", "stiefel_pca", "--scheme", "cf4",
            "--h", "0.05", "--steps", "1"]
    run(base + ["--seed", "3", "--out", str(a)])
    run(base + ["--seed", "4", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_heavytop_preset_config(tmp_path):
    # Desk-scale preset, shortened for the smoke test; full runs live in the
    # acceptance suite.
    out = tmp_path / "ht.csv"
    code = run(["integrate", "--preset", "heavytop-theta05", "--steps", "50",
                "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header[0] == "t"
    assert header[1:10] == [f"g{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    assert header[10:13] == ["mu1", "mu2", "mu3"]
    assert header[13] == "energy"
    assert len(rows) == 51
    energies = np.array([float(r[13]) for r in rows])
    assert abs(energies[0] - 600001.0) < 1e-9


def test_frb_s3_dg_flags(tmp_path):
    out = tmp_path / "dg.csv"
    code = run(["integrate", "--problem", "frb_s3", "--scheme", "dg",
                "--h", "0.015625", "--steps", "20", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header[:5] == ["t", "q0", "q1", "q2", "q3"]
    energies = np.array([float(r[header.index("energy")]) for r in rows])
    assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) < 1e-11
    norms = np.array([float(r[header.index("norm")]) for r in rows])
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": "frb_s2", "scheme": "rkmk4",
                               "h": 0.05, "steps": 100}))
    out = tmp_path / "o.csv"
    # flags override file values: 3 steps, not 100
    assert run(["integrate", "--config", str(cfg), "--steps", "3",
                "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 4


def test_order_json_rkmk4(capsys):
    code = run(["order", "--problem", "frb_s2", "--scheme", "rkmk4",
                "--h-list", "0.1,0.05,0.025,0.0125", "--T", "2.0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scheme"] == "rkmk4"
    assert 3.7 <= report["slope"] <= 4.3
    assert len(report["errors"]) == 4


def test_order_json_lie_euler(capsys):
    code = run(["order", "--problem", "frb_s2", "--scheme", "lie_euler",
                "--h-list", "0.1,0.05,0.025,0.0125", "--T", "2.0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.8 <= report["slope"] <= 1.2


def test_order_requires_three_step_sizes(capsys):
    code = run(["order", "--problem", "frb_s2", "--scheme", "rkmk4",
                "--h-list", "0.1"])
    assert code == 2
    assert "step sizes" in capsys.readouterr().err


def test_drift_report_classification(capsys):
    code = run(["drift", "--problem", "frb_s2", "--scheme", "rkmk4",
                "--h", "0.05", "--steps", "400"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    inv = report["invariants"]
    assert inv["norm"]["classification"] == "no-drift"
    assert inv["energy"]["classification"] == "no-drift"
    assert inv["energy"]["max_rel_deviation"] < 1e-6


def test_drift_frb_s3_energy_preserving(capsys):
    code = run(["drift", "--problem", "frb_s3", "--scheme", "dg",
                "--h", "0.015625", "--steps", "150"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    energy = report["invariants"]["energy"]
    assert energy["classification"] == "no-drift"
    assert energy["max_rel_deviation"] <= 1e-10
    assert report["invariants"]["norm"]["max_rel_deviation"] <= 1e-12


def test_validation_failures_exit_2(capsys):
    assert run(["integrate", "--problem", "nope", "--scheme", "rkmk4",
                "--h", "0.1", "--steps", "2"]) == 2
    assert run(["integrate", "--problem", "frb_s2", "--scheme", "rkmk4",
                "--h", "-0.1", "--steps", "2"]) == 2
    assert run(["integrate", "--problem", "frb_s2", "--scheme", "rkmk4",
                "--h", "0.1", "--steps", "0"]) == 2
    assert run(["integrate", "--problem", "frb_s2", "--scheme", "symplectic_theta",
                "--h", "0.1", "--steps", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("h", ["nan", "inf"])
def test_non_finite_h_exit_2_without_csv(tmp_path, capsys, h):
    out = tmp_path / "traj.csv"
    code = run(["integrate", "--preset", "frb-s2-rkmk4", "--h", h,
                "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("h_list", ["0.1,nan,0.025", "inf,0.05,0.025",
                                    "0.1,-0.05,0.025", "0.1,0,0.025"])
def test_bad_h_list_entry_exit_2(capsys, h_list):
    code = run(["order", "--problem", "frb_s2", "--scheme", "rkmk4",
                "--h-list", h_list])
    assert code == 2
    assert "positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("T", ["0", "-2", "1e-9", "nan", "inf"])
def test_order_bad_T_exit_2(capsys, T):
    code = run(["order", "--problem", "frb_s2", "--scheme", "rkmk4",
                "--h-list", "0.1,0.05,0.025", "--T", T])
    assert code == 2
    assert "error: T must be finite and give at least one step" in capsys.readouterr().err


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_non_finite_theta_exit_2(tmp_path, capsys, theta):
    out = tmp_path / "traj.csv"
    code = run(["integrate", "--preset", "heavytop-theta05", "--steps", "2",
                "--theta", theta, "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "error: theta must be finite" in capsys.readouterr().err


def test_non_finite_state_exit_4_without_csv(tmp_path, capsys):
    # Lie-Euler on the SE(2) Duffing frame blows up at h = 2: the energy
    # overflows at t = 16, step 8, before the state does.
    out = tmp_path / "traj.csv"
    code = run(["integrate", "--problem", "duffing_se2", "--scheme", "lie_euler",
                "--h", "2", "--steps", "200", "--out", str(out)])
    assert code == 4
    assert not out.exists()
    assert "non-finite state: step 8 (t=16.0)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--problem", "torus", "--scheme", "lie_euler", "--h", "1e308"],
    ["--problem", "frb_s2", "--scheme", "rkmk4", "--h", "1e308"],
    ["--problem", "duffing_sl2", "--scheme", "lie_euler", "--h", "1e200"],
    ["--problem", "heavytop", "--scheme", "symplectic_theta", "--theta", "0.5", "--h", "1e308"],
    ["--problem", "heavytop", "--scheme", "symplectic_theta", "--theta", "0", "--h", "1e308"],
    ["--problem", "heavytop", "--scheme", "rkmk_theta", "--theta", "0.5", "--h", "1e308"],
    ["--problem", "frb_s3", "--scheme", "dg", "--h", "1e308"],
    ["--problem", "frb_s3", "--scheme", "dg_avf", "--h", "1e308"],
    ["--problem", "frb_s2", "--scheme", "rkmk", "--h", "1e308"],
    ["--problem", "frb_s3", "--scheme", "rkmk", "--h", "1e308"],
], ids=["torus", "frb_s2", "duffing_sl2", "heavytop_theta05", "heavytop_theta0",
        "heavytop_rkmk_theta05", "frb_s3_dg", "frb_s3_dg_avf", "frb_s2_rkmk", "frb_s3_rkmk"])
def test_overflowing_exponential_exit_4_without_csv(tmp_path, capsys, argv):
    # An infinite rotation angle, or an overflowing sl(2) exponential, gives
    # NaN entries, not a math domain error.  The symplectic theta step starts
    # its stage iteration at h f(g0, mu0), which is already infinite; the
    # implicit RKMK theta step screens h f(y0), and the dg step starts its
    # fixed-point iteration at a Lie-Euler predictor that is already NaN.  An
    # infinite dexpinv argument (RKMK with a finite h f(y)) also gives NaN.
    out = tmp_path / "traj.csv"
    code = run(["integrate", *argv, "--steps", "3", "--out", str(out)])
    assert code == 4
    assert not out.exists()
    assert "non-finite state: step 1 " in capsys.readouterr().err


@pytest.mark.parametrize("scheme, h, code", [
    ("dg", "1e300", 4),
    ("heun_rkmk", "1e200", 4),
    ("lie_euler", "1e155", 4),
    ("dg", "10", 3),
])
def test_frb_s3_large_steps_exit_codes(tmp_path, scheme, h, code):
    # The rigid-body callbacks on floats overflow to inf and NaN as numpy's
    # mat-vecs did: a huge step is a non-finite state and h = 10 a divergence.
    out = tmp_path / "traj.csv"
    assert run(["integrate", "--problem", "frb_s3", "--scheme", scheme, "--h", h,
                "--steps", "3", "--out", str(out)]) == code
    assert not out.exists()


def _both_writers(traj, labels):
    block, rows = io.StringIO(), io.StringIO()
    cli.write_csv(traj, labels, block)
    write_csv_rows(traj, labels, rows)
    return block.getvalue(), rows.getvalue()


def test_write_csv_matches_row_writer_on_tuple_states():
    # 301 rows: one full block and a partial one.
    config = cli.RunConfig(problem="heavytop", scheme="symplectic_theta", h=0.05,
                           steps=300)
    block, rows = _both_writers(*cli.run_trajectory(config))
    assert block == rows
    assert block.count("\n") == 302


def test_write_csv_matches_row_writer_without_invariants():
    states = [np.array([-0.0, 1.0]), np.array([0.0, -0.0]),
              np.array([1e-310, -np.inf]), np.array([np.nan, 1.0 / 3.0])]
    traj = Trajectory(np.arange(4) * 0.1, states)
    block, rows = _both_writers(traj, ["x", "y"])
    assert block == rows
    assert block.splitlines()[1:3] == ["0,-0,1", "0.10000000000000001,0,-0"]


def test_write_csv_matches_row_writer_on_one_row():
    problem = free_rigid_body_s2(1.0, 5.0, 60.0)
    traj = integrate(partial(rkmk4_step, problem), np.array([-0.0, 0.6, 0.8]), 0.05, 0,
                     problem.invariants)
    block, rows = _both_writers(traj, ["m1", "m2", "m3"])
    assert block == rows
    assert block.splitlines()[1].startswith("0,-0,0.59999999999999998,")


@pytest.mark.parametrize("scheme", ["symplectic", "rkmk4"])
def test_heavytop_unknown_scheme_exit_2(capsys, scheme):
    code = run(["integrate", "--problem", "heavytop", "--scheme", scheme,
                "--h", "0.05", "--steps", "2"])
    assert code == 2
    assert ("choose from ['rkmk_theta', 'symplectic_theta']"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["--problem", "heavytop", "--scheme", "symplectic_theta",
     "--h-list", "0.02,0.01,0.005", "--T", "0.2"],
    ["--problem", "heavytop", "--scheme", "rkmk_theta",
     "--h-list", "0.02,0.01,0.005", "--T", "0.2"],
    ["--problem", "frb_s3", "--scheme", "dg", "--h-list", "0.1,0.05,0.025,0.0125", "--T", "2"],
], ids=["heavytop_symplectic_theta", "heavytop_rkmk_theta", "frb_s3_dg"])
def test_order_on_implicit_problems(capsys, argv):
    # Each step size gets a fresh step, so its solver starts cold; the
    # reference is RKMK4 on the same problem (G x| g* acting on itself for the
    # heavy top, S^3 for the quaternion rigid body).
    assert run(["order", *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["slope"] - 2.0) < 0.3


def test_unknown_scheme_lists_every_scheme_of_the_problem(capsys):
    code = run(["integrate", "--problem", "frb_s3", "--scheme", "dg_gonzalez",
                "--h", "0.05", "--steps", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "not available for 'frb_s3'" in err
    assert all(f"'{name}'" in err for name in ("dg", "dg_avf", "heun_rkmk", *cli.ACTION_STEPS))


def test_tdd_option_is_gone(tmp_path, capsys):
    # --scheme dg_avf runs the averaged differential.
    with pytest.raises(SystemExit):
        run(["integrate", "--problem", "frb_s3", "--scheme", "dg", "--tdd", "avf",
             "--h", "0.05", "--steps", "2"])
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": "frb_s3", "scheme": "dg", "tdd": "avf",
                               "h": 0.05, "steps": 2}))
    assert run(["integrate", "--config", str(cfg)]) == 2
    assert "unknown config keys ['tdd']" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"problem": "frb_s2", "scheme": "rkmk4",
                               "h": 0.05, "steps": 2, "bogus": 1}))
    assert run(["integrate", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err
    # command is a field of RunConfig but not an option
    cfg.write_text(json.dumps({"problem": "frb_s2", "scheme": "rkmk4",
                               "h": 0.05, "steps": 2, "command": "order"}))
    assert run(["integrate", "--config", str(cfg)]) == 2
    assert "error: unknown config keys ['command']" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("h", "0.05"), ("h", True), ("T", "2"), ("theta", "0.5"),
    ("h_list", ["0.1", 0.05, 0.025]), ("h_list", "0.1,0.05,0.025"),
    ("steps", 10.5), ("steps", "10"), ("series_order", 4.0), ("seed", "1"),
    ("problem", ["frb_s2"]), ("out", 1),
    ("seed", None), ("series_order", None), ("theta", None),
    ("h", 10**400), ("T", -10**400), ("h_list", [0.1, 10**400, 0.025]),
])
def test_config_value_type_exit_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": "frb_s2", "scheme": "rkmk4",
                               "h": 0.05, "steps": 2, key: value}))
    assert run(["integrate", "--config", str(cfg)]) == 2
    assert f"error: {key} must be" in capsys.readouterr().err


def test_config_not_an_object_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("[0.05, 2]")
    assert run(["integrate", "--preset", "frb-s2-rkmk4", "--config", str(cfg)]) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config", [
    (["integrate", "--preset", "stiefel-pca", "--steps", "2", "--seed", "-1"], None),
    (["integrate", "--preset", "frb-s2-rkmk4", "--series-order", "-1"], None),
    (["integrate", "--preset", "frb-s2-rkmk4", "--series-order", "25"], None),
    (["order", "--problem", "frb_s2", "--scheme", "rkmk4", "--h-list", "0.05,0.1,0.025"], None),
    (["order", "--problem", "frb_s2", "--scheme", "rkmk4",
      "--h-list", "1e-300,1e-305,1e-308", "--T", "1e10"], None),
    (["integrate", "--preset", "frb-s2-rkmk4", "--steps", str(10**30)], None),
    (["order", "--problem", "frb_s2", "--scheme", "rkmk4",
      "--h-list", "1e-200,1e-250,1e-300", "--T", "1"], None),
    (["order", "--problem", "frb_s2", "--scheme", "rkmk4",
      "--h-list", "2e-323,1e-323,5e-324", "--T", "1.5e-323"], None),
    (["integrate", "--preset", "frb-s2-rkmk4"], b'{"steps": 2'),
    (["integrate", "--preset", "frb-s2-rkmk4"], b'{"scheme": "rkmk4\xff"}'),
], ids=["negative_seed", "negative_series_order", "series_order_25", "h_list_not_decreasing",
        "reference_run_overflows", "steps_past_max", "reference_run_past_max",
        "reference_step_underflows", "config_not_json", "config_not_utf8"])
def test_bad_input_exit_2_before_the_run(tmp_path, capsys, argv, config):
    # Rejected before any step runs; the library would fail mid-run on most of
    # these, and rkmk4 would ignore the series order.
    out = tmp_path / "out.csv"
    if config is not None:
        (tmp_path / "run.json").write_bytes(config)
        argv = [*argv, "--config", str(tmp_path / "run.json")]
    assert run([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_max_steps_is_the_largest_valid_step_count():
    # An integer field takes any size of integer; validate bounds it.
    config = cli.RunConfig(problem="frb_s2", scheme="rkmk4", h=0.05, steps=cli.MAX_STEPS)
    config.validate()
    for steps in (cli.MAX_STEPS + 1, 10**400):
        with pytest.raises(cli.ConfigError, match=f"steps must be in 1..{cli.MAX_STEPS}"):
            dataclasses.replace(config, steps=steps).validate()


def test_reference_run_of_max_steps_is_the_largest_valid_order_study():
    # h_min = REFERENCE_REFINEMENT makes the reference step exactly 1, so T is its step count.
    h_list = tuple(REFERENCE_REFINEMENT * k for k in (4.0, 2.0, 1.0))
    config = cli.RunConfig(command="order", problem="frb_s2", scheme="rkmk4",
                           h_list=h_list, T=float(cli.MAX_STEPS))
    config.validate()
    with pytest.raises(cli.ConfigError, match="the reference run of"):
        dataclasses.replace(config, T=float(cli.MAX_STEPS + 1)).validate()


def test_mid_run_value_error_is_not_a_configuration_error(monkeypatch):
    # A ValueError from the library during a run is a defect: main lets it
    # through (exit 1 with a traceback) instead of reporting exit 2.
    def broken(*args, **kwargs):
        raise ValueError("a defect")

    monkeypatch.setattr(cli, "integrate", broken)
    with pytest.raises(ValueError, match="a defect"):
        run(["integrate", "--preset", "frb-s2-rkmk4", "--steps", "2"])


def test_non_finite_jacobian_exit_3(monkeypatch, capsys):
    # A force map that is NaN away from the start attitude makes the Newton
    # Jacobian NaN: a solver divergence, not a configuration error.
    real_heavy_top = symplectic.heavy_top

    def nan_off_start(params):
        system = real_heavy_top(params)

        def force_map(g, mu):
            f1, f2 = system.force_map(g, mu)
            return (f1, f2) if np.array_equal(g, np.eye(3)) else (np.nan * f1, f2)

        return dataclasses.replace(system, force_map=force_map)

    monkeypatch.setattr(cli, "heavy_top", nan_off_start)
    code = run(["integrate", "--preset", "heavytop-theta05", "--steps", "2"])
    assert code == 3
    assert "Jacobian is not finite" in capsys.readouterr().err


def test_solver_divergence_exit_3(monkeypatch, capsys):
    def exploding(*args, **kwargs):
        raise FixedPointDivergence("stage equations diverged", h=0.05,
                                   residual=1.0)

    monkeypatch.setattr(symplectic, "theta_step", exploding)
    code = run(["integrate", "--preset", "heavytop-theta05", "--steps", "3"])
    assert code == 3
    assert "divergence" in capsys.readouterr().err


def test_dexpinv_domain_error_exit_5(tmp_path, capsys):
    # At h = 300 the first RKMK stage argument is far past 2 pi, where the
    # so(3) dexpinv closed form has its first pole: a numerical-domain
    # error, not a configuration error.
    out = tmp_path / "traj.csv"
    code = run(["integrate", "--problem", "frb_s2", "--scheme", "rkmk",
                "--h", "300", "--steps", "2", "--out", str(out)])
    assert code == 5
    assert not out.exists()
    assert "numerical domain error: dexpinv closed form" in capsys.readouterr().err


@pytest.mark.parametrize("h, code", [("1e-300", 5), ("1e-163", 5), ("1e-160", 0)])
def test_drift_over_underflowing_times_exit_5(tmp_path, capsys, h, code):
    # Below h ~ 1e-162 every t^2 underflows to 0, where np.polyfit's column
    # scaling divided by zero and raised numpy's LinAlgError (exit 1).
    out = tmp_path / "drift.json"
    assert run(["drift", "--problem", "frb_s2", "--scheme", "lie_euler", "--h", h,
                "--steps", "3", "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:
        assert "numerical domain error: the drift fit is undefined" in capsys.readouterr().err


def test_presets_all_valid():
    for name, values in cli.PRESETS.items():
        config = cli.RunConfig(command="integrate", **values)
        config.validate()
        assert values["problem"] in cli.PROBLEMS


def test_help_lists_presets(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    assert "heavytop-theta05" in out
