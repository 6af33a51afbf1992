"""Exit codes and artifact wiring of the command line front end."""

import json
from pathlib import Path

import pytest
import yaml

from bergman_carleson import cli
from bergman_carleson.errors import ToleranceNotReached


def test_default_equivalence_run(tmp_path, capsys):
    rc = cli.main(["equivalence", "--out", str(tmp_path)])
    assert rc == 0
    printed = Path(capsys.readouterr().out.strip())
    assert (printed / "report.json").exists()
    report = json.loads((printed / "report.json").read_text())
    assert report["results"]["ratio"] == pytest.approx(4.0, abs=1e-9)


def test_flag_overrides_reach_the_report(tmp_path, capsys):
    rc = cli.main(["intensity", "--out", str(tmp_path), "--depth", "4"])
    assert rc == 0
    printed = Path(capsys.readouterr().out.strip())
    report = json.loads((printed / "report.json").read_text())
    assert report["scenario"]["depth"] == 4


def test_scenario_file_run(tmp_path, capsys):
    scenario = {
        "version": 1,
        "kind": "sweep",
        "template": {"kind": "identity_density", "dim": 1},
        "dims": [1, 2],
        "depth": 4,
        "seed": 0,
    }
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump(scenario))
    rc = cli.main(
        ["sweep", "--scenario", str(path), "--out", str(tmp_path / "results")]
    )
    assert rc == 0
    printed = Path(capsys.readouterr().out.strip())
    assert (printed / "curves.csv").exists()


def test_zero_derivative_volterra_run_is_complete(tmp_path, capsys):
    # g(z) = z**2 has g'(0) = 0, so the pointwise curve starts at 0: log
    # axes leave that point off the chart, the report and CSV keep it
    scenario = {
        "version": 1,
        "kind": "volterra",
        "symbol": {"kind": "poly", "coefficients": [[[0.0]], [[0.0]], [[1.0]]]},
        "weight": {"kind": "identity", "dim": 1},
    }
    path = tmp_path / "zero.yaml"
    path.write_text(yaml.safe_dump(scenario))
    out_root = tmp_path / "results"
    rc = cli.main(["volterra", "--scenario", str(path), "--out", str(out_root)])
    assert rc == 0
    run_dir = Path(capsys.readouterr().out.strip())
    assert [p.parent for p in out_root.glob("*/*")] == [out_root / "volterra"]
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "curves.csv", "manifest.json", "plot.svg", "report.json"
    ]
    report = json.loads((run_dir / "report.json").read_text())
    rows = report["curve"]["rows"]
    assert report["plot"]["loglog"] and rows[0][1] == 0.0
    assert len((run_dir / "curves.csv").read_text().splitlines()) == len(rows) + 2
    svg = (run_dir / "plot.svg").read_text()
    assert svg.count("<!-- data: ") == 2 * len(rows) - 1
    assert json.loads((run_dir / "manifest.json").read_text())["plot_emitted"]


def test_malformed_version_exits_one_without_output(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"version": "two", "kind": "b2", "weight": {}}))
    out_root = tmp_path / "results"
    rc = cli.main(["b2", "--scenario", str(path), "--out", str(out_root)])
    assert rc == 1
    assert not out_root.exists()
    assert "error:" in capsys.readouterr().err


def test_kind_mismatch_exits_one(tmp_path):
    path = tmp_path / "mismatch.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "version": 1,
                "kind": "equivalence",
                "measure": {"kind": "atom", "point": [0.0, 0.0], "dim": 1},
            }
        )
    )
    assert cli.main(["b2", "--scenario", str(path)]) == 1


def test_tolerance_failure_exits_three(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ToleranceNotReached(
            "stalled", value=1.0, achieved=1e-3, evaluations=100
        )

    monkeypatch.setattr(cli, "run_scenario", boom)
    assert cli.main(["equivalence", "--out", str(tmp_path)]) == 3


def test_report_subcommand_summarizes_and_replots(tmp_path, capsys):
    assert cli.main(["equivalence", "--out", str(tmp_path)]) == 0
    run_dir = Path(capsys.readouterr().out.strip())
    (run_dir / "plot.svg").unlink()
    rc = cli.main(["report", "--input", str(run_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "kind: equivalence" in out
    assert (run_dir / "plot.svg").exists()


def test_report_subcommand_rejects_garbage(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("[1, 2, 3]")
    assert cli.main(["report", "--input", str(path)]) == 1


@pytest.mark.parametrize(
    "scenario, needle",
    [
        ({
            "version": 1,
            "kind": "volterra",
            "symbol": {"kind": "log", "dim": 2},
            "weight": {"kind": "identity", "dim": 1},
        }, ""),
        ({
            "version": 1,
            "kind": "b2",
            "weight": {"kind": "scalar_power", "exponent": 0.5},
            "h_grid": [1.0 + 5e-13],
        }, ""),
        ({
            "version": 1,
            "kind": "b2",
            "weight": {"kind": "scalar_power", "exponent": 1.5},
        }, ""),
        ({
            "version": 1,
            "kind": "dyadic-norm",
            "measure": {"kind": "random", "dim": 0, "seed": 0},
            "seed": 0,
        }, ""),
        ({
            "version": 1,
            "kind": "equivalence",
            "measure": {"kind": "atom", "point": [0.96875, 0.0]},
            "dept": 9,
        }, ""),
        ({
            "version": 1,
            "kind": "intensity",
            "measure": {"kind": "atom", "point": [0.5, 0.0], "scael": 2.0},
        }, ""),
        ({
            "version": 1,
            "kind": "b2",
            "weight": {"kind": "diagonal_power", "exponents": [0.5, -0.5], "sed": 11},
        }, ""),
        ({
            "version": 1,
            "kind": "embed",
            "symbol": {"kind": "radial_power", "exponent": -0.5, "sacle": 2.0},
            "weight": {"kind": "identity", "dim": 1},
        }, ""),
        ({
            "version": 1,
            "kind": "sweep",
            "template": {"kind": "radial_power_density", "exponnent": 1.5},
            "dims": [1, 2],
            "seed": 0,
        }, ""),
        ({
            "version": 1,
            "kind": "b2",
            "weight": {"kind": "scalar_power", "exponent": 0.6},
            "eta": -0.5,
        }, ""),
        ({
            "version": 1,
            "kind": "embed",
            "symbol": {"kind": "identity", "dim": 1},
            "weight": {"kind": "scalar_power", "exponent": -0.6},
            "eta": -0.5,
            "gamma": 1.0,
        }, ""),
        ({
            "version": 1,
            "kind": "embed",
            "symbol": {"kind": "radial_power", "exponent": -0.5, "dim": 1},
            "weight": {"kind": "identity", "dim": 1},
            "grid": {"max_levle": 3},
        }, ""),
        ({
            "version": 1,
            "kind": "sweep",
            "template": {"kind": "atom", "point": [0.5, 0.0], "dim": "x"},
            "dims": [1, 2],
            "seed": 0,
        }, ""),
        ({
            "version": 1,
            "kind": "sweep",
            "template": {"kind": "atom", "point": [0.5, 0.0], "matrix": [[1, 0], [0, 1]]},
            "dims": [1, 2],
            "seed": 0,
        }, ""),
        ({
            "version": 1,
            "kind": "intensity",
            "measure": {"kind": "radial_power_density", "exponent": 1.0, "scale": -1},
        }, ""),
        ({
            "version": 1,
            "kind": "dyadic-norm",
            "measure": {"kind": "radial_power_density", "exponent": 1.0, "scale": -1},
            "seed": 0,
        }, ""),
        ({
            "version": 1,
            "kind": "intensity",
            "measure": {"kind": "random", "dim": 2, "num_atoms": -1},
            "seed": 0,
        }, ""),
        ({
            "version": 1,
            "kind": "intensity",
            "measure": {"kind": "random", "dim": 2, "num_atoms": 2.5, "seed": 0},
            "seed": 0,
        }, ""),
        ({"version": 1, "kind": "b2", "weight": {"kind": "identity", "dim": 1.7}}, ""),
        ({
            "version": 1,
            "kind": "volterra",
            "symbol": {"kind": "log", "dim": 1.9},
            "weight": {"kind": "identity", "dim": 1},
        }, ""),
        ({
            "version": 1,
            "kind": "volterra",
            "symbol": {"kind": "poly", "coefficients": [[[1.0]]]},
            "weight": {"kind": "identity", "dim": 1},
        }, ""),
        ({
            "version": 1,
            "kind": "volterra",
            "symbol": {"kind": "poly", "coefficients": [[[0.0]], [[0.0]]]},
            "weight": {"kind": "identity", "dim": 1},
        }, ""),
        ({
            "version": 1,
            "kind": "embed",
            "symbol": {"kind": "constant", "matrix": [[0.0]]},
            "weight": {"kind": "identity", "dim": 1},
        }, ""),
        ({
            "version": 1,
            "kind": "embed",
            "symbol": {"kind": "radial_power", "exponent": -0.5, "scale": 0},
            "weight": {"kind": "identity", "dim": 1},
        }, ""),
        ({"version": 1, "kind": "intensity", "depth": 2, "seed": 0,
          "measure": {"kind": "random", "dim": 1, "with_density": "false"}}, "with_density"),
        ({"version": 1, "kind": "intensity", "depth": 2, "seed": 0,
          "measure": {"kind": "random", "dim": 1, "with_density": "no"}}, "with_density"),
        ({"version": 1, "kind": "intensity", "depth": 2, "seed": 0,
          "measure": {"kind": "random", "dim": 1, "with_density": 0}}, "with_density"),
        ({"version": 1, "kind": "intensity", "depth": 2, "seed": 0,
          "measure": {"kind": "random", "dim": 1, "with_density": 1}}, "with_density"),
        ({"version": 1, "kind": "b2", "h_grid": [1.0],
          "weight": {"kind": "diagonal_power", "exponents": [0.5, -0.5],
                     "unitary": [[1.0, 0.0], [0.0, 1.0]], "seed": 3}}, "seed"),
        ({"version": 1, "kind": "intensity", "depth": 2,
          "measure": {"kind": "identity_density", "dim": 1000000}}, "dim"),
        ({"version": 1, "kind": "b2", "h_grid": [1.0],
          "weight": {"kind": "identity", "dim": 1000000}}, "dim"),
        ({"version": 1, "kind": "embed", "weight": {"kind": "identity", "dim": 1},
          "symbol": {"kind": "identity", "dim": 100000},
          "grid": {"max_level": 1, "angles": 1}}, "dim"),
        ({"version": 1, "kind": "intensity", "depth": 2, "seed": 0,
          "measure": {"kind": "random", "dim": 1, "num_atoms": 1001}}, "num_atoms"),
        ({"version": True, "kind": "intensity", "depth": 2,
          "measure": {"kind": "atom", "point": [0.5, 0.0]}}, "version"),
        ({"version": 1, "kind": "intensity", "depth": 2,
          "measure": {"kind": "atom", "point": [0.5, 0.0, 0.0]}}, "point"),
        ({"version": 1, "kind": "intensity", "depth": 2, "seed": 0,
          "measure": {"kind": "random", "dim": 1, "annulus": [0.2, 0.5, 0.9]}}, "annulus"),
        ({"version": 1, "kind": "b2", "h_grid": [1.0],
          "weight": {"kind": "scalar_power", "exponent": 0.5, "dim": 2, "matrix": [[2.0]]}}, "dim"),
        ({"version": 1, "kind": "intensity", "depth": 2,
          "measure": {"kind": "atom", "point": [0.5, 0.0], "matrix": [[[1.0]]]}}, "matrix"),
    ],
    ids=[
        "volterra-dimension-mismatch",
        "h-above-one",
        "scalar-power-inverse-not-integrable",
        "random-dim-zero",
        "misspelt-depth",
        "misspelt-measure-key",
        "misspelt-weight-key",
        "misspelt-symbol-key",
        "misspelt-template-key",
        "b2-inverse-not-integrable-for-eta",
        "embed-weight-not-integrable-for-eta",
        "misspelt-grid-key",
        "sweep-template-dim-not-an-integer",
        "sweep-template-matrix-not-one-dimensional",
        "intensity-negative-density",
        "dyadic-norm-negative-density",
        "random-negative-num-atoms",
        "random-fractional-num-atoms",
        "identity-weight-fractional-dim",
        "log-symbol-fractional-dim",
        "volterra-constant-poly-symbol",
        "volterra-zero-poly-symbol",
        "embed-zero-constant-symbol",
        "embed-zero-radial-power-symbol",
        "random-with-density-string-false",
        "random-with-density-string-no",
        "random-with-density-zero",
        "random-with-density-one",
        "diagonal-power-unitary-and-seed",
        "identity-density-dim-million",
        "identity-weight-dim-million",
        "identity-symbol-dim-100000",
        "random-num-atoms-above-cap",
        "version-true",
        "atom-point-of-three",
        "random-annulus-of-three",
        "scalar-power-matrix-and-other-dim",
        "atom-matrix-nested-three-deep",
    ],
)
def test_rejected_inputs_exit_one_without_output(tmp_path, capsys, scenario, needle):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(scenario))
    out_root = tmp_path / "results"
    rc = cli.main([scenario["kind"], "--scenario", str(path), "--out", str(out_root)])
    err = capsys.readouterr().err
    assert rc == 1
    # a row's needle is the key its message must name
    assert err.startswith("error:") and needle in err
    assert "Traceback" not in err
    assert not out_root.exists()


IDENTITY = {"kind": "identity", "dim": 1}
HALF_POWER = {"kind": "scalar_power", "exponent": 0.5}


@pytest.mark.parametrize(
    "scenario, code",
    [
        (
            {"version": 1, "kind": "intensity", "depth": 2,
             "measure": {"kind": "radial_power_density", "exponent": float("nan")}},
            1,
        ),
        (
            {"version": 1, "kind": "intensity", "depth": 2,
             "measure": {"kind": "radial_power_density", "exponent": float("inf")}},
            1,
        ),
        (
            {"version": 1, "kind": "intensity", "depth": 2,
             "measure": {"kind": "radial_power_density", "exponent": 0.5, "scale": float("nan")}},
            1,
        ),
        (
            {"version": 1, "kind": "dyadic-norm", "depth": 2,
             "measure": {"kind": "atom", "point": [0.5, 0.0], "scale": float("nan")}},
            1,
        ),
        (
            {"version": 1, "kind": "embed", "weight": IDENTITY,
             "symbol": {"kind": "radial_power", "exponent": float("nan")}},
            1,
        ),
        (
            {"version": 1, "kind": "volterra", "symbol": {"kind": "log", "dim": 1},
             "weight": {"kind": "scalar_power", "exponent": float("nan")}},
            1,
        ),
        (
            {"version": 1, "kind": "volterra", "weight": IDENTITY,
             "symbol": {"kind": "poly", "coefficients": [1, 2]}},
            1,
        ),
        ({"version": 1, "kind": "b2", "weight": HALF_POWER, "h_grid": [1e-17]}, 0),
        ({"version": 1, "kind": "b2", "weight": HALF_POWER, "h_grid": [1e-300]}, 2),
    ],
    ids=[
        "density-exponent-nan",
        "density-exponent-inf",
        "density-scale-nan",
        "atom-scale-nan",
        "radial-power-symbol-exponent-nan",
        "volterra-weight-exponent-nan",
        "volterra-poly-coefficients-not-matrices",
        "b2-height-below-float-spacing",
        "b2-height-power-mass-underflows",
    ],
)
def test_edge_descriptor_values_exit_cleanly(tmp_path, capsys, scenario, code):
    path = tmp_path / "edge.yaml"
    path.write_text(yaml.safe_dump(scenario))
    out_root = tmp_path / "results"
    rc = cli.main([scenario["kind"], "--scenario", str(path), "--out", str(out_root)])
    captured = capsys.readouterr()
    assert rc == code
    assert "Traceback" not in captured.err
    if code:
        assert not out_root.exists()
    else:
        # 1 - 1e-17 rounds to 1, but the band 0 < 1-|z| < h does not
        run_dir = Path(captured.out.strip())
        report = json.loads((run_dir / "report.json").read_text())
        assert report["results"]["b2_sup"] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_failed_write_exits_one_and_leaves_no_directory(tmp_path, capsys, monkeypatch):
    write_text = Path.write_text

    def failing(path, *args, **kwargs):
        if path.name != "report.json":
            raise OSError("disk full")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing)
    out_root = tmp_path / "results"
    out_root.mkdir()
    rc = cli.main(["intensity", "--depth", "2", "--out", str(out_root)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "disk full" in err
    assert list(out_root.iterdir()) == []


def test_usage_error_exits_one(capsys):
    # exit 2 is numerical degeneracy; a bad command line is a bad configuration
    with pytest.raises(SystemExit) as exc:
        cli.main(["b2", "--bogus"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["b2", "--threads", "4"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["b2", "--help"])
    assert exc.value.code == 0


def test_near_tie_dyadic_norm_routes_agree(tmp_path, capsys):
    scenario = {
        "version": 1,
        "kind": "dyadic-norm",
        "measure": {
            "kind": "atom",
            "point": [0.6, 0.0],
            "matrix": [[1.0, 0.0], [0.0, 1.0 - 1e-4]],
        },
        "depth": 6,
        "seed": 0,
    }
    path = tmp_path / "tie.yaml"
    path.write_text(yaml.safe_dump(scenario))
    rc = cli.main(["dyadic-norm", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    run_dir = Path(capsys.readouterr().out.strip())
    report = json.loads((run_dir / "report.json").read_text())
    assert report["invariants"]["routes_agree"] is True
    assert report["results"]["relative_gap"] < 1e-12
