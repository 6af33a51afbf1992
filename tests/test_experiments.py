"""Scenario validation, report artifacts, and byte determinism."""

import json
from pathlib import Path

import pytest

from bergman_carleson.errors import ScenarioError
from bergman_carleson.experiments import (
    build_report,
    curves_csv,
    load_scenario,
    run_scenario,
    validate_scenario,
)

EQUIVALENCE_ATOM = {
    "version": 1,
    "kind": "equivalence",
    "measure": {"kind": "atom", "point": [0.0, 0.0], "scale": 1.0, "dim": 1},
    "depth": 6,
}


class TestValidation:
    def test_version_required(self):
        with pytest.raises(ScenarioError):
            validate_scenario({"kind": "b2", "weight": {"kind": "identity", "dim": 1}})

    def test_unknown_version_rejected(self):
        bad = dict(EQUIVALENCE_ATOM, version=99)
        with pytest.raises(ScenarioError):
            validate_scenario(bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            validate_scenario({"version": 1, "kind": "frobnicate"})

    def test_seed_mandatory_for_random_families(self):
        scenario = {
            "version": 1,
            "kind": "dyadic-norm",
            "measure": {"kind": "random", "dim": 2, "seed": 0},
        }
        with pytest.raises(ScenarioError):
            validate_scenario(dict(scenario))
        assert validate_scenario(dict(scenario, seed=3))["seed"] == 3

    def test_depth_range_checked(self):
        with pytest.raises(ScenarioError):
            validate_scenario(dict(EQUIVALENCE_ATOM, depth=40))

    def test_tol_range_checked(self):
        with pytest.raises(ScenarioError):
            validate_scenario(dict(EQUIVALENCE_ATOM, tol=-1.0))

    def test_defaults_filled_in(self):
        s = validate_scenario(dict(EQUIVALENCE_ATOM))
        assert s["seed"] == 0
        assert s["tol"] == 1e-8

    def test_sweep_template_must_be_scalar(self):
        with pytest.raises(ScenarioError):
            validate_scenario(
                {
                    "version": 1,
                    "kind": "sweep",
                    "template": {"kind": "identity_density", "dim": 2},
                    "dims": [1, 2],
                    "seed": 0,
                }
            )

    def test_invalid_yaml_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("kind: [unclosed")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_h_grid_closed_at_one(self):
        b2 = {"version": 1, "kind": "b2", "weight": {"kind": "identity", "dim": 1}}
        assert validate_scenario(dict(b2, h_grid=[1.0, 0.5]))["h_grid"] == [1.0, 0.5]
        for bad in (1.0 + 5e-13, 0.0, -0.5):
            with pytest.raises(ScenarioError):
                validate_scenario(dict(b2, h_grid=[0.5, bad]))


class TestRunScenario:
    def test_equivalence_atom_report(self, tmp_path):
        run_dir = run_scenario(EQUIVALENCE_ATOM, out_root=tmp_path)
        for name in ("report.json", "curves.csv", "plot.svg", "manifest.json"):
            assert (run_dir / name).exists()
        report = json.loads((run_dir / "report.json").read_text())
        assert report["results"]["ratio"] == pytest.approx(4.0, abs=1e-9)
        assert all(report["invariants"].values())
        assert report["scenario"]["measure"] == EQUIVALENCE_ATOM["measure"]

    def test_sweep_identity_template_flat_csv(self, tmp_path):
        scenario = {
            "version": 1,
            "kind": "sweep",
            "template": {"kind": "identity_density", "dim": 1},
            "dims": [1, 2, 4],
            "depth": 5,
            "seed": 0,
        }
        run_dir = run_scenario(scenario, out_root=tmp_path)
        lines = (run_dir / "curves.csv").read_text().splitlines()
        assert lines[1] == "dimension,norm_b_squared,intensity,ratio"
        for line in lines[2:]:
            ratio = float(line.split(",")[3])
            assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_invalid_scenario_writes_nothing(self, tmp_path):
        with pytest.raises(ScenarioError):
            run_scenario(dict(EQUIVALENCE_ATOM, version="x"), out_root=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_rerun_from_echo_reproduces_report(self, tmp_path):
        first = run_scenario(EQUIVALENCE_ATOM, out_root=tmp_path)
        echo = json.loads((first / "report.json").read_text())["scenario"]
        second = run_scenario(echo, out_root=tmp_path)
        assert (first / "report.json").read_bytes() == (
            second / "report.json"
        ).read_bytes()
        assert (first / "curves.csv").read_bytes() == (
            second / "curves.csv"
        ).read_bytes()

    def test_b2_threads_do_not_change_bytes(self, tmp_path):
        scenario = {
            "version": 1,
            "kind": "b2",
            "weight": {"kind": "scalar_power", "exponent": 0.5, "dim": 1},
            "h_grid": [1.0, 0.5, 0.25, 0.125],
        }
        serial = run_scenario(dict(scenario), out_root=tmp_path, threads=1)
        threaded = run_scenario(dict(scenario), out_root=tmp_path, threads=4)
        for name in ("report.json", "curves.csv", "plot.svg"):
            assert (serial / name).read_bytes() == (threaded / name).read_bytes()

    def test_output_env_var_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BERGMAN_CARLESON_OUT", str(tmp_path / "env-root"))
        run_dir = run_scenario(EQUIVALENCE_ATOM)
        assert run_dir.is_relative_to(tmp_path / "env-root")


class TestReports:
    def test_intensity_atom(self):
        report = build_report(
            validate_scenario(
                {
                    "version": 1,
                    "kind": "intensity",
                    "measure": {
                        "kind": "atom",
                        "point": [0.0, 0.0],
                        "scale": 1.0,
                        "dim": 1,
                    },
                    "depth": 5,
                }
            )
        )
        assert report["results"]["intensity"] == pytest.approx(1.0, abs=1e-12)
        assert report["results"]["tophalf_intensity"] == pytest.approx(4.0, abs=1e-12)
        assert report["results"]["intensity_cell"] == [0, 0]

    def test_dyadic_norm_routes_agree(self):
        report = build_report(
            validate_scenario(
                {
                    "version": 1,
                    "kind": "dyadic-norm",
                    "measure": {"kind": "random", "dim": 2, "seed": 4},
                    "depth": 5,
                    "seed": 4,
                }
            )
        )
        assert report["invariants"]["routes_agree"]
        assert report["results"]["relative_gap"] < 1e-6

    def test_b2_curve_attains_sup(self):
        report = build_report(
            validate_scenario(
                {
                    "version": 1,
                    "kind": "b2",
                    "weight": {"kind": "scalar_power", "exponent": 0.5, "dim": 1},
                    "h_grid": [1.0, 0.5, 0.25],
                }
            )
        )
        values = [row[1] for row in report["curve"]["rows"]]
        assert max(values) == report["results"]["b2_sup"]
        assert report["results"]["b2_sup"] == pytest.approx(64.0 / 45.0, rel=1e-10)

    def test_embed_slopes_agree(self):
        report = build_report(
            validate_scenario(
                {
                    "version": 1,
                    "kind": "embed",
                    "symbol": {"kind": "radial_power", "exponent": -0.5, "dim": 1},
                    "weight": {"kind": "identity", "dim": 1},
                    "gamma": 1.0,
                    "grid": {"max_level": 8, "angles": 1},
                }
            )
        )
        assert report["invariants"]["growth_exponents_agree"]
        assert report["results"]["condition_slope"] == pytest.approx(-0.5, abs=0.1)

    def test_volterra_linear_symbol(self):
        report = build_report(
            validate_scenario(
                {
                    "version": 1,
                    "kind": "volterra",
                    "symbol": {"kind": "linear_identity", "dim": 1},
                    "weight": {"kind": "identity", "dim": 1},
                    "grid": {"max_level": 6, "angles": 1},
                }
            )
        )
        assert report["results"]["pointwise_sup"] == 1.0
        assert report["results"]["recorded_constant"] == 4.0
        assert report["invariants"]["subharmonic_bound"]

    def test_csv_serialization_roundtrips(self):
        report = {
            "kind": "sweep",
            "curve": {
                "columns": ["x", "y"],
                "rows": [[0.1, 1.0 / 3.0], [0.2, 2.0 / 3.0]],
            },
        }
        text = curves_csv(report)
        row = text.splitlines()[2].split(",")
        assert float(row[1]) == 1.0 / 3.0
