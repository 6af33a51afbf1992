"""Scenario validation, report artifacts, and byte determinism."""

import json
from pathlib import Path

import pytest

from bergman_carleson import cli, experiments
from bergman_carleson.errors import ScenarioError
from bergman_carleson.experiments import (
    COMMON_KEYS,
    KIND_KEYS,
    SYMBOL_KEYS,
    VOLTERRA_SYMBOL_KEYS,
    _symbol_field,
    _volterra_symbol,
    build_report,
    curves_csv,
    load_scenario,
    run_scenario,
    validate_scenario,
)
from bergman_carleson.measures import MEASURE_KEYS, measure_from_descriptor
from bergman_carleson.weights import WEIGHT_KEYS, weight_from_descriptor

EQUIVALENCE_ATOM = {
    "version": 1,
    "kind": "equivalence",
    "measure": {"kind": "atom", "point": [0.0, 0.0], "scale": 1.0, "dim": 1},
    "depth": 6,
}
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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

    def test_unknown_key_rejected(self):
        misspelt = {k: v for k, v in EQUIVALENCE_ATOM.items() if k != "depth"}
        with pytest.raises(ScenarioError, match="dept"):
            validate_scenario(dict(misspelt, dept=9))
        with pytest.raises(ScenarioError, match="depth"):
            validate_scenario({"version": 1, "kind": "b2", "weight": {"kind": "identity", "dim": 1}, "depth": 4})

    def test_shipped_and_default_scenarios_validate(self):
        paths = sorted(SCENARIO_DIR.glob("*.yaml"))
        assert paths
        scenarios = [load_scenario(path) for path in paths]
        for scenario in cli._DEFAULT_SCENARIOS.values():
            scenarios.append(validate_scenario(dict(scenario)))
        # and every descriptor in them passes its builder's key check
        for scenario in scenarios:
            for key in ("measure", "template"):
                if key in scenario:
                    measure_from_descriptor(scenario[key])
            if "weight" in scenario:
                weight_from_descriptor(scenario["weight"])
            if scenario["kind"] == "embed":
                _symbol_field(scenario["symbol"])
            if scenario["kind"] == "volterra":
                _volterra_symbol(scenario["symbol"])

    @pytest.mark.parametrize(
        "build, desc",
        [
            (measure_from_descriptor, {"kind": "atom", "point": [0.5, 0.0], "scael": 2.0}),
            (measure_from_descriptor, {"kind": "random", "dim": 1, "sed": 3}),
            (measure_from_descriptor, {"kind": "atom", "point": [0.5, 0.0], "matrix": [[1.0]], "scale": 2.0}),
            (weight_from_descriptor, {"kind": "scalar_power", "exponent": 0.5, "dimm": 2}),
            (weight_from_descriptor, {"kind": "block", "blocks": [{"kind": "identity", "dim": 1, "x": 0}]}),
        ],
    )
    def test_descriptor_typos_rejected(self, build, desc):
        with pytest.raises(ValueError):
            build(desc)

    @pytest.mark.parametrize(
        "build, desc",
        [
            (_symbol_field, {"kind": "radial_power", "exponent": -0.5, "sacle": 2.0}),
            (_volterra_symbol, {"kind": "log", "dim": 1, "order": 2}),
            (_volterra_symbol, {"kind": "nope"}),
        ],
    )
    def test_symbol_typos_rejected(self, build, desc):
        with pytest.raises(ScenarioError):
            build(desc)


class _ReadLog(dict):
    """A scenario mapping that records every top-level key looked up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def test_descriptor_keys_are_what_the_builders_read():
    # every key of every kind set in some example; the builders must read
    # exactly the keys their table allows
    u = [[1.0, 0.0], [0.0, 1.0]]
    cases = [
        (measure_from_descriptor, MEASURE_KEYS, [
            {"kind": "identity_density", "dim": 1},
            {"kind": "atom", "point": [0.5, 0.0], "dim": 1, "scale": 2.0},
            {"kind": "atom", "point": [0.5, 0.0], "matrix": [[1.0]]},
            {"kind": "radial_power_density", "exponent": 1.0, "dim": 1, "scale": 2.0},
            {"kind": "random", "dim": 1, "seed": 1, "num_atoms": 1, "annulus": [0.2, 0.5],
             "with_density": True, "atom_scale": 1.0},
            {"kind": "lifted", "dim": 2, "seed": 1, "template": {"kind": "identity_density", "dim": 1}},
        ]),
        (weight_from_descriptor, WEIGHT_KEYS, [
            {"kind": "identity", "dim": 1},
            {"kind": "scalar_power", "exponent": 0.5, "dim": 2, "matrix": u},
            {"kind": "diagonal_power", "exponents": [0.5, -0.5], "unitary": u},
            {"kind": "diagonal_power", "exponents": [0.5, -0.5], "seed": 11},
            {"kind": "block", "blocks": [{"kind": "identity", "dim": 1}]},
        ]),
        (_symbol_field, SYMBOL_KEYS, [
            {"kind": "identity", "dim": 1},
            {"kind": "radial_power", "exponent": -0.5, "dim": 1, "scale": 2.0},
            {"kind": "constant", "matrix": u},
        ]),
        (_volterra_symbol, VOLTERRA_SYMBOL_KEYS, [
            {"kind": "linear_identity", "dim": 1},
            {"kind": "log", "dim": 1},
            {"kind": "poly", "coefficients": [u, u]},
        ]),
    ]
    for build, table, examples in cases:
        read = {kind: set() for kind in table}
        for desc in examples:
            logged = _ReadLog(desc)
            build(logged)
            read[desc["kind"]] |= logged.read
        for kind, keys in table.items():
            assert read[kind] == set(keys) | {"kind"}, (build.__name__, kind)


def test_handlers_read_only_allowed_keys():
    # every optional key set, on inputs small enough to run fast
    scenarios = [
        dict(EQUIVALENCE_ATOM, kind=kind, depth=2)
        for kind in ("intensity", "dyadic-norm", "equivalence")
    ] + [
        {"version": 1, "kind": "sweep", "template": {"kind": "identity_density", "dim": 1},
         "dims": [1, 2], "depth": 2, "seed": 0},
        {"version": 1, "kind": "b2", "weight": {"kind": "identity", "dim": 1},
         "eta": 0.0, "h_grid": [1.0]},
        {"version": 1, "kind": "embed", "symbol": {"kind": "identity", "dim": 1},
         "weight": {"kind": "identity", "dim": 1}, "eta": 0.0, "order": 0, "ratio": 0.5,
         "gamma": 1.0, "grid": {"max_level": 1, "angles": 1}},
        {"version": 1, "kind": "volterra", "symbol": {"kind": "linear_identity", "dim": 1},
         "weight": {"kind": "identity", "dim": 1}, "ratio": 0.5,
         "grid": {"max_level": 1, "angles": 1}},
    ]
    assert sorted(s["kind"] for s in scenarios) == sorted(KIND_KEYS)
    for scenario in scenarios:
        logged = _ReadLog(validate_scenario(scenario))
        experiments._HANDLERS[logged["kind"]](logged)
        allowed = COMMON_KEYS | KIND_KEYS[logged["kind"]]
        assert logged.read <= allowed, logged["kind"]
        assert KIND_KEYS[logged["kind"]] <= logged.read, logged["kind"]


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

    def test_rendering_error_writes_nothing(self, tmp_path, monkeypatch):
        def failing(report):
            raise ValueError("cannot draw")

        monkeypatch.setattr(experiments, "chart_from_report", failing)
        with pytest.raises(ValueError, match="cannot draw"):
            run_scenario(EQUIVALENCE_ATOM, out_root=tmp_path)
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
        assert report["results"]["integral_route_gap"] < 1e-12
        assert report["invariants"]["subharmonic_bound"]
        assert report["invariants"]["integral_routes_agree"]

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
