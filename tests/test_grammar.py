"""The scenario grammar, fuzzed through the command line.

Scenarios are drawn from the key tables themselves: one strategy per
table key, each mixing small valid values with junk.  Every run must
either succeed with one complete run directory or exit 1, 2 or 3 with
no traceback and no directory.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings, strategies as st

from bergman_carleson import cli
from bergman_carleson.experiments import (
    GRID_KEYS,
    SCENARIO_KEYS,
    SYMBOL_KEYS,
    VOLTERRA_SYMBOL_KEYS,
)
from bergman_carleson.measures import MEASURE_KEYS, REQUIRED
from bergman_carleson.weights import WEIGHT_KEYS

JUNK = st.sampled_from([
    None, True, False, "x", "", float("nan"), float("inf"), float("-inf"),
    -1, 0, 10**6, 2**70, [], [0.5, 0.5, 0.5], {}, {"kind": "x"},
])


def _mixed(valid):
    """Mostly ``valid``, one draw in eight from ``JUNK``."""
    return st.integers(0, 7).flatmap(lambda i: JUNK if i == 0 else valid)


def _one(*values):
    return _mixed(st.sampled_from(values))


EYE2 = [[1.0, 0.0], [0.0, 1.0]]
MATRIX = _one([[1.0]], [[2.0]], EYE2, [[2.0, 0.5], [0.5, 1.0]], [[[1.0, 0.0]]], [[0.0]])
DIM = _mixed(st.integers(1, 2))
SEED = _mixed(st.integers(0, 3))


@st.composite
def _descriptors(draw, table, values, kinds=None):
    """A descriptor of a kind of ``table``: required keys almost always,
    optional keys half the time, now and then a misspelt key."""
    kind = draw(_one(*(kinds or sorted(table))))
    desc = {"kind": kind}
    keys = table.get(kind, {}) if isinstance(kind, str) else {}
    for key, (_, default) in keys.items():
        if draw(st.integers(0, 9)) < (9 if default is REQUIRED else 5):
            desc[key] = draw(values[key])
    if draw(st.integers(0, 19)) == 0:
        desc[draw(st.sampled_from(["dimm", "sed", "scael"]))] = 1
    return desc


#: One strategy per key of each table (for the scenario table, per key
#: over all kinds).
STRATEGIES = {
    "measure": {
        "dim": DIM,
        "point": _one([0.0, 0.0], [0.5, 0.0], [0.0, -0.96875], [1.0, 0.0]),
        "matrix": MATRIX,
        "scale": _one(1.0, 2.0, -1.0),
        "exponent": _one(0.5, 1.0, 1.5),
        "seed": SEED,
        "num_atoms": _mixed(st.integers(0, 3)),
        "annulus": _one([0.2, 0.9], [0.1, 0.5], [0.9, 0.2]),
        "with_density": _mixed(st.booleans()),
        "atom_scale": _one(1.0, 0.5),
        "template": st.deferred(
            lambda: _descriptors(MEASURE_KEYS, STRATEGIES["measure"], ["atom", "identity_density", "random"])
        ),
    },
    "weight": {
        "dim": DIM,
        "exponent": _one(-0.5, 0.0, 0.5),
        "matrix": MATRIX,
        "exponents": _one([0.5], [0.5, -0.5], [0.25, 0.0]),
        "unitary": MATRIX,
        "seed": SEED,
        "blocks": st.deferred(
            lambda: _mixed(st.lists(
                _descriptors(WEIGHT_KEYS, STRATEGIES["weight"], ["identity", "scalar_power"]),
                min_size=1, max_size=2,
            ))
        ),
    },
    "symbol": {
        "dim": DIM,
        "exponent": _one(-0.5, 0.5),
        "scale": _one(1.0, 0.0),
        "matrix": MATRIX,
    },
    "volterra symbol": {
        "dim": DIM,
        "coefficients": _one([[[0.0]], [[1.0]]], [[[1.0]], [[0.0]], [[1.0]]], [[[1.0]]], [EYE2, EYE2]),
    },
    "grid": {
        "max_level": _mixed(st.integers(1, 2)),
        "angles": _mixed(st.integers(1, 2)),
    },
}
STRATEGIES["scenario"] = {
    "version": _one(1),
    "seed": SEED,
    "tol": _one(1e-8, 1e-6),
    "depth": _mixed(st.integers(1, 3)),
    "measure": _descriptors(MEASURE_KEYS, STRATEGIES["measure"]),
    "template": STRATEGIES["measure"]["template"],
    "dims": _mixed(st.lists(st.integers(1, 2), min_size=1, max_size=2)),
    "weight": _descriptors(WEIGHT_KEYS, STRATEGIES["weight"]),
    "eta": _one(0.0, 0.5, -0.5),
    "h_grid": _mixed(st.lists(st.sampled_from([1.0, 0.5, 0.25, 1.5]), min_size=1, max_size=2)),
    "symbol": st.one_of(
        _descriptors(SYMBOL_KEYS, STRATEGIES["symbol"]),
        _descriptors(VOLTERRA_SYMBOL_KEYS, STRATEGIES["volterra symbol"]),
    ),
    "order": _one(0, 1, 9),
    "ratio": _one(0.5, 0.25),
    "gamma": _one(1.0, 2.0, 0.0),
    "grid": _mixed(st.fixed_dictionaries({}, optional=STRATEGIES["grid"])),
}
TABLES = {
    "scenario": SCENARIO_KEYS,
    "measure": MEASURE_KEYS,
    "weight": WEIGHT_KEYS,
    "symbol": SYMBOL_KEYS,
    "volterra symbol": VOLTERRA_SYMBOL_KEYS,
    "grid": {None: GRID_KEYS},
}


def test_strategies_cover_every_table_key():
    # a key added to a table without a strategy here fails this test
    for name, table in TABLES.items():
        keys = set().union(*(kind_keys.keys() for kind_keys in table.values()))
        assert set(STRATEGIES[name]) == keys, name


@settings(max_examples=50, deadline=None, derandomize=True)
@given(scenario=_descriptors(SCENARIO_KEYS, STRATEGIES["scenario"]))
def test_drawn_scenarios_run_or_exit_cleanly(scenario):
    kind = scenario["kind"]
    command = kind if isinstance(kind, str) and kind in SCENARIO_KEYS else "intensity"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.yaml"
        path.write_text(yaml.safe_dump(scenario))
        out_root = Path(tmp) / "results"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main([command, "--scenario", str(path), "--out", str(out_root)])
        assert "Traceback" not in err.getvalue()
        if rc == 0:
            runs = list(out_root.glob("*/*"))
            assert len(runs) == 1 and not runs[0].name.endswith(".tmp"), runs
            names = {p.name for p in runs[0].iterdir()}
            assert {"report.json", "curves.csv", "manifest.json"} <= names, names
        else:
            assert rc in (1, 2, 3), (rc, err.getvalue())
            assert not out_root.exists()
