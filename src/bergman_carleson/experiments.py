"""Scenario-driven experiment runs with reproducible artifacts.

A scenario is a small YAML document naming an experiment kind and its
family descriptors.  Each run writes an append-only results directory
holding report.json, curves.csv, plot.svg, and manifest.json.  The
first three are byte-deterministic functions of (scenario, seed):
the wall clock and the write time live only in the manifest, so a
repeat run reproduces the artifacts bit for bit.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import json
import math
import os
import shutil
import time
from functools import partial
from pathlib import Path
from typing import Mapping

import numpy as np
import yaml

from . import __version__
from .analytic import (
    EmbeddingProblem,
    OperatorPoly,
    condition_constant,
    default_lambda_grid,
    growth_exponent,
    necessity_lower_bound,
)
from .disc_geometry import carleson_square_area, level_rows, row_areas
from .dyadic import dimension_sweep, dyadic_norm, equivalence_report
from .errors import ScenarioError
from .measures import (
    MEASURE_KEYS,
    REQUIRED,
    _descriptor,
    _dim,
    _integer,
    _list,
    _matrix,
    _number,
    _read,
    _seed,
    carleson_intensity,
    measure_from_descriptor,
    partition_masses,
)
from .plotting import chart_from_report
from .quadrature import DEFAULT_TOL, constant_field, identity_field, radial_power_field
from .volterra import LogSymbol, volterra_consistency
from .weights import WEIGHT_KEYS, b2_constant, default_h_grid, weight_from_descriptor

SCENARIO_VERSION = 1
REPORT_VERSION = 1
OUTPUT_ENV_VAR = "BERGMAN_CARLESON_OUT"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _built(build, desc, label: str):
    """``build(desc)``, with a malformed descriptor raised as ScenarioError."""
    try:
        return build(desc)
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(f"bad {label} descriptor: {exc}") from exc


def _grammar(table: Mapping, label: str) -> tuple:
    """The (reader, default) of a required descriptor key: the reader
    checks the descriptor against ``table`` and keeps it as written,
    since the report echoes it."""

    def read(desc, key):
        _built(lambda d: _descriptor(d, table, label), desc, label)
        return desc

    return read, REQUIRED


#: Each symbol descriptor kind's keys besides ``kind``: key -> (reader, default).
SYMBOL_KEYS = {
    "identity": {"dim": (_dim, REQUIRED)},
    "radial_power": {"exponent": (_number, REQUIRED), "dim": (_dim, 1), "scale": (_number, 1.0)},
    "constant": {"matrix": (_matrix, REQUIRED)},
}
VOLTERRA_SYMBOL_KEYS = {
    "linear_identity": {"dim": (_dim, 1)},
    "log": {"dim": (_dim, 1)},
    "poly": {"coefficients": (partial(_list, read=_matrix), REQUIRED)},
}
#: The keys of the ``grid`` mapping of embed and volterra scenarios.
GRID_KEYS = {
    "max_level": (partial(_integer, lo=1, hi=12), None),
    "angles": (partial(_integer, lo=1, hi=64), None),
}
#: Top-level keys every kind accepts.
COMMON_KEYS = {
    "version": (partial(_integer, lo=SCENARIO_VERSION, hi=SCENARIO_VERSION), REQUIRED),
    "seed": (_seed, 0),
    "tol": (partial(_number, lo=0.0, hi=1.0), DEFAULT_TOL),
}
_DEPTH = (partial(_integer, lo=1, hi=12), 6)
_ETA = (partial(_number, lo=-1.0, hi=16.0), None)
_RATIO = (partial(_number, lo=0.0, hi=1.0), None)
_GRID = (lambda value, key: _read(value, GRID_KEYS, key), None)
_MEASURE = _grammar(MEASURE_KEYS, "measure")
_WEIGHT = _grammar(WEIGHT_KEYS, "weight")
#: The experiment kinds and their top-level keys: exactly those the
#: kind's handler reads, with their (reader, default).
SCENARIO_KEYS = {
    "intensity": {**COMMON_KEYS, "measure": _MEASURE, "depth": _DEPTH},
    "dyadic-norm": {**COMMON_KEYS, "measure": _MEASURE, "depth": _DEPTH},
    "equivalence": {**COMMON_KEYS, "measure": _MEASURE, "depth": _DEPTH},
    "sweep": {**COMMON_KEYS, "template": _grammar(MEASURE_KEYS, "template"),
              "dims": (partial(_list, read=_dim), REQUIRED), "depth": _DEPTH},
    "b2": {**COMMON_KEYS, "weight": _WEIGHT, "eta": _ETA,
           "h_grid": (partial(_list, read=partial(_number, lo=0.0)), None)},
    "embed": {**COMMON_KEYS, "symbol": _grammar(SYMBOL_KEYS, "symbol"), "weight": _WEIGHT,
              "eta": _ETA, "order": (partial(_integer, lo=0, hi=8), None), "ratio": _RATIO,
              "gamma": (partial(_number, lo=-1.0, hi=64.0), None), "grid": _GRID},
    "volterra": {**COMMON_KEYS, "symbol": _grammar(VOLTERRA_SYMBOL_KEYS, "volterra symbol"),
                 "weight": _WEIGHT, "ratio": _RATIO, "grid": _GRID},
}
KINDS = tuple(SCENARIO_KEYS)


def _uses_random_family(scenario: Mapping) -> bool:
    for key in ("measure", "template"):
        desc = scenario.get(key)
        if isinstance(desc, Mapping) and desc.get("kind") == "random":
            return True
    return scenario.get("kind") == "sweep"


def load_scenario(path) -> dict:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario is not valid YAML: {exc}") from exc
    return validate_scenario(raw)


def validate_scenario(raw) -> dict:
    """A scenario mapping read by ``SCENARIO_KEYS``, with the defaults of
    seed, tol and depth written in, after the rules that span keys.

    Raises ScenarioError before any output directory exists, so a bad
    configuration never leaves files behind.
    """
    _require(isinstance(raw, Mapping), "scenario must be a mapping")
    _require(
        "seed" in raw or not _uses_random_family(raw),
        "seed is mandatory for randomized families",
    )
    try:
        _, scenario = _descriptor(raw, SCENARIO_KEYS, "scenario")
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc
    _require(all(h <= 1.0 for h in scenario.get("h_grid", ())), "h must lie in (0, 1]")
    eta = scenario.get("eta", 0.0)
    _require(scenario.get("gamma", math.inf) > eta, f"gamma must exceed eta = {eta:g}")
    if scenario["kind"] == "sweep":
        # a template may set its dimension by its matrix, not by "dim"
        _require(
            _built(measure_from_descriptor, scenario["template"], "template").dimension == 1,
            "sweep template must be one-dimensional",
        )
    return scenario


def _symbol_field(desc: Mapping):
    kind, v = _descriptor(desc, SYMBOL_KEYS, "symbol")
    if kind == "identity":
        field = identity_field(v["dim"])
    elif kind == "radial_power":
        field = radial_power_field(v["exponent"], v["scale"] * np.eye(v["dim"]))
    else:
        field = constant_field(v["matrix"])
    # a zero symbol has no growth to fit
    if not any(np.any(m) for _, m in field.terms):
        raise ValueError("symbol is zero")
    return field


def _volterra_symbol(desc: Mapping):
    kind, v = _descriptor(desc, VOLTERRA_SYMBOL_KEYS, "volterra symbol")
    if kind == "linear_identity":
        return OperatorPoly.linear_identity(v["dim"])
    if kind == "log":
        return LogSymbol(v["dim"])
    coeffs = np.stack(v["coefficients"])
    symbol = OperatorPoly(dimension=coeffs.shape[1], coefficients=coeffs)
    # both forms of the criterion vanish for a constant symbol
    if not np.any(symbol.derivative().coefficients):
        raise ValueError("volterra symbol is constant")
    return symbol


def _require_integrable(field, eta: float, label: str) -> None:
    """Every power term (1-|z|)**s of a weight field is integrable
    against dA_eta, that is eta + s > -1."""
    for power, _ in field.terms:
        _require(
            eta + power > -1.0,
            f"{label} term (1-|z|)^{power:g} is not integrable for eta = {eta:g}",
        )


def _cell(idx) -> list[int]:
    return [idx.level, idx.position]


def _point(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _level_curve(masses) -> list[list[float]]:
    """Per level, the largest square and cell ratio ||mass|| / area."""
    depth = masses.depth
    squares = masses.square_norms / row_areas(depth, carleson_square_area)
    cells = masses.cell_norms / row_areas(depth)
    rows = []
    for level in range(depth + 1):
        sq, cell = squares[level_rows(level)], cells[level_rows(level)]
        # argmax keeps the first maximum, so equal values (and signed zeros)
        # resolve to the smallest position
        rows.append([float(level), float(sq[sq.argmax()]), float(cell[cell.argmax()])])
    return rows


def _base_report(kind: str, scenario: Mapping) -> dict:
    return {
        "format_version": REPORT_VERSION,
        "kind": kind,
        "scenario": dict(scenario),
    }


def _run_intensity(s: Mapping) -> dict:
    mu = _built(measure_from_descriptor, s["measure"], "measure")
    masses = partition_masses(mu, s["depth"], tol=s["tol"])
    rep = carleson_intensity(mu, s["depth"], tol=s["tol"], masses=masses)
    report = _base_report("intensity", s)
    report["results"] = {
        "intensity": rep.intensity,
        "tophalf_intensity": rep.tophalf_intensity,
        "intensity_cell": _cell(rep.intensity_cell),
        "tophalf_cell": _cell(rep.tophalf_cell),
        "depth": rep.depth,
        "residual_norm": rep.residual_norm,
    }
    report["invariants"] = {
        "tophalf_within_factor_four": bool(
            rep.tophalf_intensity <= 4.0 * rep.intensity * (1.0 + 1e-12)
        )
    }
    report["curve"] = {
        "columns": ["level", "square_intensity", "cell_intensity"],
        "rows": _level_curve(masses),
    }
    report["plot"] = {
        "title": "Carleson intensity by level",
        "xlabel": "level",
        "ylabel": "mass over area",
    }
    return report


def _run_dyadic_norm(s: Mapping) -> dict:
    mu = _built(measure_from_descriptor, s["measure"], "measure")
    masses = partition_masses(mu, s["depth"], tol=s["tol"])
    result = dyadic_norm(
        mu, s["depth"], tol=s["tol"], seed=s["seed"], masses=masses
    )
    report = _base_report("dyadic-norm", s)
    report["results"] = {
        "closed_form": result.closed_form,
        "power_iteration": result.power_iteration,
        "relative_gap": result.relative_gap,
        "iterations": result.iterations,
        "argmax_cell": _cell(result.argmax_cell),
        "residual_norm": result.residual_norm,
    }
    report["invariants"] = {"routes_agree": bool(result.relative_gap < 1e-6)}
    report["curve"] = {
        "columns": ["level", "square_intensity", "cell_intensity"],
        "rows": _level_curve(masses),
    }
    report["plot"] = {
        "title": "cell mass ratios by level",
        "xlabel": "level",
        "ylabel": "mass over area",
    }
    return report


def _run_equivalence(s: Mapping) -> dict:
    mu = _built(measure_from_descriptor, s["measure"], "measure")
    masses = partition_masses(mu, s["depth"], tol=s["tol"])
    rep = equivalence_report(mu, s["depth"], tol=s["tol"], seed=s["seed"], masses=masses)
    report = _base_report("equivalence", s)
    report["results"] = {
        "norm_b_squared": rep.norm_b_squared,
        "alpha": rep.alpha,
        "intensity": rep.intensity,
        "ratio": rep.ratio_upper,
        "covering_slack": rep.covering_slack,
        "depth": rep.depth,
        "residual_norm": rep.residual_norm,
    }
    report["invariants"] = {
        "ratio_at_least_one": bool(rep.ratio_upper >= 1.0 - 1e-9),
        "ratio_at_most_four": bool(rep.ratio_upper <= 4.0 + 1e-9),
        "covering_certificate": bool(rep.covering_slack >= -1e-9),
    }
    report["curve"] = {
        "columns": ["level", "square_intensity", "cell_intensity"],
        "rows": _level_curve(masses),
    }
    report["plot"] = {
        "title": "square and cell intensities",
        "xlabel": "level",
        "ylabel": "mass over area",
    }
    return report


def _run_sweep(s: Mapping) -> dict:
    sweep = dimension_sweep(
        s["template"], s["dims"], s["depth"], seed=s["seed"], tol=s["tol"]
    )
    report = _base_report("sweep", s)
    report["results"] = {
        "ratio_spread": sweep.ratio_spread,
        "depth": sweep.depth,
        "dims": [row.dimension for row in sweep.rows],
    }
    report["invariants"] = {"dimension_free": bool(sweep.ratio_spread < 1e-8)}
    report["curve"] = {
        "columns": ["dimension", "norm_b_squared", "intensity", "ratio"],
        "rows": [
            [float(r.dimension), r.norm_b_squared, r.intensity, r.ratio]
            for r in sweep.rows
        ],
    }
    report["plot"] = {
        "title": "embedding ratio across dimensions",
        "xlabel": "dimension",
        "ylabel": "ratio",
        "y_columns": ["ratio"],
    }
    return report


def _run_b2(s: Mapping) -> dict:
    weight = _built(weight_from_descriptor, s["weight"], "weight")
    try:
        inverse_field = weight.inverse().field()
    except ValueError as exc:
        raise ScenarioError(f"weight inverse is not integrable: {exc}") from exc
    eta = s.get("eta", 0.0)
    _require_integrable(weight.field(), eta, "weight")
    _require_integrable(inverse_field, eta, "weight inverse")
    hs = tuple(s["h_grid"]) if "h_grid" in s else default_h_grid()
    # each row is the maximum over its own squares, so the first maximum
    # of the rows is the grid supremum
    rows = [[h, b2_constant(weight, eta=eta, h_grid=(h,), tol=s["tol"])] for h in hs]
    sup = max(value for _, value in rows)
    report = _base_report("b2", s)
    report["results"] = {
        "b2_sup": sup,
        "eta": eta,
        "within_membership_window": bool(weight.b2_membership(eta)),
    }
    report["invariants"] = {"at_least_one": bool(sup >= 1.0 - 1e-12)}
    report["curve"] = {"columns": ["h", "b2_value"], "rows": rows}
    report["plot"] = {
        "title": "two-average norm by square size",
        "xlabel": "h",
        "ylabel": "value",
        "loglog": True,
    }
    return report


def _run_embed(s: Mapping) -> dict:
    symbol = _built(_symbol_field, s["symbol"], "symbol")
    weight = _built(weight_from_descriptor, s["weight"], "weight")
    eta = s.get("eta", 0.0)
    _require_integrable(weight.field(), eta, "weight")
    order = s.get("order", 0)
    ratio = s.get("ratio", 0.5)
    gamma = s.get("gamma", eta + 1.0)
    grid_cfg = s.get("grid", {})
    grid = default_lambda_grid(
        ratio,
        max_level=grid_cfg.get("max_level", 8),
        angles=grid_cfg.get("angles", 4),
    )
    try:
        problem = EmbeddingProblem(
            symbol=symbol, weight=weight, eta=eta, order=order, ratio=ratio
        )
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"bad embedding problem: {exc}") from exc
    condition = condition_constant(problem, grid, tol=s["tol"])
    delta = ratio / (ratio + 2.0)
    rows = []
    for lam, value in condition.radial_section():
        if abs(lam) < delta:
            continue
        lower = necessity_lower_bound(problem, gamma, lam, tol=s["tol"])
        rows.append([1.0 - abs(lam), value, lower])
    deep = [r for r in rows if r[0] <= 0.125]
    condition_slope = (
        growth_exponent([(r[0], r[1]) for r in deep]) if len(deep) >= 2 else None
    )
    necessity_slope = (
        growth_exponent([(r[0], r[2]) for r in deep]) if len(deep) >= 2 else None
    )
    slopes_agree = (
        abs(condition_slope - necessity_slope) < 0.2
        if condition_slope is not None and necessity_slope is not None
        else None
    )
    report = _base_report("embed", s)
    report["results"] = {
        "condition_sup": condition.sup_value,
        "condition_argmax": _point(condition.argmax_point),
        "condition_slope": condition_slope,
        "necessity_slope": necessity_slope,
        "gamma": gamma,
        "order": order,
        "ratio": ratio,
        "eta": eta,
    }
    report["invariants"] = {"growth_exponents_agree": slopes_agree}
    report["curve"] = {
        "columns": ["gap", "condition", "necessity"],
        "rows": rows,
    }
    report["plot"] = {
        "title": "embedding condition against the kernel lower bound",
        "xlabel": "distance to boundary",
        "ylabel": "value",
        "loglog": True,
        "slope": condition_slope,
    }
    return report


def _run_volterra(s: Mapping) -> dict:
    symbol = _built(_volterra_symbol, s["symbol"], "volterra symbol")
    weight = _built(weight_from_descriptor, s["weight"], "weight")
    _require(symbol.dimension == weight.dim, "symbol and weight dimensions differ")
    ratio = s.get("ratio", 0.5)
    grid_cfg = s.get("grid", {})
    grid = default_lambda_grid(
        ratio,
        max_level=grid_cfg.get("max_level", 8),
        angles=grid_cfg.get("angles", 4),
    )
    consistency = volterra_consistency(
        symbol, weight, ratio=ratio, lambda_grid=grid, tol=s["tol"]
    )
    rows = []
    section = {lam: v for lam, v in consistency.pointwise.radial_section()}
    for lam, integral_value in consistency.integral.radial_section():
        rows.append([1.0 - abs(lam), section[lam], integral_value])
    report = _base_report("volterra", s)
    report["results"] = {
        "pointwise_sup": consistency.pointwise.sup_value,
        "pointwise_argmax": _point(consistency.pointwise.argmax_point),
        "integral_sup": consistency.integral.sup_value,
        "consistency_max_ratio": consistency.max_ratio,
        "recorded_constant": consistency.theoretical_bound,
        "ratio": ratio,
        "integral_route_gap": consistency.integral_route_gap,
    }
    report["invariants"] = {
        "subharmonic_bound": bool(consistency.satisfied),
        "integral_routes_agree": bool(consistency.integral_route_gap < 1e-9),
    }
    report["curve"] = {
        "columns": ["gap", "pointwise", "integral"],
        "rows": rows,
    }
    report["plot"] = {
        "title": "Volterra criterion on the radial grid",
        "xlabel": "distance to boundary",
        "ylabel": "value",
        "loglog": True,
    }
    return report


_HANDLERS = {
    "intensity": _run_intensity,
    "dyadic-norm": _run_dyadic_norm,
    "equivalence": _run_equivalence,
    "sweep": _run_sweep,
    "b2": _run_b2,
    "embed": _run_embed,
    "volterra": _run_volterra,
}


def build_report(scenario: Mapping) -> dict:
    """Compute a full report dict for a validated scenario."""
    return _HANDLERS[scenario["kind"]](scenario)


def _csv_number(value: float) -> str:
    return f"{float(value):.17g}"


def curves_csv(report: Mapping) -> str:
    curve = report["curve"]
    lines = [f"# bergman-carleson curves v{REPORT_VERSION} kind={report['kind']}"]
    lines.append(",".join(curve["columns"]))
    for row in curve["rows"]:
        lines.append(",".join(_csv_number(v) for v in row))
    return "\n".join(lines) + "\n"


def output_root(explicit=None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(OUTPUT_ENV_VAR)
    return Path(env) if env else Path("results")


def _staged_run_dir(base: Path, seed: int) -> tuple[Path, Path]:
    """A fresh run directory name under ``base`` and its staging
    directory ``<run>.tmp``, which is created; the run directory is not."""
    base.mkdir(parents=True, exist_ok=True)
    while True:
        stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
        run_dir = base / f"{stamp}-{seed}"
        staging = base / f"{run_dir.name}.tmp"
        if not run_dir.exists() and not staging.exists():
            staging.mkdir()
            return run_dir, staging


def run_scenario(source, out_root=None) -> Path:
    """Execute one scenario and persist its artifacts.

    ``source`` is a scenario file path or an already-loaded mapping.
    Returns the run directory.  Nothing is written unless validation,
    computation and rendering all succeed, and the run directory
    appears whole: the artifacts go to ``<run>.tmp``, renamed once
    ``manifest.json`` is written.  A failed write removes the staging directory and every
    directory the run created, and raises ScenarioError.
    """
    if isinstance(source, Mapping):
        scenario = validate_scenario(dict(source))
        source_label = "inline"
    else:
        scenario = load_scenario(source)
        source_label = str(source)
    started = time.perf_counter()
    report = build_report(scenario)
    wall = time.perf_counter() - started
    # rendered before any directory exists, so a rendering error leaves none
    artifacts = {
        "report.json": json.dumps(report, sort_keys=True, indent=2) + "\n",
        "curves.csv": curves_csv(report),
    }
    svg = chart_from_report(report) if len(report["curve"]["rows"]) >= 2 else None
    plot_emitted = svg is not None
    if plot_emitted:
        artifacts["plot.svg"] = svg
    base = output_root(out_root) / scenario["kind"]
    # deepest first, so each is empty by the time it is removed
    created = [p for p in (base, *base.parents) if not p.exists()]
    staging = None
    try:
        run_dir, staging = _staged_run_dir(base, scenario["seed"])
        for name, text in artifacts.items():
            (staging / name).write_text(text)
        manifest = {
            "package_version": __version__,
            "wall_clock_seconds": wall,
            "written_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "source": source_label,
            "plot_emitted": plot_emitted,
            "determinism_note": "wall clock and write time are recorded here "
            "only; report.json, curves.csv and plot.svg are functions of "
            "(scenario, seed)",
        }
        (staging / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )
        staging.rename(run_dir)
    except OSError as exc:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        for path in created:
            with contextlib.suppress(OSError):
                path.rmdir()
        raise ScenarioError(f"cannot write the run directory: {exc}") from exc
    return run_dir
