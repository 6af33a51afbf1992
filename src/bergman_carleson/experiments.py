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
from pathlib import Path
from typing import Mapping, Sequence

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
    _decode_matrix,
    _descriptor_kind,
    _integer,
    carleson_intensity,
    measure_from_descriptor,
    partition_masses,
)
from .plotting import chart_from_report
from .quadrature import constant_field, identity_field, radial_power_field
from .volterra import LogSymbol, volterra_consistency
from .weights import b2_constant, default_h_grid, weight_from_descriptor

SCENARIO_VERSION = 1
REPORT_VERSION = 1
OUTPUT_ENV_VAR = "BERGMAN_CARLESON_OUT"
#: Top-level keys every kind accepts.
COMMON_KEYS = frozenset({"version", "kind", "seed", "tol"})
#: The experiment kinds and their further top-level keys: exactly those
#: the kind's handler reads.
KIND_KEYS = {
    "intensity": frozenset({"measure", "depth"}),
    "dyadic-norm": frozenset({"measure", "depth"}),
    "equivalence": frozenset({"measure", "depth"}),
    "sweep": frozenset({"template", "dims", "depth"}),
    "b2": frozenset({"weight", "eta", "h_grid"}),
    "embed": frozenset({"symbol", "weight", "eta", "order", "ratio", "gamma", "grid"}),
    "volterra": frozenset({"symbol", "weight", "ratio", "grid"}),
}
KINDS = tuple(KIND_KEYS)
#: The keys of the ``grid`` mapping of embed and volterra scenarios.
GRID_KEYS = frozenset({"max_level", "angles"})


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _as_int(value, name: str, lo: int, hi: int) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), f"{name} must be an integer")
    _require(lo <= value <= hi, f"{name} must lie in [{lo}, {hi}]")
    return value


def _as_float(value, name: str, lo: float, hi: float) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{name} must be a number")
    value = float(value)
    _require(lo < value < hi, f"{name} must lie in ({lo}, {hi})")
    return value


def _mapping(value, name: str) -> dict:
    _require(isinstance(value, Mapping), f"{name} must be a mapping")
    return dict(value)


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
    """Normalize and range-check a scenario mapping.

    Raises ScenarioError before any output directory exists, so a bad
    configuration never leaves files behind.
    """
    scenario = _mapping(raw, "scenario")
    _require(
        scenario.get("version") == SCENARIO_VERSION,
        f"unrecognized scenario version {scenario.get('version')!r}",
    )
    kind = scenario.get("kind")
    _require(kind in KINDS, f"unknown experiment kind {kind!r}")
    unknown = sorted(str(key) for key in scenario.keys() - COMMON_KEYS - KIND_KEYS[kind])
    _require(not unknown, f"unknown {kind} scenario keys: {', '.join(unknown)}")
    if "seed" in scenario:
        scenario["seed"] = _as_int(scenario["seed"], "seed", 0, 2**64 - 1)
    else:
        _require(
            not _uses_random_family(scenario),
            "seed is mandatory for randomized families",
        )
        scenario["seed"] = 0
    scenario["tol"] = (
        _as_float(scenario["tol"], "tol", 0.0, 1.0) if "tol" in scenario else 1e-8
    )
    if kind in ("intensity", "dyadic-norm", "equivalence", "sweep"):
        scenario["depth"] = (
            _as_int(scenario["depth"], "depth", 1, 12) if "depth" in scenario else 6
        )
    if kind in ("intensity", "dyadic-norm", "equivalence"):
        _mapping(scenario.get("measure"), "measure descriptor")
    if kind == "sweep":
        template = _mapping(scenario.get("template"), "template descriptor")
        _require(
            _as_int(template.get("dim", 1), "template dim", 1, 128) == 1,
            "sweep template must be one-dimensional",
        )
        dims = scenario.get("dims")
        _require(
            isinstance(dims, Sequence) and not isinstance(dims, (str, bytes)) and dims,
            "dims must be a nonempty list",
        )
        scenario["dims"] = [_as_int(d, "dims entry", 1, 128) for d in dims]
    if kind == "b2":
        _mapping(scenario.get("weight"), "weight descriptor")
        if "eta" in scenario:
            scenario["eta"] = _as_float(scenario["eta"], "eta", -1.0, 16.0)
        if "h_grid" in scenario:
            hs = scenario["h_grid"]
            _require(
                isinstance(hs, Sequence) and hs, "h_grid must be a nonempty list"
            )
            scenario["h_grid"] = [_as_float(h, "h", 0.0, math.inf) for h in hs]
            _require(max(scenario["h_grid"]) <= 1.0, "h must lie in (0, 1]")
    if kind in ("embed", "volterra"):
        _mapping(scenario.get("symbol"), "symbol descriptor")
        _mapping(scenario.get("weight"), "weight descriptor")
        if "ratio" in scenario:
            scenario["ratio"] = _as_float(scenario["ratio"], "ratio", 0.0, 1.0)
        if "eta" in scenario:
            scenario["eta"] = _as_float(scenario["eta"], "eta", -1.0, 16.0)
        if "grid" in scenario:
            grid = _mapping(scenario["grid"], "grid")
            unknown = sorted(str(key) for key in grid.keys() - GRID_KEYS)
            _require(not unknown, f"unknown grid keys: {', '.join(unknown)}")
            if "max_level" in grid:
                grid["max_level"] = _as_int(grid["max_level"], "grid.max_level", 1, 12)
            if "angles" in grid:
                grid["angles"] = _as_int(grid["angles"], "grid.angles", 1, 64)
            scenario["grid"] = grid
    if kind == "embed":
        if "order" in scenario:
            scenario["order"] = _as_int(scenario["order"], "order", 0, 8)
        if "gamma" in scenario:
            eta = scenario.get("eta", 0.0)
            scenario["gamma"] = _as_float(scenario["gamma"], "gamma", eta, 64.0)
    return scenario


#: The keys each symbol descriptor kind reads, besides ``kind``.
SYMBOL_KEYS = {
    "identity": {"dim"}, "radial_power": {"exponent", "dim", "scale"}, "constant": {"matrix"}
}
VOLTERRA_SYMBOL_KEYS = {"linear_identity": {"dim"}, "log": {"dim"}, "poly": {"coefficients"}}


def _symbol_field(desc: Mapping):
    try:
        kind = _descriptor_kind(desc, SYMBOL_KEYS, "symbol")
        if kind == "identity":
            return identity_field(_integer(desc["dim"], "dim"))
        if kind == "radial_power":
            dim = _integer(desc.get("dim", 1), "dim")
            scale = float(desc.get("scale", 1.0))
            field = radial_power_field(float(desc["exponent"]), scale * np.eye(dim))
        else:
            field = constant_field(_decode_matrix(desc["matrix"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(f"bad symbol descriptor: {exc}") from exc
    # a zero symbol has no growth to fit
    _require(any(np.any(m) for _, m in field.terms), "symbol is zero")
    return field


def _volterra_symbol(desc: Mapping):
    try:
        kind = _descriptor_kind(desc, VOLTERRA_SYMBOL_KEYS, "volterra symbol")
        if kind == "linear_identity":
            return OperatorPoly.linear_identity(_integer(desc.get("dim", 1), "dim"))
        if kind == "log":
            return LogSymbol(_integer(desc.get("dim", 1), "dim"))
        coeffs = np.stack([_decode_matrix(c) for c in desc["coefficients"]])
        symbol = OperatorPoly(dimension=coeffs.shape[1], coefficients=coeffs)
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(f"bad volterra symbol descriptor: {exc}") from exc
    # both forms of the criterion vanish for a constant symbol
    _require(np.any(symbol.derivative().coefficients), "volterra symbol is constant")
    return symbol


def _measure_or_error(desc: Mapping):
    try:
        return measure_from_descriptor(desc)
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(f"bad measure descriptor: {exc}") from exc


def _weight_or_error(desc: Mapping):
    try:
        return weight_from_descriptor(desc)
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(f"bad weight descriptor: {exc}") from exc


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
    mu = _measure_or_error(s["measure"])
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
    mu = _measure_or_error(s["measure"])
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
    mu = _measure_or_error(s["measure"])
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
    # a template may set its dimension by its matrix, not by "dim"
    _require(
        _measure_or_error(s["template"]).dimension == 1,
        "sweep template must be one-dimensional",
    )
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
    weight = _weight_or_error(s["weight"])
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
    symbol = _symbol_field(s["symbol"])
    weight = _weight_or_error(s["weight"])
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
    symbol = _volterra_symbol(s["symbol"])
    weight = _weight_or_error(s["weight"])
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
    plot_emitted = len(report["curve"]["rows"]) >= 2
    if plot_emitted:
        artifacts["plot.svg"] = chart_from_report(report)
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
