"""The three benchmark workloads: their inputs, items and output checks.

Every item is one public call into ``bergman_carleson``.  The calls look
the function up on its module when they run (``bc.dyadic_norm``, never a
name bound at import), so the tracer's patched wrappers see them.

An item passes only if it returns, every output check holds and its
headline values match ``reference.json`` (recorded at the commit that
introduced the benchmark) within ``REL_TOL``.  ``KNOWN_DEFECTS`` lists
the items that fail at that commit, with the exact way they fail; the
benchmark reports such a failure but does not count it as a regression.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import bergman_carleson as bc
from bergman_carleson import cli, experiments

#: Relative tolerance for headline values against the recorded reference.
REL_TOL = 1e-9
#: Two-route gate of the dyadic norm identity.
GAP_TOL = 1e-6
#: Slack of the [1, 4] equivalence bracket, as in the report invariants.
BRACKET_SLACK = 1e-9
TOL = 1e-8
#: Result keys that describe how the second route ran rather than what
#: was computed; a better algorithm may change them, so the reference
#: leaves them out (they still enter the bit-identity checks).
NOT_HEADLINE = frozenset({"iterations", "relative_gap", "ratio_spread", "power_iteration"})
ARTIFACTS = ("report.json", "curves.csv", "plot.svg")

KNOWN_DEFECTS = {
    "tilde.area.c0.5": "raise ToleranceNotReached",
    "tilde.area.c0.9": "raise ToleranceNotReached",
    "edge-near-tie-1e-4": "exit 2",
    "edge-h-grid-above-one": "raise ValueError",
    "edge-scalar-power-1.5": "raise ValueError",
    "edge-volterra-dim-mismatch": "raise ValueError",
    "edge-random-dim-0": "raise ZeroDivisionError",
    "edge-misspelt-depth": "exit 0",
}


@dataclass(frozen=True)
class Outcome:
    """What one execution of an item produced.

    ``fingerprint`` is a bit-exact summary (floats as hex, artifact
    digests) that must repeat across passes and under tracing.
    """

    signature: str
    fingerprint: tuple
    problems: tuple[str, ...]
    record: dict | None = None
    digests: dict | None = None


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    evaluate: Callable[[tuple, dict | None], Outcome]


# ---------------------------------------------------------------------------
# comparisons


def _bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return tuple((k, _bits(value[k])) for k in sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return value


def compare(actual, reference, path: str = "") -> list[str]:
    """Differences between a headline record and its reference."""
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [f"{path or 'value'}: expected a mapping"]
        problems = []
        for key in sorted(reference):
            if key not in actual:
                problems.append(f"{path}{key}: missing")
                continue
            problems += compare(actual[key], reference[key], f"{path}{key}.")
        return problems
    if isinstance(reference, list):
        if not isinstance(actual, (list, tuple)) or len(actual) != len(reference):
            return [f"{path.rstrip('.')}: length differs from the reference"]
        problems = []
        for i, (a, r) in enumerate(zip(actual, reference)):
            problems += compare(a, r, f"{path}{i}.")
        return problems
    if isinstance(reference, float) and not isinstance(actual, bool):
        if not isinstance(actual, (int, float)) or not math.isclose(
            actual, reference, rel_tol=REL_TOL, abs_tol=1e-300
        ):
            return [f"{path.rstrip('.')}: {actual!r} != reference {reference!r}"]
        return []
    if actual != reference:
        return [f"{path.rstrip('.')}: {actual!r} != reference {reference!r}"]
    return []


def _library_item(name, run, summarize, check=lambda value: []) -> Item:
    def evaluate(raw, reference):
        kind, value = raw
        if kind == "raise":
            signature = f"raise {type(value).__name__}"
            detail = (str(value), getattr(value, "achieved", None), getattr(value, "evaluations", None))
            return Outcome(signature, (signature, _bits(detail)), (f"{signature}: {value}",))
        record = summarize(value)
        problems = list(check(value))
        if reference is not None:
            problems += compare(record, reference)
        return Outcome("ok", ("ok", _bits(record)), tuple(problems), record)

    return Item(name, run, evaluate)


# ---------------------------------------------------------------------------
# dyadic_tables

#: Value dimensions at depth 8, the shape of acceptance criteria 03-04.
TABLE_DIMS = (1, 2, 4, 8, 16)
#: The criterion-05 templates, swept over dims 1-64 at depth 6.
SWEEP_TEMPLATES = {
    "atom": {"kind": "atom", "point": [0.5, 0.0], "scale": 1.0},
    "radial_power_density": {"kind": "radial_power_density", "exponent": 1.0},
    "random": {"kind": "random", "dim": 1, "seed": 2},
}
SWEEP_DIMS = (1, 2, 4, 8, 16, 32, 64)
#: Seed of every random_measure: fixed, so each workload seed does the
#: same amount of work.
MEASURE_SEED = 0


def _cell(idx) -> list[int]:
    return [idx.level, idx.position]


def _norm_record(r) -> dict:
    return {
        "closed_form": r.closed_form,
        "power_iteration": r.power_iteration,
        "relative_gap": r.relative_gap,
        "iterations": r.iterations,
        "argmax_cell": _cell(r.argmax_cell),
        "residual_norm": r.residual_norm,
    }


def _norm_check(r) -> list[str]:
    if not r.relative_gap < GAP_TOL:
        return [f"routes differ by {r.relative_gap:.3e}"]
    return []


def _equivalence_record(r) -> dict:
    return {
        "norm_b_squared": r.norm_b_squared,
        "alpha": r.alpha,
        "intensity": r.intensity,
        "ratio_upper": r.ratio_upper,
        "covering_slack": r.covering_slack,
        "residual_norm": r.residual_norm,
    }


def _equivalence_check(r) -> list[str]:
    problems = []
    if not 1.0 - BRACKET_SLACK <= r.ratio_upper <= 4.0 + BRACKET_SLACK:
        problems.append(f"ratio_upper {r.ratio_upper!r} outside [1, 4]")
    if not r.covering_slack >= -BRACKET_SLACK:
        problems.append(f"covering certificate fails by {r.covering_slack!r}")
    return problems


def _sweep_record(s) -> dict:
    return {
        "ratio_spread": s.ratio_spread,
        "rows": [[r.dimension, r.norm_b_squared, r.intensity, r.ratio] for r in s.rows],
    }


def _sweep_check(s) -> list[str]:
    if not s.ratio_spread < 1e-8:
        return [f"ratios spread by {s.ratio_spread:.3e} across dimensions"]
    return []


def dyadic_tables(seed: int, root: Path, work_dir: Path) -> list[Item]:
    """Norm identity and equivalence on seeded random measures.

    The workload seed draws the power-iteration start vectors, the lift
    unitaries of the sweeps and the item order.
    """
    rng = np.random.default_rng(seed)
    tables = [(f"d{d}", d, 8) for d in TABLE_DIMS] + [("deep", 4, 12), ("wide", 64, 6)]
    items = []
    for label, dim, depth in tables:
        mu = bc.random_measure(dim, seed=MEASURE_SEED)
        start = int(rng.integers(2**31))
        items.append(
            _library_item(
                f"norm.{label}",
                lambda mu=mu, depth=depth, start=start: bc.dyadic_norm(mu, depth, tol=TOL, seed=start),
                _norm_record,
                _norm_check,
            )
        )
        items.append(
            _library_item(
                f"equivalence.{label}",
                lambda mu=mu, depth=depth, start=start: bc.equivalence_report(
                    mu, depth, tol=TOL, seed=start
                ),
                _equivalence_record,
                _equivalence_check,
            )
        )
    for label, template in SWEEP_TEMPLATES.items():
        bc.measure_from_descriptor(template)  # validate before timing
        lift = int(rng.integers(2**31))
        items.append(
            _library_item(
                f"sweep.{label}",
                lambda template=template, lift=lift: bc.dimension_sweep(
                    template, SWEEP_DIMS, 6, seed=lift, tol=TOL
                ),
                _sweep_record,
                _sweep_check,
            )
        )
    return [items[i] for i in rng.permutation(len(items))]


# ---------------------------------------------------------------------------
# disc_quadrature


def tilde_area_exact(center: complex, ratio: float, nodes: int = 200) -> float:
    """Normalized area of TildeDisc(center, ratio) from its exact boundary.

    In polar coordinates about the center the region is
    s < C / (B + sqrt(B^2 - A C)) with A = 1/ratio^2 - 1,
    B = 1/ratio + Re(conj(center) e^{i phi}), C = 1 - |center|^2; the
    area is (1/2pi) times the integral of s*(phi)^2 over the circle.
    The edge has a corner only in the direction of the origin (where
    |z| is not smooth), so Gauss-Legendre nodes on the period starting
    there converge spectrally.  It shares no code with the package.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    phi = cmath.phase(-center) + math.pi * (x + 1.0)
    a = 1.0 / ratio**2 - 1.0
    b = 1.0 / ratio + np.real(np.conj(center) * np.exp(1j * phi))
    c = 1.0 - abs(center) ** 2
    edge = c / (b + np.sqrt(np.maximum(b * b - a * c, 0.0)))
    return float(np.dot(w, edge * edge)) / 2.0


def _ones(z: np.ndarray) -> np.ndarray:
    return np.ones(z.shape[0])


def _grid_record(g) -> dict:
    return {
        "sup_value": g.sup_value,
        "argmax_point": [g.argmax_point.real, g.argmax_point.imag],
        "values": [v for _, v in g.values],
    }


def _tilde_item(center: float) -> Item:
    exact = tilde_area_exact(complex(center), 0.5)

    def check(area):
        # the quadrature stops when its error estimate is below
        # tol * (1 + |area|); allow ten times that
        if abs(area - exact) > 10.0 * TOL * (1.0 + exact):
            return [f"area {area!r} differs from the boundary integral {exact!r}"]
        return []

    return _library_item(
        f"tilde.area.c{center}",
        lambda: bc.integrate_scalar(_ones, bc.TildeDisc(complex(center), 0.5), bc.PLAIN, tol=TOL),
        lambda area: {"area": area},
        check,
    )


def disc_quadrature(seed: int, root: Path, work_dir: Path) -> list[Item]:
    """Hyperbolic-disc integrals; the workload seed sets the item order."""
    rng = np.random.default_rng(seed)
    # embed_radial_singular: symbol (1-|z|)^(-1/2), identity weight
    problem = bc.EmbeddingProblem(
        symbol=bc.radial_power_field(-0.5, np.eye(1)),
        weight=bc.IdentityWeight(1),
        eta=0.0,
        order=0,
        ratio=0.5,
    )
    embed_grid = bc.default_lambda_grid(0.5, max_level=9, angles=4)
    delta = 0.5 / 2.5
    probes = [lam for lam in embed_grid if lam.imag == 0.0 and lam.real >= delta]
    # volterra_log: log symbol in d=2 against a tilted diagonal power weight
    weight = bc.weight_from_descriptor(
        {"kind": "diagonal_power", "exponents": [0.5, -0.5], "seed": 11}
    )
    symbol = bc.LogSymbol(2)
    volterra_grid = bc.default_lambda_grid(0.5, max_level=9, angles=8)

    def consistency_record(c):
        return {
            "pointwise": _grid_record(c.pointwise),
            "integral": _grid_record(c.integral),
            "max_ratio": c.max_ratio,
        }

    def consistency_check(c):
        return [] if c.satisfied else [f"subharmonic bound fails: {c.max_ratio!r}"]

    items = [
        _library_item(
            "embed.condition",
            lambda: bc.condition_constant(problem, embed_grid, tol=TOL),
            _grid_record,
        ),
        _library_item(
            "embed.necessity",
            lambda: [bc.necessity_lower_bound(problem, 1.0, lam, tol=TOL) for lam in probes],
            lambda values: {"values": list(values)},
        ),
        _library_item(
            "volterra.consistency",
            lambda: bc.volterra_consistency(
                symbol, weight, ratio=0.5, lambda_grid=volterra_grid, tol=TOL
            ),
            consistency_record,
            consistency_check,
        ),
        _tilde_item(0.5),
        _tilde_item(0.9),
    ]
    return [items[i] for i in rng.permutation(len(items))]


# ---------------------------------------------------------------------------
# scenario_suite

SCENARIO_FILES = (
    "b2_scalar_power",
    "dyadic_norm_random",
    "embed_radial_singular",
    "equivalence_deep_atom",
    "intensity_atom",
    "sweep_dimensions",
    "volterra_log",
)
DEFAULT_KINDS = ("intensity", "dyadic-norm", "equivalence", "sweep", "b2", "embed", "volterra")


def _near_tie(eps: float) -> dict:
    # Two identity atoms at +-0.6 cannot be written in the scenario
    # schema (one atom per descriptor).  One atom at 0.6 with matrix
    # diag(1, 1 - eps) gives the block operator the same nonzero
    # spectrum, {1, 1 - eps} / A(T_1), and so the same near tie.
    return {
        "version": 1,
        "kind": "dyadic-norm",
        "measure": {"kind": "atom", "point": [0.6, 0.0], "matrix": [[1.0, 0.0], [0.0, 1.0 - eps]]},
        "depth": 6,
        "seed": 0,
    }


#: name -> (scenario, expected exit code)
EDGE_INPUTS = {
    "edge-near-tie-1e-4": (_near_tie(1e-4), 0),
    "edge-near-tie-1e-6": (_near_tie(1e-6), 0),
    "edge-h-grid-above-one": (
        {"version": 1, "kind": "b2", "weight": {"kind": "scalar_power", "exponent": 0.5}, "h_grid": [1.0 + 5e-13]},
        1,
    ),
    "edge-scalar-power-1.5": (
        {"version": 1, "kind": "b2", "weight": {"kind": "scalar_power", "exponent": 1.5}},
        1,
    ),
    "edge-volterra-dim-mismatch": (
        {"version": 1, "kind": "volterra", "symbol": {"kind": "log", "dim": 2}, "weight": {"kind": "identity", "dim": 1}},
        1,
    ),
    "edge-random-dim-0": (
        {"version": 1, "kind": "dyadic-norm", "measure": {"kind": "random", "dim": 0, "seed": 0}, "seed": 0},
        1,
    ),
    "edge-misspelt-depth": (
        {"version": 1, "kind": "equivalence", "measure": {"kind": "atom", "point": [0.96875, 0.0]}, "dept": 9},
        1,
    ),
}


def suite_names() -> list[str]:
    return list(SCENARIO_FILES) + [f"default-{k}" for k in DEFAULT_KINDS] + list(EDGE_INPUTS)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report_checks(report: dict) -> list[str]:
    problems = [
        f"invariant {key} is {value!r}"
        for key, value in sorted(report.get("invariants", {}).items())
        if value is not True
    ]
    results = report.get("results", {})
    if report.get("kind") == "dyadic-norm" and not results.get("relative_gap", 1.0) < GAP_TOL:
        problems.append(f"routes differ by {results.get('relative_gap')!r}")
    if report.get("kind") == "equivalence":
        ratio = results.get("ratio", 0.0)
        if not 1.0 - BRACKET_SLACK <= ratio <= 4.0 + BRACKET_SLACK:
            problems.append(f"ratio {ratio!r} outside [1, 4]")
    return problems


def _scenario_item(name: str, argv: list[str], expected_exit: int, out_root: Path) -> Item:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv + ["--out", str(out_root)])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, err.getvalue()

    def evaluate(raw, reference):
        try:
            return _scenario_outcome(raw, reference)
        finally:
            shutil.rmtree(out_root, ignore_errors=True)

    def _scenario_outcome(raw, reference):
        kind, value = raw
        run_dirs = sorted(p for p in out_root.glob("*/*") if p.is_dir()) if out_root.exists() else []
        leftovers = ["a failed run left files behind"] if out_root.exists() and any(out_root.iterdir()) else []
        if kind == "raise":
            signature = f"raise {type(value).__name__}"
            problems = [f"traceback {type(value).__name__}: {value}"] + leftovers
            return Outcome(signature, (signature, str(value)), tuple(problems))
        code, stderr = value
        signature = f"exit {code}"
        problems = []
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        if code != expected_exit:
            problems.append(f"exit {code}, expected {expected_exit}: {stderr.strip()[:200]}")
        if expected_exit != 0:
            return Outcome(signature, (signature, stderr), tuple(problems + leftovers))
        if len(run_dirs) != 1:
            problems.append(f"{len(run_dirs)} run directories written, expected 1")
            return Outcome(signature, (signature, stderr), tuple(problems))
        run_dir = run_dirs[0]
        digests = {a: digest(run_dir / a) for a in ARTIFACTS if (run_dir / a).exists()}
        report = json.loads((run_dir / "report.json").read_text())
        problems += _report_checks(report)
        if reference is not None:
            problems += compare(report.get("results", {}), reference)
        fingerprint = (signature, tuple(sorted(digests.items())))
        return Outcome(signature, fingerprint, tuple(problems), report.get("results"), digests)

    return Item(name, run, evaluate)


def scenario_suite(seed: int, root: Path, work_dir: Path) -> list[Item]:
    """Every shipped scenario, every CLI default and the edge inputs,
    through ``cli.main`` in-process; the workload seed sets the order.

    Setup writes the edge inputs as YAML files and validates every entry
    the way the CLI will; an entry that fails validation is still run,
    since its exit code is part of what the suite checks.
    """
    rng = np.random.default_rng(seed)
    edge_dir = work_dir / "edges"
    edge_dir.mkdir(parents=True, exist_ok=True)
    runs = work_dir / "runs"
    entries = []
    for stem in SCENARIO_FILES:
        path = root / "scenarios" / f"{stem}.yaml"
        kind = yaml.safe_load(path.read_text())["kind"]
        entries.append((stem, [kind, "--scenario", str(path)], 0, path))
    for kind in DEFAULT_KINDS:
        entries.append((f"default-{kind}", [kind], 0, None))
    for name, (scenario, expected_exit) in EDGE_INPUTS.items():
        path = edge_dir / f"{name}.yaml"
        path.write_text(yaml.safe_dump(scenario))
        entries.append((name, [scenario["kind"], "--scenario", str(path)], expected_exit, path))
    for name, argv, _, path in entries:
        with contextlib.suppress(bc.ScenarioError):
            if path is None:
                experiments.validate_scenario(dict(cli._DEFAULT_SCENARIOS[argv[0]]))
            else:
                experiments.load_scenario(path)
    items = [
        _scenario_item(name, argv, expected_exit, runs / name)
        for name, argv, expected_exit, _ in entries
    ]
    return [items[i] for i in rng.permutation(len(items))]


BUILDERS = {
    "dyadic_tables": dyadic_tables,
    "disc_quadrature": disc_quadrature,
    "scenario_suite": scenario_suite,
}
