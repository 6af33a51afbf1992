"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with -s, or in the
captured output on failure) and asserts the stated tolerance verbatim.
Nothing here loosens a bound to make a run green: a failing criterion
is supposed to fail loudly.
"""

import math

import numpy as np
import pytest

from bergman_carleson.analytic import (
    EmbeddingProblem,
    condition_constant,
    growth_exponent,
    necessity_lower_bound,
    embedding_ratio,
    VectorPoly,
)
from bergman_carleson.disc_geometry import (
    TopHalfPartition,
    WholeDisc,
    square_to_top_half_ratio,
    top_half_area,
    top_half_partition,
)
from bergman_carleson.dyadic import dimension_sweep, dyadic_norm, equivalence_report
from bergman_carleson.experiments import run_scenario
from bergman_carleson.measures import atom_measure, partition_masses, random_measure
from bergman_carleson.quadrature import (
    MeasureSpec,
    PLAIN,
    identity_field,
    integrate_values,
    radial_power_field,
)
from bergman_carleson.volterra import volterra_condition, volterra_consistency
from bergman_carleson.analytic import default_lambda_grid
from bergman_carleson.volterra import LogSymbol
from bergman_carleson.analytic import OperatorPoly
from bergman_carleson.weights import IdentityWeight, ScalarPowerWeight, b2_constant


def _verdict(number: int, label: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number:02d}] {status} - {label}")
    assert not failures, "; ".join(str(f) for f in failures)


def test_criterion_01_geometry_exactness():
    failures = []
    for depth in range(1, 11):
        partition = top_half_partition(depth)
        total = (
            sum(top_half_area(idx.level) for idx in partition.cells)
            + partition.residual_area
        )
        if abs(total - 1.0) > 1e-12:
            failures.append(f"depth {depth}: areas sum to {total!r}")
    for level in range(13):
        ratio = square_to_top_half_ratio(level)
        if level == 0:
            if ratio != 4.0:
                failures.append(f"level 0 ratio {ratio!r} != 4")
        elif not 2.0 < ratio < 4.0:
            failures.append(f"level {level} ratio {ratio!r} outside (2, 4)")
    for n in range(13):
        covered = sum(2**level * top_half_area(level) for level in range(n + 1))
        expected = (1.0 - 2.0 ** -(n + 1)) ** 2
        if abs(covered - expected) > 1e-12:
            failures.append(f"telescoping fails at {n}")
    _verdict(1, "partition areas, square ratios, telescoping", failures)


def test_criterion_02_quadrature_calibration():
    failures = []
    ones = lambda z: np.ones(z.shape[0])
    for eta in (0.0, 0.5, 1.0, 2.0):
        mass = float(
            integrate_values(ones, (), WholeDisc(), MeasureSpec(eta), tol=1e-8)
        )
        if abs(mass - 2.0 / (eta + 2.0)) > 1e-8:
            failures.append(f"eta {eta}: mass {mass!r}")
    singular = float(
        integrate_values(
            lambda z: (1.0 - np.abs(z)) ** -0.5,
            (),
            WholeDisc(),
            PLAIN,
            tol=1e-9,
            singular_exponent=-0.5,
        )
    )
    if abs(singular - 8.0 / 3.0) > 1e-7:
        failures.append(f"singular mass {singular!r}")
    _verdict(2, "disc masses against the weighted measures", failures)


def _fifty_measures():
    for dim in (1, 2, 4, 8, 16):
        for seed in range(10):
            yield dim, seed, random_measure(dim=dim, seed=seed)


def test_criterion_03_norm_identity_50_measures():
    failures = []
    for dim, seed, mu in _fifty_measures():
        result = dyadic_norm(mu, 8, seed=seed)
        if result.relative_gap >= 1e-6:
            failures.append(
                f"d={dim} seed={seed}: routes differ by {result.relative_gap:.2e}"
            )
    _verdict(3, "power iteration matches the closed form on 50 seeded measures", failures)


def test_criterion_04_two_sided_equivalence():
    failures = []
    for dim, seed, mu in _fifty_measures():
        report = equivalence_report(mu, 8, seed=seed)
        if not 1.0 - 1e-9 <= report.ratio_upper <= 4.0 + 1e-9:
            failures.append(f"d={dim} seed={seed}: ratio {report.ratio_upper!r}")
    origin = equivalence_report(atom_measure(0.0, np.eye(1)), 6)
    if abs(origin.ratio_upper - 4.0) > 1e-9:
        failures.append(f"origin atom ratio {origin.ratio_upper!r}")
    deep = equivalence_report(atom_measure(1.0 - 2.0**-5, np.eye(1)), 6)
    if abs(deep.ratio_upper - 2.016) > 1e-9:
        failures.append(f"deep atom ratio {deep.ratio_upper!r}")
    _verdict(4, "norm-to-intensity ratio in [1, 4] with extremes attained", failures)


def test_criterion_05_dimension_flatness():
    failures = []
    templates = (
        {"kind": "atom", "point": [0.5, 0.0], "scale": 1.0},
        {"kind": "radial_power_density", "exponent": 1.0},
        {"kind": "random", "dim": 1, "seed": 2},
    )
    dims = (1, 2, 4, 8, 16, 32, 64)
    for template in templates:
        sweep = dimension_sweep(template, dims, 6, seed=1)
        if sweep.ratio_spread >= 1e-8:
            failures.append(
                f"template {template['kind']}: spread {sweep.ratio_spread:.2e}"
            )
    _verdict(5, "ratios flat across value dimensions 1 to 64", failures)


def test_criterion_06_b2_checker():
    failures = []
    flat = b2_constant(IdentityWeight(2))
    if flat != 1.0:
        failures.append(f"identity weight gives {flat!r}, not exactly 1")
    half = b2_constant(ScalarPowerWeight(0.5))
    if not (math.isfinite(half) and half >= 1.1547 - 1e-3):
        failures.append(f"exponent 0.5 gives {half!r}")
    steep = b2_constant(ScalarPowerWeight(0.99))
    if not steep > 10.0 * half:
        failures.append(f"exponent 0.99 gives {steep!r} vs {half!r}")
    _verdict(6, "two-average norms: exact identity, finite and steep powers", failures)


def test_criterion_07_derivative_weight_desk_check():
    failures = []
    problem = EmbeddingProblem(
        symbol=radial_power_field(2.0, np.eye(1)),
        weight=IdentityWeight(1),
        eta=0.0,
        order=1,
    )
    for m in range(1, 65):
        ratio = embedding_ratio(VectorPoly.monomial(m, np.ones(1)), problem)
        expected = 2.0 * m * (m + 1) / ((2 * m + 1) * (2 * m + 2))
        if abs(ratio - expected) > 1e-8:
            failures.append(f"m={m}: ratio {ratio!r} vs {expected!r}")
        if ratio > 0.5:
            failures.append(f"m={m}: ratio above 1/2")
    sup = condition_constant(problem).sup_value
    if not math.isfinite(sup):
        failures.append(f"condition sup {sup!r}")
    _verdict(7, "monomial ratios exact and condition sup finite", failures)


def test_criterion_08_growth_exponent_match():
    failures = []
    grid = [1.0 - 2.0**-j + 0j for j in range(3, 11)]

    def slopes(exponent):
        problem = EmbeddingProblem(
            symbol=radial_power_field(exponent, np.eye(1)), weight=IdentityWeight(1)
        )
        condition = condition_constant(problem, grid)
        cond_pairs = [(1.0 - abs(l), v) for l, v in condition.values]
        nec_pairs = [
            (1.0 - abs(l), necessity_lower_bound(problem, 1.0, l)) for l in grid
        ]
        return condition, growth_exponent(cond_pairs), growth_exponent(nec_pairs)

    condition, cond_slope, nec_slope = slopes(-0.5)
    if abs(cond_slope - nec_slope) >= 0.2:
        failures.append(f"slopes {cond_slope:.3f} vs {nec_slope:.3f}")
    for s in (0.5, 1.0, 2.0):
        condition, cond_slope, nec_slope = slopes(s)
        top = max(v for _, v in condition.values)
        nec_top = max(
            necessity_lower_bound(
                EmbeddingProblem(
                    symbol=radial_power_field(s, np.eye(1)), weight=IdentityWeight(1)
                ),
                1.0,
                l,
            )
            for l in grid
        )
        if not (math.isfinite(top) and top < 10.0):
            failures.append(f"s={s}: condition unbounded ({top!r})")
        if not (math.isfinite(nec_top) and nec_top < 10.0):
            failures.append(f"s={s}: lower bound unbounded ({nec_top!r})")
    _verdict(8, "necessity and sufficiency growth exponents agree", failures)


def test_criterion_09_volterra_criterion():
    failures = []
    grid = default_lambda_grid(0.5)
    flat = volterra_condition(OperatorPoly.linear_identity(1), IdentityWeight(1), lambda_grid=grid)
    if flat.sup_value != 1.0 or flat.argmax_point != 0j:
        failures.append(
            f"identity symbol sup {flat.sup_value!r} at {flat.argmax_point!r}"
        )
    radial = tuple(1.0 - 2.0**-j + 0j for j in range(11))
    log_report = volterra_condition(LogSymbol(), IdentityWeight(1), lambda_grid=radial)
    for lam, value in log_report.values:
        if abs(lam) <= 0.999 and not 0.9 <= value <= 1.0:
            failures.append(f"log symbol at {lam}: {value!r}")
    for symbol in (OperatorPoly.linear_identity(1), LogSymbol()):
        consistency = volterra_consistency(symbol, IdentityWeight(1), lambda_grid=radial)
        if not consistency.satisfied:
            failures.append(
                f"{type(symbol).__name__}: ratio {consistency.max_ratio!r} "
                f"exceeds {consistency.theoretical_bound!r}"
            )
    _verdict(9, "pointwise criterion values and subharmonic consistency", failures)


def test_criterion_10_deterministic_reports(tmp_path):
    failures = []
    b2_scenario = {
        "version": 1,
        "kind": "b2",
        "weight": {"kind": "scalar_power", "exponent": 0.5, "dim": 1},
        "h_grid": [1.0, 0.5, 0.25, 0.125],
    }
    b2_first = run_scenario(dict(b2_scenario), out_root=tmp_path)
    b2_second = run_scenario(dict(b2_scenario), out_root=tmp_path)
    sweep_scenario = {
        "version": 1,
        "kind": "sweep",
        "template": {"kind": "random", "dim": 1, "seed": 5},
        "dims": [1, 2, 4],
        "depth": 5,
        "seed": 5,
    }
    first = run_scenario(dict(sweep_scenario), out_root=tmp_path)
    second = run_scenario(dict(sweep_scenario), out_root=tmp_path)
    for name in ("report.json", "curves.csv", "plot.svg"):
        if (b2_first / name).read_bytes() != (b2_second / name).read_bytes():
            failures.append(f"b2 {name} differs across repeat runs")
        if (first / name).read_bytes() != (second / name).read_bytes():
            failures.append(f"sweep {name} differs across repeat runs")
    _verdict(10, "byte-identical artifacts across repeat runs", failures)
