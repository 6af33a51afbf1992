"""Command line front end for the experiment runner.

Each subcommand is one experiment kind with a built-in default
scenario; pass --scenario to run a file instead, and flags to override
individual fields.  Exit codes: 0 success, 1 invalid configuration
(a usage error included), 2 numerical degeneracy, 3 tolerance not
reached.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    DegenerateWeightError,
    NotPSDError,
    PowerIterationError,
    ScenarioError,
    ToleranceNotReached,
)
from .experiments import KINDS, run_scenario, validate_scenario
from .plotting import chart_from_report

_DEFAULT_SCENARIOS = {
    "intensity": {
        "version": 1,
        "kind": "intensity",
        "measure": {"kind": "atom", "point": [0.0, 0.0], "scale": 1.0, "dim": 2},
        "depth": 6,
    },
    "dyadic-norm": {
        "version": 1,
        "kind": "dyadic-norm",
        "measure": {"kind": "random", "dim": 2, "seed": 0},
        "depth": 6,
        "seed": 0,
    },
    "equivalence": {
        "version": 1,
        "kind": "equivalence",
        "measure": {"kind": "atom", "point": [0.0, 0.0], "scale": 1.0, "dim": 1},
        "depth": 6,
    },
    "sweep": {
        "version": 1,
        "kind": "sweep",
        "template": {"kind": "identity_density", "dim": 1},
        "dims": [1, 2, 4, 8, 16],
        "depth": 6,
        "seed": 0,
    },
    "b2": {
        "version": 1,
        "kind": "b2",
        "weight": {"kind": "scalar_power", "exponent": 0.5, "dim": 1},
        "eta": 0.0,
    },
    "embed": {
        "version": 1,
        "kind": "embed",
        "symbol": {"kind": "radial_power", "exponent": -0.5, "dim": 1},
        "weight": {"kind": "identity", "dim": 1},
        "eta": 0.0,
        "order": 0,
        "gamma": 1.0,
    },
    "volterra": {
        "version": 1,
        "kind": "volterra",
        "symbol": {"kind": "log", "dim": 1},
        "weight": {"kind": "identity", "dim": 1},
        "ratio": 0.5,
    },
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the code of an invalid configuration."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bergman-carleson",
        description="Numerical workbench for vector measures on the unit disc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--scenario", type=Path, help="scenario YAML file")
        p.add_argument("--out", type=Path, help="output root directory")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--depth", type=int, help="override the partition depth")
        p.add_argument("--tol", type=float, help="override the quadrature tolerance")
    rp = sub.add_parser("report", help="summarize and re-plot an existing run")
    rp.add_argument("--input", type=Path, required=True, help="run directory or report.json")
    rp.add_argument("--out", type=Path, help="directory for the regenerated plot")
    return parser


def _scenario_for(args) -> dict:
    if args.scenario is not None:
        from .experiments import load_scenario

        scenario = dict(load_scenario(args.scenario))
    else:
        scenario = dict(_DEFAULT_SCENARIOS[args.command])
    if scenario.get("kind") != args.command:
        raise ScenarioError(
            f"scenario kind {scenario.get('kind')!r} does not match "
            f"subcommand {args.command!r}"
        )
    for field in ("seed", "depth", "tol"):
        value = getattr(args, field)
        if value is not None:
            scenario[field] = value
    return validate_scenario(scenario)


def _handle_report(args) -> int:
    path = args.input
    if path.is_dir():
        path = path / "report.json"
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot load report: {exc}") from exc
    if not isinstance(report, dict) or "results" not in report:
        raise ScenarioError("input is not a report file")
    print(f"kind: {report.get('kind')}")
    for key in sorted(report.get("results", {})):
        print(f"  {key}: {report['results'][key]}")
    for key in sorted(report.get("invariants", {})):
        print(f"  invariant {key}: {report['invariants'][key]}")
    rows = (report.get("curve") or {}).get("rows") or []
    svg = chart_from_report(report) if len(rows) >= 2 else None
    if svg is not None:
        out_dir = args.out if args.out is not None else path.parent
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / "plot.svg"
        target.write_text(svg)
        print(f"plot: {target}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _handle_report(args)
        scenario = _scenario_for(args)
        run_dir = run_scenario(scenario, out_root=args.out)
        print(run_dir)
        return 0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateWeightError, NotPSDError, PowerIterationError) as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 2
    except ToleranceNotReached as exc:
        print(
            f"tolerance not reached: achieved {exc.achieved:.3e} "
            f"after {exc.evaluations} evaluations",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
