"""
Reproducible experiment runs
============================

Scenarios are small YAML mappings; running one produces a results
directory holding a canonical JSON report, a CSV of curve data, an
SVG chart, and a manifest.  Everything except the manifest is
byte-deterministic: same scenario, same bytes, regardless of wall
clock.
"""

import json
import pathlib
import tempfile

from bergman_carleson.experiments import run_scenario

scenario_dir = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

with tempfile.TemporaryDirectory() as tmp:
    out = pathlib.Path(tmp)

    # Run the bundled deep-atom equivalence scenario twice and compare
    # artifacts byte for byte.
    first = run_scenario(scenario_dir / "equivalence_deep_atom.yaml", out_root=out)
    second = run_scenario(scenario_dir / "equivalence_deep_atom.yaml", out_root=out)
    report = json.loads((first / "report.json").read_text())
    print(f"equivalence run -> {first.name}")
    print(f"  ratio:       {report['results']['ratio']}")
    print(f"  invariants:  {report['invariants']}")
    for name in ("report.json", "curves.csv", "plot.svg"):
        same = (first / name).read_bytes() == (second / name).read_bytes()
        print(f"  {name}: reruns byte-identical = {same}")

    # The same holds for the two-average scan of a power weight.
    b2_first = run_scenario(scenario_dir / "b2_scalar_power.yaml", out_root=out)
    b2_second = run_scenario(scenario_dir / "b2_scalar_power.yaml", out_root=out)
    same = (b2_first / "report.json").read_bytes() == (b2_second / "report.json").read_bytes()
    print(f"\nb2 run: repeat runs byte-identical = {same}")

    # The manifest is the one place timing may differ.
    manifest = json.loads((b2_first / "manifest.json").read_text())
    print(f"manifest keys: {sorted(manifest)}")

    # The SVG chart embeds its own data table as comments, so a plot can
    # be regenerated or audited without rerunning anything.
    svg = (b2_first / "plot.svg").read_text()
    data_lines = [l for l in svg.splitlines() if l.strip().startswith("<!-- data:")]
    print(f"plot.svg: {len(data_lines)} embedded data rows")
