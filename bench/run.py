"""Benchmark of the bergman_carleson workbench.

Run from the repository root:

    python3 bench/run.py --workload dyadic_tables --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one client in this process calls the
library (or ``cli.main``) item after item, with no worker threads.  A
run does one warm-up pass and then repeats passes over the workload's
fixed item list until ``--seconds`` would be exceeded.  Every pass is
checked: each item's outputs, and bit-identity with the warm-up pass.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced passes and prints the per-layer metrics, after
checking that the traced passes reproduce the untraced results bit for
bit.  The last output line is the JSON result; the lines before it list
every metric with its unit, the item outcomes and the environment.
See bench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
#: Set-up probes per run, at the least.
SETUP_SAMPLES = 5
#: Passes measured after the warm-up, at the least, whatever --seconds says.
MIN_PASSES = 2
#: Samples that must lie beyond the percentile reported as the tail.
TAIL_EXCESS = 10
SLOC_MODULES = (
    "__init__",
    "analytic",
    "cli",
    "disc_geometry",
    "dyadic",
    "errors",
    "experiments",
    "linalg",
    "measures",
    "plotting",
    "quadrature",
    "volterra",
    "weights",
)


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    from tracing import COUNTERS, MODULES
    from workloads import suite_names

    units = {}
    for module in MODULES:
        units[f"{module}.calls"] = "count"
        units[f"{module}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "B" if name == "experiments.bytes_written" else "count"
    units["experiments.write_s"] = "s"
    units["experiments.bytes_identical"] = "count"
    for name in suite_names():
        units[f"scenario.{name}.s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    units["failed_ratio"] = "ratio"
    for module in SLOC_MODULES:
        units[f"sloc.{module}"] = "lines"
    units["sloc.total"] = "lines"
    return units


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _flag_environment(record: dict) -> list[str]:
    """Compare with the previous recorded run of this workload and mode."""
    notes = []
    env = record["env"]
    if env["loadavg_start"][0] > env["nproc"]:
        notes.append(f"machine busy at start: load {env['loadavg_start'][0]:.2f} on {env['nproc']} cpus")
    history = OUT_DIR / "history.jsonl"
    previous = None
    if history.exists():
        for line in history.read_text().splitlines():
            try:
                old = json.loads(line)
            except json.JSONDecodeError:
                continue
            if old.get("workload") == record["workload"] and old.get("trace") == record["trace"]:
                previous = old
    if previous is not None:
        keys = ("python", "numpy", "blas", "blas_threads", "nproc", "machine")
        changed = [k for k in keys if previous["env"].get(k) != env.get(k)]
        if changed:
            notes.append(
                "environment differs from the previous recorded run in "
                + ", ".join(f"{k} ({previous['env'].get(k)} -> {env.get(k)})" for k in changed)
                + ": these results are not comparable with it"
            )
    OUT_DIR.mkdir(exist_ok=True)
    with open(history, "a") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    return notes


# ---------------------------------------------------------------------------
# measurement


def _sloc() -> dict[str, float]:
    counts = {}
    total = 0
    for path in sorted((SRC / "bergman_carleson").glob("*.py")):
        lines = path.read_text().splitlines()
        n = sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))
        total += n
        if path.stem in SLOC_MODULES:
            counts[f"sloc.{path.stem}"] = float(n)
    for module in SLOC_MODULES:
        counts.setdefault(f"sloc.{module}", 0.0)
    counts["sloc.total"] = float(total)
    return counts


def tail(values: list[float]) -> tuple[float, str]:
    """Tail pass time: the highest percentile with TAIL_EXCESS samples beyond it.

    That percentile reaches p90 only from 100 samples on; below that it
    would sit under the upper tail (at 11 passes it is the minimum), so
    the maximum is reported instead.  The label states which, and n.
    """
    ordered = sorted(values)
    n = len(ordered)
    j = n - TAIL_EXCESS - 1
    if j + 1 >= 0.9 * n:
        return ordered[j], f"p{100.0 * (j + 1) / n:.1f} of n={n} passes"
    return ordered[-1], f"max of n={n} passes"


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: import plus input generation."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(items) -> dict:
    """One timed pass; outputs are collected, checked afterwards."""
    raws, item_s = [], []
    gc.collect()  # start every pass from the same heap state
    c0 = time.process_time()
    t0 = time.perf_counter()
    for item in items:
        ti = time.perf_counter()
        try:
            raws.append(("value", item.run()))
        except Exception as exc:  # an item's failure is recorded, not fatal
            # the traceback would keep the failed call's frames alive
            raws.append(("raise", exc.with_traceback(None)))
        item_s.append(time.perf_counter() - ti)
    wall = time.perf_counter() - t0
    return {"wall": wall, "cpu": time.process_time() - c0, "raws": raws, "item_s": item_s}


class Ledger:
    """Item outcomes across passes: failures, known defects, identity."""

    def __init__(self, items, references, known_defects, reference_digests):
        self.items = items
        self.references = references
        self.known = known_defects
        self.reference_digests = reference_digests
        self.baseline: dict[str, tuple] = {}
        self.attempted = 0
        self.failures = 0
        self.unexpected: list[str] = []
        self.known_failures: dict[str, str] = {}
        self.now_passing: set[str] = set()
        self.bytes_identical: list[int] = []

    def record(self, label: str, result: dict) -> None:
        identical = 0
        for item, raw in zip(self.items, result["raws"]):
            outcome = item.evaluate(raw, self.references.get(item.name))
            self.attempted += 1
            problems = list(outcome.problems)
            first = self.baseline.setdefault(item.name, outcome.fingerprint)
            if outcome.fingerprint != first:
                problems.append(f"{label}: result differs bitwise from the warm-up pass")
            expected = self.reference_digests.get(item.name)
            if outcome.digests is not None and expected is not None and outcome.digests == expected:
                identical += 1
            if not problems:
                if item.name in self.known:
                    self.now_passing.add(item.name)
                continue
            self.failures += 1
            if self.known.get(item.name) == outcome.signature and outcome.fingerprint == first:
                self.known_failures[item.name] = problems[0]
            else:
                self.unexpected.append(f"{item.name} ({label}): " + "; ".join(problems))
        self.bytes_identical.append(identical)

    def summary_lines(self) -> list[str]:
        lines = []
        for name in sorted(self.known_failures):
            lines.append(f"known defect  {name}: {self.known_failures[name]}")
        for name in sorted(self.now_passing):
            lines.append(f"known defect now passes  {name}: remove it from KNOWN_DEFECTS")
        for entry in self.unexpected:
            lines.append(f"FAILED  {entry}")
        return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "bergman_carleson" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no bergman_carleson source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = WORK_ROOT / str(os.getpid())
    try:
        if args.setup_probe:
            return _setup_probe(args, work_dir)
        return _benchmark(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


def _setup_probe(args, work_dir: Path) -> int:
    t0 = time.perf_counter()
    import workloads

    workloads.BUILDERS[args.workload](args.seed, ROOT, work_dir)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _benchmark(args, work_dir: Path) -> int:
    load_start = os.getloadavg()
    import workloads
    from tracing import COUNTERS, Tracer

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    items = workloads.BUILDERS[args.workload](args.seed, ROOT, work_dir)
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    ledger = Ledger(
        items,
        reference["items"].get(args.workload, {}),
        workloads.KNOWN_DEFECTS,
        reference["digests"],
    )

    # Set-up probes run between passes, so that they sample the machine
    # at different moments; their time does not count against --seconds.
    tracer = Tracer() if args.trace else None
    plain, traced, layer_runs = [], [], []
    setup_samples: list[float] = []
    probe_s = 0.0
    loop_start = time.perf_counter()
    warmup = run_pass(items)
    ledger.record("warm-up", warmup)
    del warmup["raws"]
    while True:
        if tracer is None:
            t0 = time.perf_counter()
            setup_samples.append(setup_probe(args.workload, args.seed))
            probe_s += time.perf_counter() - t0
        use_trace = tracer is not None and len(traced) <= len(plain)
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                result = run_pass(items)
            finally:
                tracer.uninstall()
            layer_runs.append(tracer.layer_metrics())
            traced.append(result)
        else:
            result = run_pass(items)
            plain.append(result)
        ledger.record(f"{'traced ' if use_trace else ''}pass {len(plain) + len(traced)}", result)
        del result["raws"]  # keep only timings, so memory does not grow with passes
        elapsed = time.perf_counter() - loop_start - probe_s
        done = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= 1)
        next_kind = traced if tracer is not None and len(traced) <= len(plain) else plain
        estimate = statistics.median(r["wall"] for r in (next_kind or plain or [warmup]))
        if done and elapsed + estimate > args.seconds:
            break
    while tracer is None and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_probe(args.workload, args.seed))

    walls = [r["wall"] for r in plain]
    metrics: dict[str, tuple[float, str]] = {}
    if tracer is None:
        tail_value, tail_label = tail(walls)
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
        metrics["pass_s"] = (statistics.median(walls), "s")
        metrics["pass_s_tail"] = (tail_value, "s")
        metrics["pass_cpu_s"] = (statistics.median(r["cpu"] for r in plain), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        notes = [
            f"setup_s: median of {len(setup_samples)} fresh processes, one after each pass",
            f"pass_s: median of n={len(walls)} passes after one warm-up; pass_s_tail: {tail_label}",
            f"pass walls (s): {[round(w, 4) for w in walls]}",
        ]
    else:
        metrics.update(_layer_metrics(items, plain, traced, layer_runs, ledger))
        notes = [
            f"per-layer values: median of {len(traced)} traced passes; "
            f"scenario times: median of {len(plain)} untraced passes"
        ]
        # bytes_written includes manifest.json, whose timings vary
        changed = sorted(
            k for k in layer_runs[0]
            if (k.endswith(".calls") or k in COUNTERS)
            and k != "experiments.bytes_written"
            and len({run[k] for run in layer_runs}) > 1
        )
        if changed:
            notes.append("counts that did not repeat across traced passes: " + ", ".join(changed))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{args.workload}.spans.csv")

    env = dict(environment(), loadavg_start=list(load_start), loadavg_end=list(os.getloadavg()))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    notes += _flag_environment(record)

    expected = _declared_metrics(args.trace)
    if expected is not None and list(expected) != list(metrics):
        print("error: emitted metrics differ from BENCHMARK.json", file=sys.stderr)
        return 3

    correct = not ledger.unexpected
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  items {len(items)}  "
          f"passes {1 + len(plain) + len(traced)}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in notes + ledger.summary_lines():
        print(line)
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.unexpected),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _layer_metrics(items, plain, traced, layer_runs, ledger) -> dict[str, tuple[float, str]]:
    units = layer_units()
    metrics: dict[str, tuple[float, str]] = {}
    for name in layer_runs[0]:
        metrics[name] = (statistics.median(run[name] for run in layer_runs), units[name])
    metrics["experiments.bytes_identical"] = (float(statistics.median(ledger.bytes_identical)), "count")
    item_s = {item.name: statistics.median(r["item_s"][i] for r in plain) for i, item in enumerate(items)}
    import workloads

    for name in workloads.suite_names():
        metrics[f"scenario.{name}.s"] = (item_s.get(name, 0.0), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall"] for r in traced) / statistics.median(r["wall"] for r in plain),
        "ratio",
    )
    metrics["failed_ratio"] = (ledger.failures / ledger.attempted, "ratio")
    metrics.update((k, (v, "lines")) for k, v in _sloc().items())
    return {name: metrics[name] for name in units}


def _declared_metrics(trace: int):
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    declared = json.loads(path.read_text())
    return [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
