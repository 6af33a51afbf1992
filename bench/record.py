"""Record the reference values that bench/run.py checks headline results against.

    python3 bench/record.py

Runs one pass of every workload and writes bench/reference.json: the
headline values of each passing item (without the keys in
``workloads.NOT_HEADLINE``) and the artifact digests of each scenario
run.  Items that fail are left out.  Re-record only in a change that
documents why the reference values moved.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH_DIR, ROOT, SRC, WORK_ROOT, run_pass

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def _headline(record):
    if isinstance(record, dict):
        return {k: _headline(v) for k, v in record.items() if k not in workloads.NOT_HEADLINE}
    return record


def main() -> int:
    work_dir = WORK_ROOT / f"record-{os.getpid()}"
    items_out, digests = {}, {}
    try:
        for name in workloads.BUILDERS:
            items = workloads.BUILDERS[name](0, ROOT, work_dir)
            result = run_pass(items)
            items_out[name] = {}
            for item, raw in zip(items, result["raws"]):
                outcome = item.evaluate(raw, None)
                if outcome.problems:
                    print(f"{name} {item.name}: not recorded ({outcome.problems[0]})")
                    continue
                items_out[name][item.name] = _headline(outcome.record)
                if outcome.digests:
                    digests[item.name] = outcome.digests
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    # The 1e-4 near tie has the same top eigenvalue, cell and residual as
    # the 1e-6 one; only its second route fails today.
    suite = items_out["scenario_suite"]
    suite["edge-near-tie-1e-4"] = dict(suite["edge-near-tie-1e-6"])
    reference = {
        "rel_tol": workloads.REL_TOL,
        "items": {k: dict(sorted(v.items())) for k, v in items_out.items()},
        "digests": dict(sorted(digests.items())),
    }
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
