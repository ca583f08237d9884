"""Performance-regression gate over the committed simplify artefact.

Compares a freshly generated ``BENCH_simplify.json`` against the committed
baseline and fails (exit 1) when solver work regresses past a tolerance:

* **trojan conflict floor** — total CDCL conflicts the simplify-on
  configuration spends across the trojan-positive benchmarks.  The flow's
  headline performance claim is that tampered cones are falsified by
  simulation before the solver sees them, so this number must not creep up.
* **minimized conflict count** — conflicts of the stock CDCL configuration
  on the bundled hard check (``solver_internals.minimize``), guarding the
  conflict-clause-minimization and clause-management work inside the solver.

Conflict counts are deterministic for a given code state (fixed seeds, no
timing dependence), so the default tolerance only absorbs intentional small
drifts; genuine regressions show up as hard failures in CI.

With ``--core-fresh`` the gate also checks the ``frontend_work`` block of a
fresh ``benchmarks/run_all.py`` document against the committed
``BENCH_core.json``:

* **AIG nodes** must match exactly — bit-blasting speedups (the encoder's
  memo, the inlined strash kernels) must not change the AIG they build;
* **blast calls** must not exceed the committed count, so work the memo
  saves cannot silently come back.

Usage::

    PYTHONPATH=src python benchmarks/bench_simplify.py --output fresh.json
    PYTHONPATH=src python benchmarks/run_all.py --quick --output core.json
    PYTHONPATH=src python benchmarks/perf_gate.py \
        --fresh fresh.json --baseline BENCH_simplify.json \
        --core-fresh core.json --core-baseline BENCH_core.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

#: Allowed relative growth of a gated counter before the gate fails.
DEFAULT_TOLERANCE = 0.10

#: Allowed absolute growth — keeps tiny baselines (a handful of conflicts)
#: from failing on a one-conflict drift that the relative bound cannot absorb.
DEFAULT_SLACK = 5


def _load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _gate(
    label: str,
    fresh: int,
    baseline: int,
    tolerance: float,
    slack: int,
    failures: List[str],
) -> None:
    ceiling = max(int(baseline * (1.0 + tolerance)), baseline + slack)
    verdict = "ok" if fresh <= ceiling else "REGRESSION"
    print(f"{label:28s} fresh {fresh:6d}  baseline {baseline:6d}  ceiling {ceiling:6d}  {verdict}")
    if fresh > ceiling:
        failures.append(
            f"{label}: {fresh} conflicts vs committed floor {baseline} "
            f"(ceiling {ceiling})"
        )


def _minimize_conflicts(document: Dict[str, object]) -> Optional[int]:
    internals = document.get("solver_internals")
    if not isinstance(internals, dict):
        return None
    minimize = internals.get("minimize")
    if not isinstance(minimize, dict):
        return None
    return int(minimize["conflicts"])


def run_gate(
    fresh: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
    slack: int = DEFAULT_SLACK,
) -> List[str]:
    """All regression messages (empty = gate passes)."""
    failures: List[str] = []
    _gate(
        "trojan conflicts (simplify)",
        int(fresh["trojan_conflicts"]["on"]),
        int(baseline["trojan_conflicts"]["on"]),
        tolerance,
        slack,
        failures,
    )
    fresh_min = _minimize_conflicts(fresh)
    baseline_min = _minimize_conflicts(baseline)
    if fresh_min is not None and baseline_min is not None:
        _gate(
            "hard-check conflicts (CDCL)",
            fresh_min,
            baseline_min,
            tolerance,
            slack,
            failures,
        )
    elif baseline_min is None:
        # A baseline predating the solver_internals section gates only the
        # trojan floor; the next committed refresh picks up the second gate.
        print("note: baseline has no solver_internals section; CDCL gate skipped")
    return failures


def run_core_gate(fresh: Dict[str, object], baseline: Dict[str, object]) -> List[str]:
    """Regression messages of the frontend-work block (empty = gate passes)."""
    fresh_work = fresh["frontend_work"]
    base_work = baseline["frontend_work"]
    if fresh_work["design"] != base_work["design"]:
        return [
            f"frontend work counts {fresh_work['design']!r}, "
            f"the baseline {base_work['design']!r}"
        ]
    failures: List[str] = []
    checks = (
        ("aig_nodes", "AIG nodes (exact)", fresh_work["aig_nodes"] == base_work["aig_nodes"]),
        ("blast_calls", "blast calls (<= baseline)",
         fresh_work["blast_calls"] <= base_work["blast_calls"]),
    )
    for key, label, ok in checks:
        print(
            f"{label:28s} fresh {fresh_work[key]:6d}  baseline {base_work[key]:6d}  "
            f"{'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(
                f"{base_work['design']} {key}: {fresh_work[key]} vs committed {base_work[key]}"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh", required=True, metavar="FILE",
        help="freshly generated BENCH_simplify.json",
    )
    parser.add_argument(
        "--baseline", default="BENCH_simplify.json", metavar="FILE",
        help="committed baseline document (default: BENCH_simplify.json)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE, metavar="FRAC",
        help=f"allowed relative conflict growth (default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--slack", type=int, default=DEFAULT_SLACK, metavar="N",
        help=f"allowed absolute conflict growth (default: {DEFAULT_SLACK})",
    )
    parser.add_argument(
        "--core-fresh", metavar="FILE",
        help="freshly generated run_all.py document; gates its frontend_work block",
    )
    parser.add_argument(
        "--core-baseline", default="BENCH_core.json", metavar="FILE",
        help="committed core document (default: BENCH_core.json)",
    )
    args = parser.parse_args(argv)

    failures = run_gate(
        _load(args.fresh), _load(args.baseline), args.tolerance, args.slack
    )
    if args.core_fresh:
        failures += run_core_gate(_load(args.core_fresh), _load(args.core_baseline))
    if failures:
        for failure in failures:
            print(f"perf gate FAILED: {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
