"""Unified benchmark runner: every harness in quick mode, one core artefact.

Runs a quick configuration of each benchmarks/bench_*.py harness and writes
a single top-level ``BENCH_core.json`` with one uniform record per
benchmark::

    { "<benchmark>": { "wall_s": float,
                       "solver_conflicts": int,
                       "solve_calls": int }, ... }

This is the repository's performance trajectory anchor: CI uploads the file
as an artefact on every run, so regressions in any subsystem (incremental
solving, parallel execution, sequential unrolling, simulation-guided
simplification) show up as a diff of one document instead of four.

The document also carries one ``frontend_work`` block of deterministic
frontend counters for ``AES-HT-FREE --check-all``: the AIG nodes the audit
creates and its ``BitBlaster.blast`` calls.  Unlike wall times these repeat
exactly for a given code state, so ``benchmarks/perf_gate.py --core-fresh``
gates them against the committed document::

    "frontend_work": { "design": "AES-HT-FREE",
                       "aig_nodes": int, "blast_calls": int }

The artefact-script harnesses (parallel scaling, sequential depth,
simplify) are invoked through their importable ``run_benchmark`` /
``bench_benchmark`` entry points with reduced workloads; the
pytest-benchmark suites are represented by their core scenario (a full
detection flow on the design the suite pins down), because their statistical
micro-measurements do not reduce to one number per benchmark.

``--repeat N`` runs every scenario N times and records the **median** wall
time (counters are deterministic across repeats, so they come from the
median run): single-shot wall clocks on shared CI runners are noisy enough
to drown small regressions, and the median is robust against one cold-cache
or noisy-neighbour outlier where the mean is not.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --quick
    PYTHONPATH=src python benchmarks/run_all.py --quick --repeat 3
    PYTHONPATH=src python benchmarks/run_all.py --output BENCH_core.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.aig.aig import AIG
from repro.aig.bitblast import BitBlaster
from repro.api import BatchSession, Design, DetectionConfig, DetectionSession

_HERE = os.path.dirname(os.path.abspath(__file__))


def _load_harness(name: str):
    """Import a sibling bench_*.py harness by file path."""
    path = os.path.join(_HERE, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _flow_record(name: str, **overrides) -> Dict[str, object]:
    """One full detection flow, reduced to the uniform record."""
    design = Design.from_benchmark(name)
    # The recommended-waiver config builder lives in the simplify harness;
    # one definition of "what the CLI would build" for all runners.
    config = _load_harness("bench_simplify")._design_config(design, **overrides)
    started = time.perf_counter()
    report = DetectionSession(design, config=config).run()
    return {
        "wall_s": time.perf_counter() - started,
        "solver_conflicts": report.solver_conflicts,
        "solve_calls": report.solver_calls,
    }


# --------------------------------------------------------------------- #
# Scenarios (name -> (quick thunk, full thunk))
# --------------------------------------------------------------------- #


def _incremental_reuse(quick: bool) -> Dict[str, object]:
    # bench_incremental_reuse.py pins clause reuse of the *solving core* on
    # the AES-T100 flow; preprocessing is off, matching that harness (with
    # it on, random simulation falsifies the class before any CDCL call).
    return _flow_record("AES-T100", simplify=False)


def _proof_runtime(quick: bool) -> Dict[str, object]:
    # bench_proof_runtime.py measures per-property proof cost on the clean
    # AES core (every class proven, nothing short-circuits).
    return _flow_record("AES-HT-FREE", simplify=False)


def _parallel_scaling(quick: bool) -> Dict[str, object]:
    benchmarks = ["RS232-HT-FREE", "RS232-T2400"]
    if not quick:
        benchmarks.append("BasicRSA-HT-FREE")
    started = time.perf_counter()
    batch = BatchSession(benchmarks, config=DetectionConfig(jobs=2))
    report = batch.run()
    stats = report.solver_stats()
    return {
        "wall_s": time.perf_counter() - started,
        "solver_conflicts": stats["conflicts"],
        "solve_calls": stats["solver_calls"],
    }


def _sequential_depth(quick: bool) -> Dict[str, object]:
    harness = _load_harness("bench_sequential_depth")
    depths = [2, 4] if quick else [2, 4, 6, 8]
    started = time.perf_counter()
    result = harness.bench_benchmark("RS232-SEQ-T3000", depths)
    runs = result["incremental"] + result["fresh_solver"]
    return {
        "wall_s": time.perf_counter() - started,
        "solver_conflicts": sum(int(run["sat_conflicts"]) for run in runs),
        "solve_calls": sum(1 for run in runs if run["cnf_new_clauses"] or run["sat_conflicts"]),
    }


def _simplify(quick: bool) -> Dict[str, object]:
    harness = _load_harness("bench_simplify")
    benchmarks = (
        ["RS232-T2400", "AES-T100"]
        if quick
        else list(harness.DEFAULT_BENCHMARKS)
    )
    started = time.perf_counter()
    document = harness.run_benchmark(benchmarks)
    totals = document["totals"]
    return {
        "wall_s": time.perf_counter() - started,
        "solver_conflicts": int(totals["on"]["solver_conflicts"])
        + int(totals["off"]["solver_conflicts"]),
        "solve_calls": int(totals["on"]["solve_calls"])
        + int(totals["off"]["solve_calls"]),
    }


SCENARIOS: List[Tuple[str, Callable[[bool], Dict[str, object]]]] = [
    ("incremental_reuse", _incremental_reuse),
    ("proof_runtime", _proof_runtime),
    ("parallel_scaling", _parallel_scaling),
    ("sequential_depth", _sequential_depth),
    ("simplify", _simplify),
]


#: The design whose ``--check-all`` audit the frontend-work block counts.
FRONTEND_DESIGN = "AES-HT-FREE"


def frontend_work(name: str = FRONTEND_DESIGN) -> Dict[str, object]:
    """AIG nodes created and ``BitBlaster.blast`` calls of one serial,
    uncached ``--check-all`` audit of ``name`` (every AIG the audit builds
    counts, canonical re-settle engines included)."""
    aigs: List[AIG] = []
    calls = [0]
    init, blast = AIG.__init__, BitBlaster.blast

    def registered_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        aigs.append(self)

    def counted_blast(self, *args, **kwargs):
        calls[0] += 1
        return blast(self, *args, **kwargs)

    AIG.__init__, BitBlaster.blast = registered_init, counted_blast
    try:
        design = Design.from_benchmark(name)
        DetectionSession(design, design.default_config(stop_at_first_failure=False)).run()
    finally:
        AIG.__init__, BitBlaster.blast = init, blast
    return {
        "design": name,
        "aig_nodes": sum(aig.num_nodes for aig in aigs),
        "blast_calls": calls[0],
    }


def run_all(quick: bool = True, repeat: int = 1) -> Dict[str, Dict[str, object]]:
    if repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {repeat}")
    document: Dict[str, Dict[str, object]] = {}
    for name, scenario in SCENARIOS:
        runs = [scenario(quick) for _ in range(repeat)]
        walls = sorted(float(run["wall_s"]) for run in runs)
        # The run whose wall time is the (lower) median represents the
        # scenario; its counters are deterministic across repeats anyway.
        median_wall = walls[(len(walls) - 1) // 2]
        record = next(run for run in runs if float(run["wall_s"]) == median_wall)
        document[name] = {
            "wall_s": statistics.median(walls),
            "solver_conflicts": int(record["solver_conflicts"]),
            "solve_calls": int(record["solve_calls"]),
        }
        spread = f" (n={repeat}, spread {walls[0]:.2f}-{walls[-1]:.2f} s)" if repeat > 1 else ""
        print(
            f"{name:20s} {document[name]['wall_s']:7.2f} s  "
            f"{document[name]['solver_conflicts']:6d} conflicts  "
            f"{document[name]['solve_calls']:4d} solver calls{spread}"
        )
    work = document["frontend_work"] = frontend_work()
    print(
        f"{'frontend_work':20s} {work['design']}: {work['aig_nodes']} AIG nodes, "
        f"{work['blast_calls']} blast calls"
    )
    return document


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced workloads for CI (smaller benchmark sets and depths)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="repeats per scenario; the recorded wall time is the median "
             "(default: 1)",
    )
    parser.add_argument(
        "--output", default="BENCH_core.json", metavar="FILE",
        help="where to write the unified JSON document (default: BENCH_core.json)",
    )
    args = parser.parse_args(argv)

    document = run_all(quick=args.quick, repeat=args.repeat)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
