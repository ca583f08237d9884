"""Measure every workload and record the baseline of a commit.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --runs 10 --output perfbench/BASELINE.json

It makes two *proofs*, one after the other: in each, ``--runs`` untraced
runs of ``run.py`` per workload, with seeds 1..runs in the first proof and
runs+1..2*runs in the second.  Then it makes two traced runs per workload
with seed 1.  It records:

* per proof, the median of every end-to-end metric and its spread, the
  distance between the first and third quartile as a share of the median;
* how far the second proof's median moved from the first's, as a share of
  the first;
* the per-layer breakdown of the first traced run;
* the layer-share sanity checks: each workload stresses the layer it was
  chosen for, no layer gap exceeds 5% of traced wall, and the work counters
  repeat exactly, between the two traced passes of a run and between the
  two traced runs.

It exits with 1 if a run was incorrect, a spread exceeded its bound, the
second proof's median was worse than the first's by more than the bound,
or a sanity check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

PROOFS = 2


def _run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _share(layers: Dict[str, float], prefixes: tuple) -> float:
    busy = sum(
        value for name, value in layers.items()
        if name.endswith(".self_s") and name.startswith(prefixes)
    )
    return busy / layers["traced_wall_s"]


def sanity_checks(
    workload: str, layers: Dict[str, float], again: Dict[str, float]
) -> Dict[str, Dict[str, object]]:
    """Each check: the measured share and whether it passes.

    ``again`` is the per-layer figures of a second traced run of the same
    inputs.
    """
    differ = [name for name in tracing.DETERMINISTIC_COUNTERS if layers[name] != again[name]]
    for name in differ:
        print(f"COUNTER MISMATCH {workload} {name}: {layers[name]} then {again[name]} "
              f"in two traced runs of the same inputs", file=sys.stderr, flush=True)
    checks = {
        "counters_repeat_within_run": {
            "value": layers["trace.counter_mismatches"],
            "ok": layers["trace.counter_mismatches"] == 0,
        },
        "counters_repeat_across_runs": {"value": float(len(differ)), "ok": not differ},
    }
    if workload == "catalogue-pool":
        return checks
    gap = layers["unattributed_s"] / layers["traced_wall_s"]
    checks["unattributed_share_below_0.05"] = {"value": gap, "ok": gap < 0.05}
    if workload == "catalogue-cold":
        blast = _share(layers, ("aig.blast.",))
        checks["aig.blast_share_at_least_0.5"] = {"value": blast, "ok": blast >= 0.5}
    elif workload == "datapath-sat":
        solve = _share(layers, ("sat.solve.",))
        checks["sat.solve_share_at_least_0.8"] = {"value": solve, "ok": solve >= 0.8}
    return checks


def proof(runs: List[Dict[str, object]], bounds: Dict[str, float]) -> Dict[str, object]:
    figures = {}
    for name in bounds:
        values = [run["metrics"][name]["value"] for run in runs]
        quartiles = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        figures[name] = {
            "median": median,
            "spread": (quartiles[2] - quartiles[0]) / median,
            "values": values,
        }
    return figures


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--output", help="write the baseline JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    reasons = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    better = {entry["name"]: entry["better"] for entry in spec["end_to_end"]}
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workload or list(reasons)

    ok = True
    runs: Dict[str, List[List[Dict[str, object]]]] = {workload: [] for workload in workloads}
    for index in range(PROOFS):
        for workload in workloads:
            seeds = range(index * args.runs + 1, (index + 1) * args.runs + 1)
            runs[workload].append([_run(workload, seed, seconds, 0) for seed in seeds])
            print(f"{workload:15s} proof {index + 1} done", flush=True)

    baseline: Dict[str, object] = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "run_seconds": seconds,
        "runs": args.runs,
        "workloads": {},
    }
    for workload in workloads:
        ok &= all(run["correct"] for proof_runs in runs[workload] for run in proof_runs)
        proofs = [proof(proof_runs, bounds) for proof_runs in runs[workload]]
        end_to_end = {}
        for name, bound in bounds.items():
            first, second = proofs[0][name]["median"], proofs[-1][name]["median"]
            moved = (second - first) / first
            worse = moved if better[name] == "lower" else -moved
            spreads = [one[name]["spread"] for one in proofs]
            ok &= max(spreads) <= bound and worse <= bound
            end_to_end[name] = {
                "unit": units[name],
                "bound": bound,
                "proofs": [one[name] for one in proofs],
                "median_moved": moved,
            }
            print(f"{workload:15s} {name:14s} medians {first:10.4f} {second:10.4f} "
                  f"(moved {moved:+.3f}) spreads {' '.join(f'{s:.3f}' for s in spreads)} "
                  f"(bound {bound})", flush=True)
        traced = [_run(workload, 1, seconds, 1) for _ in range(2)]
        ok &= all(run["correct"] for run in traced)
        layers, again = (
            {name: metric["value"] for name, metric in run["metrics"].items()} for run in traced
        )
        checks = sanity_checks(workload, layers, again)
        for name, check in checks.items():
            ok &= check["ok"]
            print(f"{workload:15s} check {name}: {check['value']:.3f} "
                  f"{'ok' if check['ok'] else 'FAILED'}", flush=True)
        every = [run for proof_runs in runs[workload] for run in proof_runs]
        baseline["workloads"][workload] = {
            "why": reasons[workload],
            "failed_share": sum(run["failed"] for run in every) / sum(run["attempted"] for run in every),
            "end_to_end": end_to_end,
            "per_layer": layers,
            "layer_checks": checks,
        }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
