"""End-to-end audit benchmark: one command, every metric by name and unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload catalogue-cold --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``catalogue-cold``  catalogue slice, ``--check-all``, jobs=1, empty result cache
``datapath-sat``    seeded SAT-heavy datapath designs via ``Design.from_source``
``catalogue-pool``  the catalogue slice through ``BatchSession.run()`` at jobs=2

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs two traced
passes, each followed by an untraced one, and a pass that counts
``AIG.and_`` calls, and prints the per-layer metrics.  Every run checks
each verdict against its known answer.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

The set-up and the measurement each run in a process of their own, so
set-up is timed from process start.  The measuring process forks a process
for each pass, so every pass starts from the same state and its peak
memory, its pool workers' included, is its own; ``peak_rss_mb`` is the
median over the passes.

Times are reported in reference seconds (see ``speed.py``): while the
serial workloads and the set-up run pinned to one CPU, a probe on that CPU
measures its speed, and the worker pool is probed on every CPU.  The wall
times are printed next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

import audit  # only the figures and workload names; it imports nothing of the program
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
AUDIT = os.path.join(HERE, "audit.py")

#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: A run must end within 180 s; its child processes share this budget.
RUN_BUDGET_S = 170


def _spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _audit_command(command: str, args: argparse.Namespace, scratch: str) -> List[str]:
    return [
        sys.executable, AUDIT, command,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scratch", scratch,
    ]


class _Children:
    """Runs child processes against one deadline, each in its own session.

    A child that outlives the deadline is killed together with the pool
    workers it forked, and waited for, before the run fails.
    """

    def __init__(self, budget_s: float) -> None:
        self._deadline = time.monotonic() + budget_s

    def run(self, command: List[str], cpus: Sequence[int], on_line=None) -> None:
        with subprocess.Popen(
            command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            start_new_session=True, preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        ) as process:
            try:
                if on_line is not None:
                    on_line(process.stdout.readline())
                process.communicate(timeout=max(1.0, self._deadline - time.monotonic()))
            finally:
                if process.poll() is None:
                    os.killpg(process.pid, signal.SIGKILL)
                    process.wait()
        if process.returncode != 0:
            raise RuntimeError(f"{' '.join(command[1:3])} exited with {process.returncode}")


def _setup_seconds(
    children: _Children, args: argparse.Namespace, scratch: str, cpus: Sequence[int]
) -> float:
    """Median reference time from process start until a set-up probe could
    audit its first design."""
    spans = []
    with speed.Probes(cpus, scratch) as probes:
        for probe in range(SETUP_PROBES):
            command = _audit_command("probe", args, os.path.join(scratch, f"probe-{probe}"))
            started = time.perf_counter()

            def ready(line: str) -> None:
                if line.strip() != "ready":
                    raise RuntimeError(f"set-up probe printed {line!r}")
                spans.append(audit.timed(started))

            children.run(command, cpus, on_line=ready)
    return statistics.median(
        probes.reference_s([span], speed.SETUP_SENSITIVITY) for span in spans
    )


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:34s} {value:14.6f} {unit:6s} {note}".rstrip())


def run(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    spec = _spec()
    children = _Children(RUN_BUDGET_S)
    cpus = sorted(os.sched_getaffinity(0))
    serial_cpus = cpus[:1]
    measure_cpus = cpus if args.workload == "catalogue-pool" else serial_cpus
    scratch = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        setup_s = _setup_seconds(children, args, os.path.join(scratch, "setup"), serial_cpus)
        out = os.path.join(scratch, "measure.json")
        command = _audit_command("measure", args, os.path.join(scratch, "measure"))
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
        if args.trace:
            command += ["--trace-out", os.path.join(
                ROOT, ".perfbench", f"trace-{args.workload}-seed{args.seed}.json")]
        with speed.Probes(measure_cpus, scratch) as probes:
            children.run(command, measure_cpus)
        with open(out, encoding="utf-8") as handle:
            passes = {kind: audit.load_passes(rows) for kind, rows in json.load(handle).items()}
        every = [one for rows in passes.values() for one in rows]
        figures = audit.end_to_end(passes["plain"], probes)
        layers: Optional[Dict[str, float]] = None
        if args.trace:
            and_calls = passes["counted"][0].counts["aig.and_calls"]
            layers = audit.per_layer(passes["plain"], passes["traced"], and_calls, probes)
        cpu_speed = probes.mean_speed()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(one.attempted for one in every)
    failures = [why for one in every for why in one.failures]
    print(f"workload {args.workload} seed {args.seed}: {len(every)} pass(es) of "
          f"{figures['designs_per_pass']} design(s), {attempted} audited, "
          f"{len(failures)} failed; mean CPU speed {cpu_speed:.3f} of the reference")
    for why in failures:
        print(f"  FAILED {why}")
    metrics: Dict[str, Dict[str, object]] = {}
    if layers is None:
        tail = figures["design_tail"]
        values = {
            "setup_s": setup_s,
            "designs_per_s": figures["designs_per_s"],
            "design_p50_s": figures["design_p50_s"],
            "design_tail_s": tail["value"],
            "peak_rss_mb": figures["peak_rss_mb"],
        }
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        notes = {
            "setup_s": f"median of {SETUP_PROBES} set-ups",
            "designs_per_s": f"{figures['designs_per_pass']} designs per pass; "
                             f"wall {figures['wall_designs_per_s']:.4f}/s",
            "design_p50_s": f"wall {figures['wall_design_p50_s']:.4f} s",
            "design_tail_s": f"p{tail['percentile']:.1f}, n={tail['n']}",
        }
        if args.workload == "catalogue-pool":
            notes["design_p50_s"] += ", elaboration + the runtime its report charges"
        print("end-to-end (times in reference seconds):")
        for name, metric in metrics.items():
            _print_metric(name, metric["value"], metric["unit"], notes.get(name, ""))
        _print_metric("failed_share", len(failures) / attempted, "ratio",
                      f"{len(failures)} of {attempted}")
    else:
        for entry in spec["per_layer"]:
            metrics[entry["name"]] = {"value": layers.get(entry["name"], 0.0), "unit": entry["unit"]}
        print("per-layer (mean of the traced passes, wall seconds; "
              "aig.and_calls from the counting pass):")
        for name, metric in metrics.items():
            _print_metric(name, metric["value"], metric["unit"])
    counters_ok = layers is None or not layers["trace.counter_mismatches"]
    print(json.dumps({
        "correct": not failures and counters_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end audit benchmark")
    parser.add_argument("--workload", choices=audit.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
