"""CPU-speed probes: how fast a CPU ran over a stretch of time.

On a shared virtual machine a CPU alternates between a fast state and a
state in which it runs Python about 1.5-1.9 times slower, as the host's
other tenants come and go, and the share of time in the slow state drifts
over minutes.  Timing the program alone then measures the host as much as
the program.

A probe is a process pinned to one CPU.  Every :data:`INTERVAL_S` it wakes,
times a fixed pure-Python loop and records when it ran and how long it
took, so it takes about 1% of the CPU from whatever else runs there.
:data:`REFERENCE_S` divided by the loop's time is the CPU's *speed* at that
moment.  The program slows down more than the probe's loop does: over the
passes of a run, log wall time falls with log mean speed with a slope of
about :data:`SENSITIVITY`.  Work that took ``seconds`` while the CPU's mean
speed was ``v`` is therefore booked as ``seconds * v ** SENSITIVITY``
*reference seconds*, the time it would have taken on a CPU that always runs
the loop in :data:`REFERENCE_S` (a set-up uses :data:`SETUP_SENSITIVITY`).  A change to the program moves reference
seconds as it moves wall time, since the probe's loop does not depend on
the program.

Run as a script, this module is the probe process::

    python3 perfbench/speed.py --cpu 0 --out samples.txt

It prints ``ready`` once it is pinned, then writes one ``start duration``
line per sample until it receives SIGTERM or its parent ends.
"""

from __future__ import annotations

import argparse
import bisect
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Iterable, List, Optional, Sequence, Tuple

#: Iterations of the probe loop; it takes ~0.2 ms.
LOOP = 3000
#: Pause between two samples.
INTERVAL_S = 0.02
#: Probe-loop time of a 2.1 GHz x86 CPU in its fast state, the speed the
#: reported reference seconds are expressed in.
REFERENCE_S = 180e-6
#: Slope of log pass time over log mean probe speed, fitted on a 2-vCPU x86
#: virtual machine: 1.43 over 31 ``catalogue-cold`` passes and 1.54 over 23
#: ``datapath-sat`` passes in one stretch of 4 minutes, and 1.42 and 1.45
#: over three such stretches in 80 minutes whose machine speed differed by
#: a factor of 1.7.  With it the passes' wall times, whose coefficient of
#: variation was 11-17%, vary by 2-4% in reference seconds (1.0 leaves
#: 5-11%).
SENSITIVITY = 1.5
#: The same slope for a set-up: starting an interpreter, importing the
#: program and building the catalogue slow down about as much as the probe
#: (slope 0.84 over 476 set-ups on the same machine).
SETUP_SENSITIVITY = 1.0
#: Speeds are clipped to this range: a sample the scheduler interrupted for
#: a whole time slice says nothing about the CPU's speed.
CLIP = (1 / 3, 2.0)
#: A span with fewer samples than this is judged by this many samples
#: around its middle.
MIN_SAMPLES = 10


def _loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


def probe(cpu: int, out: str) -> None:
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    with open(out, "w", encoding="utf-8") as handle:
        print("ready", flush=True)
        # A probe whose parent died without stopping it stops by itself.
        while not stopping and os.getppid() == parent:
            start = time.perf_counter()
            _loop()
            handle.write(f"{start:.6f} {time.perf_counter() - start:.7f}\n")
            time.sleep(INTERVAL_S)


class Samples:
    """One CPU's speed over time, from a probe's output file."""

    def __init__(self, rows: Iterable[Tuple[float, float]]) -> None:
        rows = sorted(rows)
        self.times = [start for start, _ in rows]
        low, high = CLIP
        self.speeds = [min(high, max(low, REFERENCE_S / took)) for _, took in rows]

    @classmethod
    def load(cls, path: str) -> "Samples":
        with open(path, encoding="utf-8") as handle:
            return cls(tuple(map(float, line.split())) for line in handle if line.strip())

    def speed(self, start: float, end: float) -> float:
        """Mean speed of the samples taken in ``[start, end]``."""
        first = bisect.bisect_left(self.times, start)
        last = bisect.bisect_right(self.times, end)
        if last - first < MIN_SAMPLES:
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            first = max(0, middle - MIN_SAMPLES // 2)
            last = min(len(self.times), first + MIN_SAMPLES)
        if last <= first:
            raise RuntimeError(f"no speed samples near [{start:.3f}, {end:.3f}]")
        return statistics.fmean(self.speeds[first:last])


class Probes:
    """Probe processes on some CPUs, started and stopped together.

    The speed over a span is the mean over the probed CPUs: a serial
    workload pinned to one CPU is probed on that CPU only, the worker pool
    on every CPU it may run on.
    """

    def __init__(self, cpus: Sequence[int], scratch: str) -> None:
        self.cpus = list(cpus)
        os.makedirs(scratch, exist_ok=True)
        self._paths = [os.path.join(scratch, f"speed-cpu{cpu}.txt") for cpu in self.cpus]
        self._processes: List[subprocess.Popen] = []
        self._samples: Optional[List[Samples]] = None

    def __enter__(self) -> "Probes":
        try:
            for cpu, path in zip(self.cpus, self._paths):
                process = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), "--cpu", str(cpu), "--out", path],
                    stdout=subprocess.PIPE, text=True,
                )
                self._processes.append(process)
                if process.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"speed probe on CPU {cpu} did not start")
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        for process in self._processes:
            if process.poll() is None:
                process.terminate()
        for process in self._processes:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
        self._processes = []

    def _loaded(self) -> List[Samples]:
        if self._samples is None:
            self.stop()  # the probes write their samples out as they stop
            self._samples = [Samples.load(path) for path in self._paths]
        return self._samples

    def speed(self, start: float, end: float) -> float:
        return statistics.fmean(samples.speed(start, end) for samples in self._loaded())

    def reference_s(
        self, spans: Iterable[Sequence[float]], sensitivity: float = SENSITIVITY
    ) -> float:
        """Reference seconds of ``(seconds, start, end)`` spans, summed."""
        return sum(
            seconds * self.speed(start, end) ** sensitivity for seconds, start, end in spans
        )

    def mean_speed(self) -> float:
        """Mean speed over all samples of all probed CPUs."""
        return statistics.fmean(v for samples in self._loaded() for v in samples.speeds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    probe(args.cpu, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
