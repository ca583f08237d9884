"""Hierarchical span tracing with Chrome ``trace_event`` export.

A :class:`Tracer` collects *complete* trace events (``"ph": "X"``): each
span records its name, start timestamp, duration, process id, thread id,
and free-form ``args``.  The ambient tracer is carried in a
:mod:`contextvars` variable, so nesting works across the whole pipeline
without threading a tracer object through every call signature::

    with install_tracer(Tracer()) as tracer:
        with span("bitblast", cls=3):
            ...
    json.dump(tracer.to_chrome_trace(), fh)

When no tracer is installed, :func:`span` returns a shared no-op context
manager — the disabled cost is one contextvar read, which is why span
call sites can stay in place permanently (the hard invariant of the obs
subsystem: zero behavior change when disabled).

Timestamps come from ``time.perf_counter()``.  On Linux that clock is
``CLOCK_MONOTONIC``, which is system-wide: spans recorded in forked
``--jobs N`` worker processes land on the same timeline as the parent's,
so the merged trace (worker spans travel back through the chunk-result
channel as plain dicts, see :meth:`Tracer.absorb`) lines up in the Chrome
trace viewer without any clock translation.

Restoration discipline: :func:`install_tracer` restores the *previous
value* with ``set()`` rather than ``Token.reset()``.  Generator-driven
pipelines can close a context manager from a different context than the
one that entered it (e.g. GC finalizing an abandoned ``iter_results``
generator), where ``reset()`` raises ``ValueError: Token was created in a
different Context``.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

_tracer: contextvars.ContextVar[Optional["Tracer"]] = contextvars.ContextVar(
    "repro_tracer", default=None
)

#: Span names counted as the frontend (parsing, planning, bit-blasting and
#: unrolling) in the profile's summary split.
FRONTEND_PHASES = frozenset({"parse", "plan", "bitblast", "unroll"})
#: Span names counted as miter preprocessing (simulation, fraig sweeping).
PREPROCESS_PHASES = frozenset({"preprocess", "sim", "fraig"})
#: Span names counted as SAT solving.
SOLVE_PHASES = frozenset({"solve", "inprocess"})


class Tracer:
    """Thread-safe collector of completed spans.

    Spans are stored as ready-to-serialize Chrome ``trace_event`` dicts
    (JSON-native scalars only), which is also the form they cross the
    worker-process result channel in — one representation end to end.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []

    def record(
        self,
        name: str,
        started: float,
        duration: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one completed span (timestamps in perf_counter seconds)."""
        event: Dict[str, Any] = {
            "name": name,
            "ph": "X",
            "ts": started * 1e6,
            "dur": duration * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "cat": "repro",
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self._events.append(event)

    def absorb(self, events: Iterable[Dict[str, Any]]) -> None:
        """Merge spans recorded elsewhere (e.g. in a worker process)."""
        incoming = [dict(event) for event in events]
        with self._lock:
            self._events.extend(incoming)

    def export(self) -> List[Dict[str, Any]]:
        """All recorded trace events, in recording order."""
        with self._lock:
            return [dict(event) for event in self._events]

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The trace in Chrome's JSON object format (``chrome://tracing``)."""
        return {"traceEvents": self.export(), "displayTimeUnit": "ms"}

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class _InstallTracer:
    """Context manager making ``tracer`` the ambient tracer."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Optional[Tracer]:
        self._previous = _tracer.get()
        _tracer.set(self._tracer)
        return self._tracer

    def __exit__(self, *_exc_info) -> None:
        _tracer.set(self._previous)


def install_tracer(tracer: Optional[Tracer]) -> _InstallTracer:
    """Make ``tracer`` ambient for the ``with`` block (None uninstalls)."""
    return _InstallTracer(tracer)


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer of the calling context, or None."""
    return _tracer.get()


def clear() -> None:
    """Drop any inherited ambient tracer (forked worker processes call this:
    fork copies the parent's contextvars, but a chunk-local tracer is
    installed per task and parent spans must not leak into worker chunks)."""
    _tracer.set(None)


class _Span:
    """One live span; records itself on the ambient tracer at exit."""

    __slots__ = ("_tracer", "_name", "_args", "_started")

    def __init__(self, tracer: Tracer, name: str, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc_info) -> None:
        self._tracer.record(
            self._name,
            self._started,
            time.perf_counter() - self._started,
            self._args,
        )


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc_info) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


def span(name: str, **args: Any):
    """A context manager timing one named span on the ambient tracer.

    When no tracer is installed (the default), the shared no-op span is
    returned — span call sites cost one contextvar read when disabled.
    """
    tracer = _tracer.get()
    if tracer is None:
        return _NOOP_SPAN
    return _Span(tracer, name, args)


def absorb(events: Iterable[Dict[str, Any]]) -> None:
    """Merge foreign span records into the ambient tracer (no-op if none)."""
    tracer = _tracer.get()
    if tracer is not None:
        tracer.absorb(events)


# ---------------------------------------------------------------------- #
# Profile aggregation
# ---------------------------------------------------------------------- #


def phase_profile(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate trace events into per-phase *self time* totals.

    Spans nest (a ``bitblast`` span contains ``preprocess`` which contains
    ``solve`` calls of the fraig sweep), so naively summing durations
    double-counts.  Instead, per ``(pid, tid)`` lane the spans are swept in
    start order while a stack of open ancestors is maintained: each span
    contributes its full duration to its own phase and subtracts it from
    its direct parent's phase — exclusive (self) time, which sums to real
    wall clock per lane.

    Returns ``{"phases": {name: {"count": n, "total_s": s}},
    "frontend_s": float, "preprocess_s": float, "solve_s": float,
    "total_s": float}``.
    """
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    lanes: Dict[Any, List[Dict[str, Any]]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        lanes.setdefault((event.get("pid"), event.get("tid")), []).append(event)
    for lane_events in lanes.values():
        # Equal start timestamps: the longer span is the parent.
        lane_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[Any] = []  # (end_ts, name) of open ancestors
        for event in lane_events:
            ts, dur, name = event["ts"], event["dur"], event["name"]
            while stack and ts >= stack[-1][0]:
                stack.pop()
            counts[name] = counts.get(name, 0) + 1
            totals[name] = totals.get(name, 0.0) + dur
            if stack:
                parent = stack[-1][1]
                totals[parent] = totals.get(parent, 0.0) - dur
            stack.append((ts + dur, name))
    phases = {
        name: {"count": counts[name], "total_s": totals[name] / 1e6}
        for name in sorted(totals)
    }

    def bucket(names: frozenset) -> float:
        return sum(entry["total_s"] for name, entry in phases.items() if name in names)

    return {
        "phases": phases,
        "frontend_s": bucket(FRONTEND_PHASES),
        "preprocess_s": bucket(PREPROCESS_PHASES),
        "solve_s": bucket(SOLVE_PHASES),
        "total_s": sum(entry["total_s"] for entry in phases.values()),
    }


def format_profile(profile: Dict[str, Any]) -> str:
    """Render a phase profile as the aligned table ``--profile`` prints."""
    phases = profile.get("phases") or {}
    if not phases:
        return "no profile data (run with --trace or --profile)"
    rows = sorted(phases.items(), key=lambda item: -item[1]["total_s"])
    width = max(len("phase"), max(len(name) for name, _ in rows))
    lines = [f"{'phase':{width}s}  {'calls':>7s}  {'self time':>10s}"]
    for name, entry in rows:
        lines.append(
            f"{name:{width}s}  {entry['count']:7d}  {entry['total_s']:9.3f}s"
        )
    lines.append(
        f"{'—'* width}  frontend {profile.get('frontend_s', 0.0):.3f}s"
        f" / preprocess {profile.get('preprocess_s', 0.0):.3f}s"
        f" / solve {profile.get('solve_s', 0.0):.3f}s"
        f" / total {profile.get('total_s', 0.0):.3f}s"
    )
    return "\n".join(lines)
