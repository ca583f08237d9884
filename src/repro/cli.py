"""Command-line interface: ``repro-ht-detect``.

A thin consumer of the session API (:mod:`repro.api`) with seven subcommands::

    repro-ht-detect run --benchmark AES-T1400 --json
    repro-ht-detect run --verilog design.v --top my_accel --inputs din,key
    repro-ht-detect run --benchmark RS232-SEQ-T3000 --mode sequential --depth 20
    repro-ht-detect batch --family RS232 --jobs 4 --cache-dir ~/.repro-cache
    repro-ht-detect list-benchmarks
    repro-ht-detect report audit.json
    repro-ht-detect cache stats --cache-dir ~/.repro-cache
    repro-ht-detect serve --port 8321 --jobs 4 --queue-dir ./audit-queue
    repro-ht-detect submit --url http://127.0.0.1:8321 --benchmark RS232-T1000

``run`` audits one design (``--json`` emits the schema-versioned report,
``--verbose`` streams per-property events as they settle;
``--no-simplify`` / ``--sim-patterns`` / ``--fraig-rounds`` control the
simulation-guided miter preprocessing, which is on by default;
``--no-inprocess`` disables between-check solver simplification and
``--sim-backend`` selects the simulation kernel; ``--mode
sequential`` switches to bounded design-vs-golden equivalence with
``--depth``/``--reset-value``/``--golden-top`` and ``--vcd`` waveform
export of the multi-cycle counterexample), ``batch`` audits
many designs — sharded over ``--jobs`` worker processes — with cumulative
solver statistics, ``list-benchmarks`` prints the bundled Trust-Hub-style
catalogue, ``report`` re-renders a previously saved JSON report, and
``cache`` inspects (``stats``) or empties (``clear``) the persistent on-disk
result cache that ``--cache-dir`` enables on ``run``/``batch``
(``--no-cache`` bypasses both reads and writes).

``serve`` runs the long-lived audit daemon (:mod:`repro.serve`): a
persistent journaled job queue feeding ``--jobs`` worker threads, with
deduplication, per-token quotas, priorities, and live Server-Sent-Events
streaming.  ``submit`` is its client: it posts a design to a running
daemon, streams events with ``--verbose``, and renders the finished report
exactly like ``run`` does (same flags, same exit codes; ``--detach``
returns immediately with the job id instead of waiting).

The pre-subcommand invocation style (``repro-ht-detect --verilog ...``) is
still accepted and mapped onto ``run`` / ``list-benchmarks`` with a
deprecation notice on stderr.

Exit codes: 0 — design(s) proven secure; 1 — a Trojan was suspected or
signals stayed uncovered; 2 — usage, configuration, or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import (
    BatchReport,
    BatchSession,
    CexFound,
    CexWaived,
    ClassProven,
    ClassSimFalsified,
    ConeSimplified,
    Design,
    DetectionConfig,
    DetectionReport,
    DetectionSession,
    PropertyScheduled,
    RunEvent,
    RunFinished,
    RunStarted,
    SolverProgress,
    StructurallyDischarged,
    Waiver,
    parse_input_list,
)
from repro.errors import ReproError
from repro.sat import available_backends, default_backend_name

_SUBCOMMANDS = ("run", "batch", "list-benchmarks", "report", "cache", "serve", "submit")

#: Flag defaults are read off a default config, so tuning a library default
#: can never silently diverge from what the CLI passes (the batch template
#: comparison in _batch_template_from_args relies on this too).
_CONFIG_DEFAULTS = DetectionConfig()


# ---------------------------------------------------------------------- #
# Parser
# ---------------------------------------------------------------------- #


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inputs",
        help="comma-separated list of data inputs to trace (default: all non-clock/reset inputs)",
    )
    parser.add_argument(
        "--waive",
        action="append",
        default=[],
        metavar="SIGNAL",
        help="assume 2-safety equality for SIGNAL (repeatable); see Sec. V-B of the paper",
    )
    parser.add_argument(
        "--no-recommended-waivers",
        action="store_true",
        help="do not apply the benchmark's recommended waivers",
    )
    parser.add_argument(
        "--strict-paper-properties",
        action="store_true",
        help="assume only fanouts_CCk (not all previously proven classes) in fanout property k",
    )
    parser.add_argument(
        "--check-all",
        action="store_true",
        help="do not stop at the first failing property",
    )
    parser.add_argument(
        "--max-class",
        type=int,
        metavar="N",
        help="upper bound on the number of fanout property classes to check",
    )
    parser.add_argument(
        "--solver-backend",
        default="auto",
        choices=["auto"] + available_backends(),
        help=f"SAT backend for the persistent solver context "
             f"(default: auto = {default_backend_name()})",
    )
    parser.add_argument(
        "--jobs", "-j",
        type=int,
        default=1,
        metavar="N",
        help="settle property classes on N worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--task-retries",
        type=int,
        default=_CONFIG_DEFAULTS.task_retries,
        metavar="N",
        help=f"with --jobs > 1: re-queue a task up to N times when the "
             f"worker process holding it dies; a task that exhausts the "
             f"budget is quarantined as an inconclusive outcome instead of "
             f"aborting the run (default: {_CONFIG_DEFAULTS.task_retries})",
    )
    parser.add_argument(
        "--check-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per property-class check; a check that "
             "exceeds it degrades to an inconclusive timeout outcome "
             "(default: none — checks run to completion)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent result cache: replay already-proven classes from DIR "
             "and store newly settled ones",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache (even with --cache-dir)",
    )
    parser.add_argument(
        "--mode",
        default="combinational",
        choices=["combinational", "sequential"],
        help="detection mode: the paper's golden-free combinational flow "
             "(default) or bounded design-vs-golden sequential equivalence",
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=10,
        metavar="K",
        help="sequential mode: unroll both models K cycles from reset (default: 10)",
    )
    parser.add_argument(
        "--reset-value",
        action="append",
        default=[],
        metavar="REG=VALUE",
        help="sequential mode: override one register's reset value (repeatable)",
    )
    parser.add_argument(
        "--no-simplify",
        action="store_true",
        help="disable miter preprocessing (sim-first falsification and "
             "fraig-style SAT sweeping); every obligation goes straight to "
             "Tseitin + CDCL",
    )
    defaults = _CONFIG_DEFAULTS
    parser.add_argument(
        "--sim-patterns",
        type=int,
        default=defaults.sim_patterns,
        metavar="N",
        help=f"random patterns per bit-parallel simulation batch "
             f"(default: {defaults.sim_patterns})",
    )
    parser.add_argument(
        "--fraig-rounds",
        type=int,
        default=defaults.fraig_rounds,
        metavar="N",
        help=f"counterexample-guided refinement rounds of the fraig sweep "
             f"(default: {defaults.fraig_rounds}; 0 keeps sim-first "
             f"falsification but disables SAT sweeping)",
    )
    parser.add_argument(
        "--no-inprocess",
        action="store_true",
        help="disable solver inprocessing between checks (clause "
             "vivification and bounded elimination of dead per-check miter "
             "variables); the persistent clause database is left untouched",
    )
    from repro.aig.simvec import SIM_BACKENDS

    parser.add_argument(
        "--sim-backend",
        choices=SIM_BACKENDS,
        default=defaults.sim_backend,
        help=f"bit-parallel simulation kernel (default: "
             f"{defaults.sim_backend}; auto picks numpy for wide batches "
             f"when installed — the kernels are bit-identical)",
    )


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit the schema-versioned JSON report on stdout"
    )
    parser.add_argument(
        "--output", metavar="FILE", help="also write the JSON report to FILE"
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="stream per-property run events as they settle",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="record spans across the whole pipeline (worker processes "
             "included) and write a Chrome trace_event JSON to FILE "
             "(view in chrome://tracing or https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="trace the run and print a per-phase wall-time breakdown",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ht-detect",
        description="Golden-free formal hardware-Trojan detection (DATE'24 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    run_parser = subparsers.add_parser(
        "run", help="audit one design (Verilog file or bundled benchmark)"
    )
    source = run_parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--verilog", metavar="FILE", help="Verilog source file to verify")
    source.add_argument(
        "--benchmark", metavar="NAME", help="bundled Trust-Hub-style benchmark name"
    )
    run_parser.add_argument("--top", help="top module name (required with --verilog)")
    run_parser.add_argument(
        "--golden-top", metavar="NAME",
        help="sequential mode: top module of the golden model "
             "(same file as --verilog, or --golden; benchmarks default to "
             "their catalogued golden design)",
    )
    run_parser.add_argument(
        "--golden", metavar="FILE",
        help="sequential mode: separate Verilog file holding --golden-top",
    )
    run_parser.add_argument(
        "--vcd", metavar="FILE",
        help="write the counterexample trace (design instance) as a VCD waveform",
    )
    _add_config_options(run_parser)
    _add_output_options(run_parser)

    batch_parser = subparsers.add_parser(
        "batch", help="audit many bundled benchmarks in one process"
    )
    batch_parser.add_argument(
        "benchmarks", nargs="*", metavar="BENCHMARK", help="benchmark names to audit"
    )
    batch_parser.add_argument(
        "--family", action="append", default=[], metavar="FAMILY",
        help="audit every benchmark of FAMILY (repeatable; AES, BasicRSA, RS232)",
    )
    batch_parser.add_argument(
        "--all", action="store_true", help="audit every bundled benchmark"
    )
    batch_parser.add_argument(
        "--clean-only", action="store_true",
        help="restrict the selection to the Trojan-free designs",
    )
    _add_config_options(batch_parser)
    _add_output_options(batch_parser)

    list_parser = subparsers.add_parser(
        "list-benchmarks", help="list the bundled benchmark designs and exit"
    )
    list_parser.add_argument(
        "--family", metavar="FAMILY", help="restrict the listing to one family"
    )

    report_parser = subparsers.add_parser(
        "report", help="re-render a saved JSON report (single-design or batch)"
    )
    report_parser.add_argument("file", metavar="FILE", help="JSON report produced with --json")
    report_parser.add_argument(
        "--json", action="store_true", help="re-emit the normalized JSON instead of the summary"
    )
    report_parser.add_argument(
        "--profile", action="store_true",
        help="print the per-phase time breakdown of a traced report "
             "(runs recorded with --trace/--profile)",
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the persistent on-disk result cache"
    )
    cache_subparsers = cache_parser.add_subparsers(
        dest="cache_command", required=True, metavar="ACTION"
    )
    for action, help_text in (
        ("stats", "print entry count and total size of the cache"),
        ("clear", "delete every cached entry"),
    ):
        action_parser = cache_subparsers.add_parser(action, help=help_text)
        action_parser.add_argument(
            "--cache-dir", required=True, metavar="DIR", help="cache directory"
        )

    serve_parser = subparsers.add_parser(
        "serve", help="run the long-lived audit daemon (HTTP/JSON + SSE)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8321, metavar="PORT",
        help="bind port (default: 8321; 0 picks a free port)",
    )
    serve_parser.add_argument(
        "--jobs", "-j", type=int, default=2, metavar="N",
        help="worker threads running audits (default: 2; 0 accepts and "
             "journals jobs without running them)",
    )
    serve_parser.add_argument(
        "--queue-dir", default=".repro-serve", metavar="DIR",
        help="persistent job queue directory (default: .repro-serve); the "
             "daemon replays incomplete journaled jobs from here on startup",
    )
    serve_parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="shared result cache for every served audit "
             "(default: QUEUE_DIR/cache)",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true",
        help="run served audits without the shared result cache",
    )
    serve_parser.add_argument(
        "--quota", type=int, default=0, metavar="N",
        help="max incomplete jobs per client token (default: 0, unlimited)",
    )
    serve_parser.add_argument(
        "--token-quota", action="append", default=[], metavar="TOKEN=N",
        help="override the quota for one client token (repeatable)",
    )
    serve_parser.add_argument(
        "--lease", type=float, default=None, metavar="SECONDS",
        help="job lease duration when several daemons share one --queue-dir; "
             "a running job whose lease expires is re-queued by a surviving "
             "daemon (default: 30)",
    )
    serve_parser.add_argument(
        "--owner", default=None, metavar="ID",
        help="stable daemon identity stamped on leases and journals "
             "(default: a per-process random id)",
    )

    submit_parser = subparsers.add_parser(
        "submit", help="submit one audit to a running daemon and stream it"
    )
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8321", metavar="URL",
        help="base URL of the daemon (default: http://127.0.0.1:8321)",
    )
    submit_source = submit_parser.add_mutually_exclusive_group(required=True)
    submit_source.add_argument(
        "--verilog", metavar="FILE", help="Verilog source file to upload"
    )
    submit_source.add_argument(
        "--benchmark", metavar="NAME", help="bundled Trust-Hub-style benchmark name"
    )
    submit_parser.add_argument("--top", help="top module name (required with --verilog)")
    submit_parser.add_argument(
        "--golden-top", metavar="NAME",
        help="sequential mode: top module of the golden model",
    )
    submit_parser.add_argument(
        "--golden", metavar="FILE",
        help="sequential mode: separate Verilog file holding --golden-top",
    )
    submit_parser.add_argument(
        "--priority", type=int, default=0, metavar="N",
        help="queue priority (higher runs first; default: 0)",
    )
    submit_parser.add_argument(
        "--token", default="", metavar="TOKEN",
        help="client token for the daemon's quota accounting",
    )
    submit_parser.add_argument(
        "--detach", action="store_true",
        help="submit and print the job id without waiting for the verdict",
    )
    _add_config_options(submit_parser)
    _add_output_options(submit_parser)

    return parser


def _normalise_argv(argv: List[str]) -> List[str]:
    """Map the legacy flag-only invocation style onto the subcommands."""
    if not argv or argv[0] in _SUBCOMMANDS or argv[0] in ("-h", "--help"):
        return argv
    if argv[0].startswith("-"):
        if "--list-benchmarks" in argv:
            rest = [arg for arg in argv if arg != "--list-benchmarks"]
            return ["list-benchmarks"] + rest
        print(
            "repro-ht-detect: note: flag-only invocation is deprecated; "
            "use the 'run' subcommand",
            file=sys.stderr,
        )
        return ["run"] + argv
    return argv


# ---------------------------------------------------------------------- #
# Shared helpers
# ---------------------------------------------------------------------- #


def _parse_reset_values(items: List[str]) -> Optional[dict]:
    """Parse repeated ``--reset-value REG=VALUE`` flags into a dict."""
    if not items:
        return None
    values = {}
    for item in items:
        name, separator, text = item.partition("=")
        name = name.strip()
        if not separator or not name or not text.strip():
            raise ReproError(
                f"--reset-value expects REGISTER=VALUE, got {item!r}"
            )
        try:
            values[name] = int(text.strip(), 0)
        except ValueError as error:
            raise ReproError(
                f"--reset-value {item!r}: value is not an integer"
            ) from error
    return values


def _shared_config_kwargs(args: argparse.Namespace) -> dict:
    """Config fields that map 1:1 from CLI flags, shared by run and batch."""
    return dict(
        cumulative_assumptions=not args.strict_paper_properties,
        stop_at_first_failure=not args.check_all,
        max_class=args.max_class,
        solver_backend=args.solver_backend,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        mode=args.mode,
        depth=args.depth,
        reset_values=_parse_reset_values(args.reset_value),
        simplify=not args.no_simplify,
        sim_patterns=args.sim_patterns,
        fraig_rounds=args.fraig_rounds,
        inprocess=not args.no_inprocess,
        sim_backend=args.sim_backend,
        trace=bool(getattr(args, "trace", None)) or bool(getattr(args, "profile", False)),
        task_retries=args.task_retries,
        check_timeout_s=args.check_timeout,
    )


def _config_from_args(args: argparse.Namespace, design: Design) -> DetectionConfig:
    if args.inputs:
        inputs: Optional[List[str]] = parse_input_list(args.inputs)
    else:
        inputs = list(design.data_inputs) or None
    waivers = [Waiver(signal=name, reason="command line") for name in args.waive]
    if not args.no_recommended_waivers:
        waivers.extend(
            Waiver(signal=name, reason=f"recommended for {design.name}")
            for name in design.recommended_waivers
        )
    return DetectionConfig(inputs=inputs, waivers=waivers, **_shared_config_kwargs(args))


def _batch_template_from_args(args: argparse.Namespace) -> Optional[DetectionConfig]:
    """The batch's shared config template, or None when every flag is at its
    default (letting each design's own recommended defaults apply).

    Built unconditionally and compared against a default config, so a new
    flag wired into :func:`_shared_config_kwargs` can never be silently
    dropped by a hand-maintained any-flag-set condition.
    """
    template = DetectionConfig(
        inputs=parse_input_list(args.inputs) if args.inputs else None,
        waivers=[Waiver(signal=name, reason="command line") for name in args.waive],
        **_shared_config_kwargs(args),
    )
    return None if template == DetectionConfig() else template


def _print_event(event: RunEvent, file=None) -> None:
    # With --json the event stream goes to stderr so that stdout stays a
    # single machine-readable JSON document.
    out = file if file is not None else sys.stdout
    if isinstance(event, RunStarted):
        print(f"{event.design}: {event.scheduled_classes} property classes "
              f"({event.solver_backend} backend)", file=out)
    elif isinstance(event, PropertyScheduled):
        print(f"  scheduled {event.label} ({event.commitments} commitments)", file=out)
    elif isinstance(event, StructurallyDischarged):
        print(f"  {event.label:24s} holds  (structural, "
              f"{event.outcome.result.runtime_seconds:.2f} s)", file=out)
    elif isinstance(event, ClassProven):
        result = event.outcome.result
        print(f"  {event.label:24s} holds  ({result.runtime_seconds:.2f} s, "
              f"{result.cnf_new_clauses} new / {result.cnf_reused_clauses} reused clauses)",
              file=out)
    elif isinstance(event, ConeSimplified):
        print(f"  {event.label:24s} swept  ({event.nodes_before} -> "
              f"{event.nodes_after} cone nodes, {event.merged_nodes} merged)",
              file=out)
    elif isinstance(event, ClassSimFalsified):
        print(f"  {event.label:24s} falsified by random simulation "
              f"(zero CDCL calls)", file=out)
    elif isinstance(event, CexFound):
        status = "spurious, auto-resolving" if event.auto_resolvable else "Trojan suspected"
        print(f"  {event.label:24s} FAILS  (counterexample: {status})", file=out)
    elif isinstance(event, CexWaived):
        print(f"  {event.label:24s} waived spurious counterexample "
              f"via {', '.join(event.signals)}", file=out)
    elif isinstance(event, SolverProgress):
        print(f"  {event.label:24s} solving... {event.conflicts} conflicts, "
              f"{event.restarts} restarts, {event.learned_clauses} learned, "
              f"decision level {event.decision_level}", file=out)


def _emit_json(args: argparse.Namespace, document: str, summary: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    if args.json:
        print(document)
    else:
        print(summary)


# ---------------------------------------------------------------------- #
# Subcommands
# ---------------------------------------------------------------------- #


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.obs.trace import span as _span

    tracer = _make_tracer(args)
    with _install_tracer_if(tracer):
        with _span("parse", source=args.benchmark or args.verilog):
            if args.benchmark:
                if args.golden or args.golden_top:
                    parser.error("--golden/--golden-top apply to --verilog designs "
                                 "only; benchmarks use their catalogued golden model")
                design = Design.from_benchmark(args.benchmark)
            else:
                if not args.top:
                    parser.error("--top is required with --verilog")
                if args.golden and not args.golden_top:
                    parser.error("--golden needs --golden-top to name the golden module")
                if args.golden_top and args.mode != "sequential":
                    # Silently ignoring the golden model would let a forgotten
                    # --mode sequential print a SECURE verdict that compared
                    # nothing.
                    parser.error("--golden-top/--golden require --mode sequential")
                design = Design.from_file(
                    args.verilog,
                    top=args.top,
                    golden_top=args.golden_top,
                    golden_path=args.golden,
                )

        session = DetectionSession(design, config=_config_from_args(args, design))
        if args.verbose:
            event_stream = sys.stderr if args.json else sys.stdout
            # Heartbeats are transient (bus-only, never part of the merged
            # class-ordered stream), so verbose mode watches the bus for them.
            session.subscribe(
                lambda event: _print_event(event, file=event_stream),
                event_type=SolverProgress,
                safe=True,
            )
            for event in session.iter_results():
                if not isinstance(event, RunFinished):
                    _print_event(event, file=event_stream)
            report = session.report
        else:
            report = session.run()

    _emit_json(args, report.to_json(), report.summary())
    if args.vcd:
        _write_cex_vcd(args.vcd, report, design)
    _emit_trace(args, tracer)
    return 0 if report.is_secure else 1


def _make_tracer(args: argparse.Namespace):
    """A fresh Tracer when ``--trace``/``--profile`` ask for one, else None."""
    if getattr(args, "trace", None) or getattr(args, "profile", False):
        from repro.obs.trace import Tracer

        return Tracer()
    return None


def _install_tracer_if(tracer):
    """``install_tracer(tracer)`` or a no-op context when tracing is off."""
    if tracer is None:
        from contextlib import nullcontext

        return nullcontext()
    from repro.obs.trace import install_tracer

    return install_tracer(tracer)


def _emit_trace(args: argparse.Namespace, tracer) -> None:
    """Write the Chrome trace file and/or print the per-phase breakdown."""
    if tracer is None:
        return
    import json as _json

    from repro.obs.trace import format_profile, phase_profile

    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            _json.dump(tracer.to_chrome_trace(), handle)
        print(f"trace written to {args.trace} ({len(tracer)} spans)", file=sys.stderr)
    if args.profile:
        out = sys.stderr if args.json else sys.stdout
        print(format_profile(phase_profile(tracer.export())), file=out)


def _write_cex_vcd(path: str, report: DetectionReport, design: Design) -> None:
    """Dump the report's counterexample (design instance) as a VCD waveform.

    Sequential counterexamples render as full multi-cycle traces — one
    snapshot per unrolled cycle; combinational ones cover the property's
    one-cycle window.  The waveform is a side artifact of a finished audit:
    having nothing to dump or an unwritable path is reported on stderr, it
    never discards the report or changes the exit code.
    """
    from repro.sim import trace_from_counterexample, write_vcd

    if report.counterexample is None:
        print(f"note: no counterexample to dump, {path!r} not written", file=sys.stderr)
        return
    trace = trace_from_counterexample(report.counterexample, instance=0)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            write_vcd(trace, design.module.signals, handle, module_name=design.module.name)
    except OSError as error:
        print(f"error: cannot write VCD waveform {path!r}: {error}", file=sys.stderr)
        return
    print(f"counterexample waveform written to {path}", file=sys.stderr)


def _select_benchmarks(args: argparse.Namespace, parser: argparse.ArgumentParser) -> List[str]:
    from repro.trusthub import design_names, families

    names: List[str] = list(args.benchmarks)
    for family in args.family:
        if family not in families():
            parser.error(f"unknown family {family!r}; available: {', '.join(families())}")
        names.extend(design_names(family=family))
    if args.all:
        names.extend(design_names())
    if args.clean_only:
        clean = set(design_names(with_trojan=False))
        names = [name for name in names if name in clean]
    if not names:
        parser.error("batch needs benchmark names, --family, or --all")
    unique: List[str] = []
    for name in names:
        if name not in unique:
            unique.append(name)
    return unique


def _cmd_batch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    batch = BatchSession(
        config=_batch_template_from_args(args),
        use_recommended_waivers=not args.no_recommended_waivers,
    )
    if args.verbose:
        event_stream = sys.stderr if args.json else sys.stdout
        batch.subscribe(lambda event: _print_event(event, file=event_stream))
    for name in _select_benchmarks(args, parser):
        batch.add(name)

    tracer = _make_tracer(args)
    with _install_tracer_if(tracer):
        report = batch.run()
    _emit_json(args, report.to_json(), report.summary())
    _emit_trace(args, tracer)
    return 0 if report.all_secure else 1


def _cmd_list_benchmarks(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.trusthub import catalog, families

    if args.family and args.family not in families():
        parser.error(f"unknown family {args.family!r}; available: {', '.join(families())}")
    for name, design in sorted(catalog().items()):
        if args.family and design.family != args.family:
            continue
        trojan = "trojan" if design.has_trojan else "HT-free"
        print(f"{name:18s} {design.family:9s} {trojan:8s} "
              f"payload={design.payload:9s} trigger={design.trigger}")
    return 0


def _cmd_cache(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.exec import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"cache {stats['root']}: {stats['entries']} entries, "
              f"{stats['bytes']} bytes (schema v{stats['cache_schema']})")
        return 0
    removed = cache.clear()
    print(f"cache {cache.root}: removed {removed} entries")
    return 0


def _cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import json as _json

    with open(args.file, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = _json.loads(text)
    except _json.JSONDecodeError as error:
        raise ReproError(f"{args.file!r} is not valid JSON: {error}") from error
    if not isinstance(data, dict):
        raise ReproError(f"{args.file!r} does not look like a JSON report")
    if "reports" in data:
        batch = BatchReport.from_dict(data)
        if args.profile:
            from repro.obs.trace import format_profile

            for entry in batch.reports:
                print(f"{entry.design}:")
                print("  " + format_profile(entry.profile or {}).replace("\n", "\n  "))
            return 0 if batch.all_secure else 1
        print(batch.to_json() if args.json else batch.summary())
        return 0 if batch.all_secure else 1
    report = DetectionReport.from_dict(data)
    if args.profile:
        from repro.obs.trace import format_profile

        print(format_profile(report.profile or {}))
        return 0 if report.is_secure else 1
    print(report.to_json() if args.json else report.summary())
    return 0 if report.is_secure else 1


def _parse_token_quotas(items: List[str]) -> dict:
    """Parse repeated ``--token-quota TOKEN=N`` flags into a dict."""
    quotas = {}
    for item in items:
        token, separator, text = item.partition("=")
        if not separator or not token:
            raise ReproError(f"--token-quota expects TOKEN=N, got {item!r}")
        try:
            quotas[token] = int(text.strip())
        except ValueError as error:
            raise ReproError(
                f"--token-quota {item!r}: quota is not an integer"
            ) from error
    return quotas


def _cmd_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.serve import AuditServer
    from repro.serve.queue import DEFAULT_LEASE_S

    server = AuditServer(
        host=args.host,
        port=args.port,
        queue_dir=args.queue_dir,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        default_quota=args.quota,
        quotas=_parse_token_quotas(args.token_quota),
        owner=args.owner,
        lease_s=args.lease if args.lease is not None else DEFAULT_LEASE_S,
    )
    server.start()
    recovered = server.queue.recovered_jobs
    print(
        f"repro serve: listening on {server.url} "
        f"({args.jobs} worker(s), queue {args.queue_dir}"
        + (f", {recovered} job(s) recovered" if recovered else "")
        + ")",
        file=sys.stderr,
    )
    import time

    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


def _submission_config_dict(args: argparse.Namespace) -> dict:
    """The semantic config overlay sent with a submission.

    Execution knobs (jobs, cache) are the daemon's to decide, so they are
    stripped; they never enter the config fingerprint either, so a served
    audit stays report-identical to a local ``run``.
    """
    config = DetectionConfig(
        inputs=parse_input_list(args.inputs) if args.inputs else None,
        waivers=[Waiver(signal=name, reason="command line") for name in args.waive],
        **_shared_config_kwargs(args),
    )
    data = config.to_dict()
    for knob in ("jobs", "cache_dir", "use_cache", "trace", "task_retries"):
        data.pop(knob, None)
    return data


def _cmd_submit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.serve.client import AuditFailedError, ServeClient

    if args.trace or args.profile:
        # Tracing is a local execution knob; the daemon runs audits
        # untraced so served reports stay byte-identical to local runs.
        print("note: served audits are not traced; --trace/--profile ignored",
              file=sys.stderr)
    body: dict = {
        "config": _submission_config_dict(args),
        "use_recommended_waivers": not args.no_recommended_waivers,
        "priority": args.priority,
    }
    if args.benchmark:
        if args.golden or args.golden_top:
            parser.error("--golden/--golden-top apply to --verilog designs only; "
                         "benchmarks use their catalogued golden model")
        body["benchmark"] = args.benchmark
    else:
        if not args.top:
            parser.error("--top is required with --verilog")
        if args.golden and not args.golden_top:
            parser.error("--golden needs --golden-top to name the golden module")
        with open(args.verilog, "r", encoding="utf-8") as handle:
            body["verilog"] = handle.read()
        body["top"] = args.top
        if args.golden_top:
            body["golden_top"] = args.golden_top
        if args.golden:
            with open(args.golden, "r", encoding="utf-8") as handle:
                body["golden_verilog"] = handle.read()

    client = ServeClient(args.url, token=args.token or None)
    handle_data = client.submit(body)
    job = handle_data["job"]
    note = " (attached to existing job)" if handle_data["deduplicated"] else ""
    print(f"submitted job {job['id']} [{job['design_name']}]{note}", file=sys.stderr)
    if args.detach:
        print(job["id"])
        return 0

    event_stream = sys.stderr if args.json else sys.stdout
    try:
        for event in client.stream_events(job["id"]):
            if args.verbose and not isinstance(event, RunFinished):
                _print_event(event, file=event_stream)
    except AuditFailedError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = client.report(job["id"])
    _emit_json(args, report.to_json(), report.summary())
    return 0 if report.is_secure else 1


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #

_HANDLERS = {
    "run": _cmd_run,
    "batch": _cmd_batch,
    "list-benchmarks": _cmd_list_benchmarks,
    "report": _cmd_report,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_normalise_argv(argv))

    try:
        return _HANDLERS[args.command](args, parser)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
