"""The :class:`Design` loader: one object per design under audit.

A ``Design`` bundles everything a session needs — the elaborated module, the
structural fanout analysis, and (for bundled benchmarks) the recommended
inputs and waivers — behind three uniform constructors::

    Design.from_source(verilog_text, top="my_accel")
    Design.from_file("rtl/my_accel.v", top="my_accel")
    Design.from_benchmark("AES-T1400")

All loaders validate eagerly and raise :class:`repro.errors.ReproError`
subclasses with actionable messages, so a bad design never reaches the
middle of a verification run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import DetectionConfig, Waiver, validate_input_names
from repro.errors import ConfigError, DesignError
from repro.rtl.elaborate import elaborate_source
from repro.rtl.fanout import FanoutAnalysis, compute_fanout_classes
from repro.rtl.ir import Module
from repro.rtl.netlist import DependencyGraph


def parse_input_list(text: str) -> List[str]:
    """Parse a comma-separated signal list (the CLI's ``--inputs`` syntax).

    Whitespace around names is stripped; empty entries and duplicates raise a
    :class:`repro.errors.ConfigError` instead of being passed through to
    elaboration, where they would fail with a confusing unknown-signal error.
    """
    names = [token.strip() for token in text.split(",")]
    if not any(names):
        raise ConfigError("input list must name at least one signal")
    if "" in names:
        raise ConfigError(
            f"empty signal name in input list {text!r} "
            "(check for stray or trailing commas)"
        )
    validate_input_names(names, source=text)
    return names


class Design:
    """One design under audit: module, fanout analysis, and audit defaults."""

    def __init__(
        self,
        module: Module,
        name: Optional[str] = None,
        origin: str = "module",
        data_inputs: Sequence[str] = (),
        recommended_waivers: Sequence[str] = (),
        description: str = "",
        golden: Optional[Module] = None,
        golden_source: Optional[str] = None,
        golden_top: Optional[str] = None,
    ) -> None:
        self._module = module
        self._name = name or module.name
        self._origin = origin
        self._data_inputs = tuple(data_inputs)
        self._recommended_waivers = tuple(recommended_waivers)
        self._description = description
        # Golden model of the sequential detection mode: either an already
        # elaborated module, or (source, top) elaborated lazily on first use
        # so combinational audits never pay for it.
        self._golden = golden
        self._golden_source = golden_source
        self._golden_top = golden_top
        self._analyses: Dict[Tuple[str, ...], FanoutAnalysis] = {}
        self._graph: Optional[DependencyGraph] = None
        self._validate()

    # ------------------------------------------------------------------ #
    # Loaders
    # ------------------------------------------------------------------ #

    @classmethod
    def from_source(
        cls,
        source: str,
        top: str,
        name: Optional[str] = None,
        golden_top: Optional[str] = None,
        golden_source: Optional[str] = None,
    ) -> "Design":
        """Elaborate Verilog ``source`` with top module ``top``.

        ``golden_top`` optionally names the golden model of the sequential
        detection mode — a module of the same source (or of
        ``golden_source``, when given), elaborated lazily on first use.
        """
        if not top:
            raise DesignError("from_source() needs the name of the top module")
        if golden_source is not None and not golden_top:
            raise DesignError(
                "from_source() got golden_source without golden_top; name the "
                "golden module to enable the sequential mode"
            )
        module = elaborate_source(source, top)
        return cls(
            module,
            name=name,
            origin="source",
            golden_source=(golden_source or source) if golden_top else None,
            golden_top=golden_top,
        )

    @classmethod
    def from_file(
        cls,
        path: str,
        top: str,
        name: Optional[str] = None,
        golden_top: Optional[str] = None,
        golden_path: Optional[str] = None,
    ) -> "Design":
        """Read and elaborate a Verilog file.

        ``golden_top`` optionally names the sequential mode's golden model,
        looked up in the same file — or in ``golden_path``, when given.
        """
        if not top:
            raise DesignError(f"from_file({path!r}) needs the name of the top module")
        if golden_path is not None and not golden_top:
            raise DesignError(
                f"from_file({path!r}) got golden_path without golden_top; name "
                f"the golden module to enable the sequential mode"
            )
        source = cls._read_verilog(path)
        golden_source: Optional[str] = None
        if golden_top:
            golden_source = cls._read_verilog(golden_path) if golden_path else source
        module = elaborate_source(source, top)
        return cls(
            module,
            name=name or top,
            origin=f"file:{path}",
            golden_source=golden_source,
            golden_top=golden_top,
        )

    @classmethod
    def from_benchmark(cls, name: str) -> "Design":
        """Load one of the bundled Trust-Hub-style benchmarks by name."""
        from repro.trusthub import load_design

        bench = load_design(name)  # raises DesignError with the available names
        return cls(
            bench.elaborate(),
            name=bench.name,
            origin="benchmark",
            data_inputs=bench.data_inputs,
            recommended_waivers=bench.recommended_waivers,
            description=bench.description,
            golden_source=bench.source if bench.golden_top else None,
            golden_top=bench.golden_top,
        )

    @classmethod
    def from_module(
        cls,
        module: Module,
        name: Optional[str] = None,
        golden: Optional[Module] = None,
    ) -> "Design":
        """Wrap an already-elaborated :class:`repro.rtl.ir.Module`."""
        return cls(module, name=name, golden=golden)

    @staticmethod
    def _read_verilog(path: str) -> str:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as error:
            raise DesignError(f"cannot read Verilog file {path!r}: {error}") from error

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return self._name

    @property
    def module(self) -> Module:
        return self._module

    @property
    def origin(self) -> str:
        """Where the design came from: ``source``, ``file:<path>``, ``benchmark``, ``module``."""
        return self._origin

    @property
    def data_inputs(self) -> Tuple[str, ...]:
        """The inputs an audit should trace (benchmark metadata or module default)."""
        return self._data_inputs or tuple(self._module.data_inputs())

    @property
    def recommended_waivers(self) -> Tuple[str, ...]:
        return self._recommended_waivers

    @property
    def description(self) -> str:
        return self._description

    def golden_module(self) -> Optional[Module]:
        """The sequential mode's golden model, elaborated lazily (or None)."""
        if self._golden is None and self._golden_top:
            self._golden = elaborate_source(self._golden_source, self._golden_top)
        return self._golden

    def graph(self) -> DependencyGraph:
        """The module's structural dependency graph (built once, then cached)."""
        if self._graph is None:
            self._graph = DependencyGraph(self._module)
        return self._graph

    def analysis(self, inputs: Optional[Sequence[str]] = None) -> FanoutAnalysis:
        """Structural fanout analysis for ``inputs`` (cached per input set)."""
        selected = tuple(inputs) if inputs is not None else self.data_inputs
        self._check_inputs(selected)
        if selected not in self._analyses:
            self._analyses[selected] = compute_fanout_classes(
                self._module, inputs=selected, graph=self.graph()
            )
        return self._analyses[selected]

    def default_config(self, include_recommended_waivers: bool = True, **overrides) -> DetectionConfig:
        """A :class:`DetectionConfig` seeded with this design's audit defaults."""
        settings = {
            "inputs": list(self.data_inputs),
            "waivers": [
                Waiver(signal=signal, reason=f"recommended for {self._name}")
                for signal in (self._recommended_waivers if include_recommended_waivers else ())
            ],
        }
        settings.update(overrides)
        return DetectionConfig(**settings)

    def describe(self) -> str:
        """One-paragraph description for interactive use."""
        module = self._module
        lines = [
            f"design {self._name} (top module {module.name}, origin {self._origin})",
            f"  inputs: {', '.join(module.inputs) or '-'}",
            f"  data inputs traced: {', '.join(self.data_inputs) or '-'}",
            f"  registers: {len(module.registers)}, outputs: {len(module.outputs)}",
        ]
        if self._recommended_waivers:
            lines.append(f"  recommended waivers: {', '.join(self._recommended_waivers)}")
        if self._description:
            lines.append(f"  {self._description}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Design({self._name!r}, origin={self._origin!r})"

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def _validate(self) -> None:
        # Deliberately no every-design-must-have-data-inputs check: a module
        # whose inputs are all classified as clock/reset still runs (the
        # coverage check reports everything uncovered), and the caller's
        # config may name the traced inputs explicitly.  Only names that can
        # never resolve are rejected here.
        self._check_inputs(self._data_inputs)
        if self._golden_top and self._golden is None and self._golden_source is None:
            # Fail at construction with an actionable message; otherwise
            # golden_module() would hand elaborate_source(None, ...) to the
            # lexer mid-run and die with a bare TypeError.
            raise DesignError(
                f"design {self._name!r} names golden top {self._golden_top!r} "
                f"but has no golden source to elaborate it from"
            )

    def _check_inputs(self, inputs: Sequence[str]) -> None:
        unknown = [name for name in inputs if name not in self._module.inputs]
        if unknown:
            raise DesignError(
                f"design {self._name!r} has no input(s) {', '.join(sorted(unknown))}; "
                f"available inputs: {', '.join(self._module.inputs)}"
            )
