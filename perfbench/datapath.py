"""Seeded generator of SAT-heavy, secure-by-construction datapath designs.

Each design registers its operands, delays one of them through a register
pipeline, and stores the XOR of both sides of an arithmetic identity in an
output register.  The identity holds for every input, so the design is
SECURE, but structural hashing cannot fold the two sides into one AIG node,
so each fanout property needs a real CDCL refutation of the miter.

The pipeline tail is a free leaf of the property that proves the output
register, which is what keeps the SAT problem out of the reach of the
structural pass.  The seed only varies what does not change an identity's
difficulty much: signal names, pipeline depth and which side of the
identity comes first.  The mix of identities and widths is fixed, so runs
with different seeds do comparable work, and each identity appears
:data:`COPIES` times, so no single design dominates a pass and a pass gives
enough samples for a tail percentile.  Every class stays well under the
default 20000-conflict split budget, so the workload measures monolithic
CDCL whether or not cube splitting exists.

This module imports nothing from the program: the program receives only the
generated Verilog text.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Tuple

#: (identity, operand width, left side, right side).  ``{x}`` is the
#: pipelined operand, ``{y}`` and ``{z}`` are registered inputs.  Each
#: design takes 0.15-0.6 s on a 2-core x86 machine, 75-90% of it in CDCL.
#: (6-bit product commutativity takes ~4.5 s alone; 7-bit trips the split
#: budget.)
IDENTITIES: Tuple[Tuple[str, int, str, str], ...] = (
    ("mul-comm", 5, "{x} * {y}", "{y} * {x}"),
    ("mul-add-dist", 3, "({x} + {y}) * {z}", "({x} * {z}) + ({y} * {z})"),
    ("mul-sub-dist", 3, "({x} - {y}) * {z}", "({x} * {z}) - ({y} * {z})"),
    ("mul-assoc", 3, "({x} * {y}) * {z}", "{x} * ({y} * {z})"),
    ("square-expand", 4, "({x} + {y}) * ({x} + {y})",
     "(({x} * {x}) + ({y} * {y})) + (({x} * {y}) << 1)"),
    ("diff-squares", 4, "({x} + {y}) * ({x} - {y})", "({x} * {x}) - ({y} * {y})"),
)

#: Generated designs per identity.
COPIES = 2

_NAME_STEMS = ("op", "in", "dat", "arg", "src", "val")


@dataclass(frozen=True)
class DatapathDesign:
    """One generated design: its name, top module and Verilog source."""

    name: str
    top: str
    identity: str
    width: int
    depth: int
    source: str


def _render(top: str, width: int, depth: int, lhs: str, rhs: str, names: List[str]) -> str:
    a, b, c, pipe, reg_y, reg_z, result, out = names
    msb, out_msb = width - 1, 2 * width - 1
    operands = {"x": f"{pipe}{depth}", "y": reg_y, "z": reg_z}
    lines = [
        f"module {top}(",
        "  input clk,",
        f"  input [{msb}:0] {a},",
        f"  input [{msb}:0] {b},",
        f"  input [{msb}:0] {c},",
        f"  output [{out_msb}:0] {out}",
        ");",
    ]
    lines += [f"  reg [{msb}:0] {pipe}{stage};" for stage in range(1, depth + 1)]
    lines += [
        f"  reg [{msb}:0] {reg_y};",
        f"  reg [{msb}:0] {reg_z};",
        f"  reg [{out_msb}:0] {result};",
        "  always @(posedge clk) begin",
        f"    {pipe}1 <= {a};",
    ]
    lines += [f"    {pipe}{stage} <= {pipe}{stage - 1};" for stage in range(2, depth + 1)]
    lines += [
        f"    {reg_y} <= {b};",
        f"    {reg_z} <= {c};",
        f"    {result} <= ({lhs.format(**operands)}) ^ ({rhs.format(**operands)});",
        "  end",
        f"  assign {out} = {result};",
        "endmodule",
        "",
    ]
    return "\n".join(lines)


def generate(seed: int) -> List[DatapathDesign]:
    """The workload's designs for ``seed``, :data:`COPIES` per identity.

    The same seed always gives the same sources.
    """
    rng = random.Random(seed)
    designs = []
    for copy, (identity, width, lhs, rhs) in itertools.product(range(COPIES), IDENTITIES):
        stem = rng.choice(_NAME_STEMS)
        tag = rng.randrange(100, 1000)
        names = [f"{stem}_{role}{tag}" for role in ("a", "b", "c", "p", "y", "z", "m", "o")]
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        depth = rng.randint(2, 5)
        name = f"{identity}-w{width}-{copy}"
        top = "dp_" + name.replace("-", "_")
        designs.append(
            DatapathDesign(
                name=name,
                top=top,
                identity=identity,
                width=width,
                depth=depth,
                source=_render(top, width, depth, lhs, rhs, names),
            )
        )
    return designs
