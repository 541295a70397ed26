"""Built-in gate libraries replicating the paper's MCNC libraries.

The paper's experiments use three MCNC genlib libraries we do not have:

* ``lib2.genlib`` — the standard ~27-gate MCNC library (Table 1),
* ``44-1.genlib`` — a tiny 7-gate library (Table 2),
* ``44-3.genlib`` — a rich 625-gate library of two-level complex gates
  with up to 4 groups of up to 4 literals, largest gate 16 inputs
  (Table 3; footnote 5).

This module provides functionally equivalent replicas.  ``lib2_like`` and
``lib44_1`` are hand-written genlib texts with the same gate families;
``lib44_3`` programmatically enumerates the full two-level AOI/OAI/AO/OA
family over group-size multisets from ``{1..4}^{1..4}`` — the construction
rule the "4-4" name refers to — yielding several hundred functionally
distinct complex gates with up to 16 inputs.  Delays follow a simple
monotone literal-count model in which a complex gate is faster than any
composition of smaller gates, the property that drives the paper's
Table 2 -> Table 3 trend.

All libraries are produced as genlib *text* and run through our own parser
(:func:`repro.library.genlib.parse_genlib`), so the parser is exercised on
every construction.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Callable, Dict, List, Sequence, Tuple

from repro.library.gate import GateLibrary
from repro.library.genlib import parse_genlib
from repro.network.expr import parse_expr

__all__ = [
    "BUILTIN_LIBRARIES",
    "mini_library",
    "unit_nand_library",
    "lib2_like",
    "lib44_1",
    "lib44_3",
    "lib2_sized",
]

_PIN_LETTERS = "abcdefghijklmnop"


def _pin_line(block: float, fanout: float = 0.0, load: float = 1.0) -> str:
    return f"  PIN * UNKNOWN {load:g} 999 {block:g} {fanout:g} {block:g} {fanout:g}"


def unit_nand_library() -> GateLibrary:
    """INV + NAND2 with unit delays: the theoretical minimum library."""
    text = "\n".join(
        [
            "GATE inv 1 O=!a;",
            _pin_line(1.0),
            "GATE nand2 2 O=!(a*b);",
            _pin_line(1.0),
        ]
    )
    return parse_genlib(text, name="unit_nand")


def mini_library() -> GateLibrary:
    """A small test library: INV, NAND2/3, NOR2, AOI21, XOR2."""
    text = "\n".join(
        [
            "GATE inv 1 O=!a;",
            _pin_line(0.5),
            "GATE nand2 2 O=!(a*b);",
            _pin_line(1.0),
            "GATE nand3 3 O=!(a*b*c);",
            _pin_line(1.2),
            "GATE nor2 2 O=!(a+b);",
            _pin_line(1.1),
            "GATE aoi21 3 O=!(a*b+c);",
            _pin_line(1.3),
            "GATE xor2 4 O=a*!b+!a*b;",
            _pin_line(1.6),
        ]
    )
    return parse_genlib(text, name="mini")


def lib44_1() -> GateLibrary:
    """Replica of MCNC ``44-1.genlib``: exactly 7 gates (Table 2).

    The real 44-1 is the degenerate member of the 4-4 family — a handful
    of simple NAND-form gates.  We provide INV, NAND2/3/4, NOR2, AOI21,
    AOI22.
    """
    text = "\n".join(
        [
            "GATE inv 1 O=!a;",
            _pin_line(0.5, 0.1),
            "GATE nand2 2 O=!(a*b);",
            _pin_line(1.0, 0.12),
            "GATE nand3 3 O=!(a*b*c);",
            _pin_line(1.3, 0.14),
            "GATE nand4 4 O=!(a*b*c*d);",
            _pin_line(1.6, 0.16),
            "GATE nor2 2 O=!(a+b);",
            _pin_line(1.1, 0.14),
            "GATE aoi21 3 O=!(a*b+c);",
            _pin_line(1.4, 0.16),
            "GATE aoi22 4 O=!(a*b+c*d);",
            _pin_line(1.7, 0.18),
        ]
    )
    return parse_genlib(text, name="44-1")


def lib2_like() -> GateLibrary:
    """Replica of MCNC ``lib2.genlib`` (Table 1): the standard cell set.

    Same gate families as lib2 (inverters/buffers in several strengths,
    NAND/NOR 2-4, AND/OR, AOI/OAI complex gates, XOR/XNOR, MUX), with
    representative intrinsic delays.  Load coefficients are carried but
    the paper's experiment treats them as zero (footnote 4); we do the
    same during mapping.
    """
    rows: List[Tuple[str, float, str, float, float]] = [
        # (name, area, function, block delay, fanout coefficient)
        ("inv1", 1.0, "O=!a", 0.40, 0.20),
        ("inv2", 2.0, "O=!a", 0.30, 0.10),
        ("inv4", 4.0, "O=!a", 0.25, 0.05),
        ("buf2", 3.0, "O=a", 0.70, 0.10),
        ("nand2", 2.0, "O=!(a*b)", 1.00, 0.15),
        ("nand3", 3.0, "O=!(a*b*c)", 1.30, 0.17),
        ("nand4", 4.0, "O=!(a*b*c*d)", 1.60, 0.19),
        ("nor2", 2.0, "O=!(a+b)", 1.10, 0.16),
        ("nor3", 3.0, "O=!(a+b+c)", 1.50, 0.18),
        ("nor4", 4.0, "O=!(a+b+c+d)", 1.90, 0.20),
        ("and2", 3.0, "O=a*b", 1.40, 0.12),
        ("and3", 4.0, "O=a*b*c", 1.70, 0.13),
        ("or2", 3.0, "O=a+b", 1.50, 0.12),
        ("or3", 4.0, "O=a+b+c", 1.80, 0.13),
        ("aoi21", 3.0, "O=!(a*b+c)", 1.40, 0.16),
        ("aoi22", 4.0, "O=!(a*b+c*d)", 1.60, 0.17),
        ("aoi211", 4.0, "O=!(a*b+c+d)", 1.70, 0.18),
        ("aoi221", 5.0, "O=!(a*b+c*d+e)", 1.90, 0.19),
        ("aoi222", 6.0, "O=!(a*b+c*d+e*f)", 2.10, 0.20),
        ("oai21", 3.0, "O=!((a+b)*c)", 1.40, 0.16),
        ("oai22", 4.0, "O=!((a+b)*(c+d))", 1.60, 0.17),
        ("oai211", 4.0, "O=!((a+b)*c*d)", 1.70, 0.18),
        ("oai221", 5.0, "O=!((a+b)*(c+d)*e)", 1.90, 0.19),
        ("oai222", 6.0, "O=!((a+b)*(c+d)*(e+f))", 2.10, 0.20),
        ("xor2", 5.0, "O=a*!b+!a*b", 1.90, 0.20),
        ("xnor2", 5.0, "O=a*b+!a*!b", 1.90, 0.20),
        ("mux21", 5.0, "O=a*s+b*!s", 2.00, 0.20),
        ("maj3", 6.0, "O=a*b+b*c+a*c", 2.20, 0.22),
    ]
    lines: List[str] = []
    for name, area, func, block, fanout in rows:
        lines.append(f"GATE {name} {area:g} {func};")
        lines.append(_pin_line(block, fanout))
    return parse_genlib("\n".join(lines), name="lib2")


def lib2_sized(strengths: Sequence[int] = (1, 2, 4)) -> GateLibrary:
    """The lib2-like library replicated in several drive strengths.

    The paper's Section 5 discusses capturing gate-sizing flexibility "by
    having many discrete size gates", noting the approach "is known to be
    very expensive" — which motivates its load-independent model plus
    continuous sizing instead.  This factory builds that expensive
    library: every functional gate appears once per strength, with a
    stronger gate trading a little intrinsic delay and area for a much
    smaller load coefficient and a larger input load.

    Under the load-independent model all strengths of a function are
    delay-equivalent, so mapping quality is unchanged while matching work
    scales with the strength count — exactly the cost the paper alludes
    to.  Under the load-dependent STA the strength diversity pays off at
    high-fanout nets.
    """
    if not strengths or any(s < 1 for s in strengths):
        raise ValueError("strengths must be positive integers")
    base = lib2_like()
    lines: List[str] = []
    for gate in base:
        for strength in strengths:
            pin = gate.pins[0]
            block = pin.rise_block * (1.0 + 0.05 * (strength - 1))
            fanout = pin.rise_fanout / strength
            load = pin.input_load * strength
            name = f"{gate.name}_x{strength}"
            lines.append(
                f"GATE {name} {gate.area * strength:g} "
                f"{gate.output}={gate.expr.to_string()};"
            )
            lines.append(_pin_line(block, fanout, load))
    return parse_genlib("\n".join(lines), name=f"lib2x{len(strengths)}")


# ----------------------------------------------------------------------
# 44-3: the rich two-level complex-gate library
# ----------------------------------------------------------------------


def _group_pins(sizes: Sequence[int]) -> List[List[str]]:
    groups: List[List[str]] = []
    idx = 0
    for size in sizes:
        groups.append(list(_PIN_LETTERS[idx : idx + size]))
        idx += size
    return groups


def _aoi_expr(sizes: Sequence[int], invert: bool) -> str:
    groups = _group_pins(sizes)
    body = "+".join("*".join(g) for g in groups)
    return f"O=!({body})" if invert else f"O={body}"


def _oai_expr(sizes: Sequence[int], invert: bool) -> str:
    groups = _group_pins(sizes)
    parts = []
    for g in groups:
        parts.append(f"({'+'.join(g)})" if len(g) > 1 else g[0])
    body = "*".join(parts)
    return f"O=!({body})" if invert else f"O={body}"


def _complex_delay(sizes: Sequence[int], extra_stage: bool) -> Tuple[float, float]:
    """(area, block delay) for a two-level complex gate.

    Delay grows with literal count but stays below the delay of composing
    the same function from small gates — the property that makes rich
    libraries attractive (paper Section 5, Table 3 discussion).
    """
    literals = sum(sizes)
    stacks = max(len(sizes), max(sizes))
    area = 0.4 + 0.5 * literals + (0.3 if extra_stage else 0.0)
    delay = 0.5 + 0.09 * literals + 0.08 * stacks + (0.35 if extra_stage else 0.0)
    return area, delay


def lib44_3(max_groups: int = 4, max_group_size: int = 4) -> GateLibrary:
    """Replica of MCNC ``44-3.genlib`` (Table 3): the rich 4-4 family.

    Enumerates every two-level function with at most ``max_groups``
    groups of at most ``max_group_size`` positive literals, in all four
    families (AOI, OAI and their uncomplemented AO/OA forms), plus the
    simple-gate basics.  Functionally duplicate constructions (e.g.
    AOI with one group == NAND) are removed, so each gate is a distinct
    function.  The largest gate has ``max_groups * max_group_size``
    (default 16) inputs, matching the paper's footnote 5.
    """
    lines: List[str] = []
    seen: Dict[Tuple[int, int], str] = {}

    def emit(name: str, area: float, func: str, block: float) -> None:
        expr = parse_expr(func.split("=", 1)[1])
        tt = expr.to_tt()
        key = (len(expr.support()), tt.bits)
        if key in seen:
            return
        seen[key] = name
        lines.append(f"GATE {name} {area:g} {func};")
        lines.append(_pin_line(block, 0.1))

    # Basics first so they win the dedup against degenerate complex forms.
    emit("inv", 0.9, "O=!a", 0.45)
    emit("xor2", 4.5, "O=a*!b+!a*b", 1.60)
    emit("xnor2", 4.5, "O=a*b+!a*!b", 1.60)
    emit("mux21", 4.5, "O=a*s+b*!s", 1.70)

    size_lists: List[Tuple[int, ...]] = []
    for n_groups in range(1, max_groups + 1):
        for sizes in combinations_with_replacement(
            range(1, max_group_size + 1), n_groups
        ):
            # Sort descending for stable, readable pin grouping.
            size_lists.append(tuple(sorted(sizes, reverse=True)))

    for sizes in size_lists:
        if sizes == (1,):
            continue  # buffer/inverter degenerate
        tag = "".join(str(s) for s in sizes)
        area_i, delay_i = _complex_delay(sizes, extra_stage=False)
        area_n, delay_n = _complex_delay(sizes, extra_stage=True)
        emit(f"aoi{tag}", area_i, _aoi_expr(sizes, invert=True), delay_i)
        emit(f"oai{tag}", area_i, _oai_expr(sizes, invert=True), delay_i)
        emit(f"ao{tag}", area_n, _aoi_expr(sizes, invert=False), delay_n)
        emit(f"oa{tag}", area_n, _oai_expr(sizes, invert=False), delay_n)

    return parse_genlib("\n".join(lines), name="44-3")


#: The builtin library specs and their builders: the names that
#: ``repro-map libgen`` and :func:`repro.perf.parallel.resolve_library`
#: accept.
BUILTIN_LIBRARIES: Dict[str, Callable[[], GateLibrary]] = {
    "lib2": lib2_like,
    "44-1": lib44_1,
    "44-3": lib44_3,
    "mini": mini_library,
}
