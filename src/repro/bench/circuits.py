"""Parameterised generators of benchmark Boolean networks.

Each generator returns a :class:`BooleanNetwork` with documented pin
names (LSB-first bit vectors named ``a0, a1, ...``).  The family mirrors
the ISCAS-85 suite the paper maps (see DESIGN.md section 3 for the
correspondence): C6288 *is* a 16x16 array multiplier, C499/C1355 are
32-bit single-error-correcting networks, C880/C3540 are ALUs, C432 is a
priority interrupt controller, and C2670/C7552 mix adders, comparators
and parity trees.  All generators are functionally verified against the
arithmetic models in :mod:`repro.bench.reference` by the test suite.

Sequential generators (:func:`lfsr`, :func:`accumulator`,
:func:`register_boundaries`) provide workloads for the Section 4
retiming experiments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.bnet import BooleanNetwork

__all__ = [
    "c17",
    "ripple_adder",
    "carry_lookahead_adder",
    "carry_select_adder",
    "array_multiplier",
    "wallace_multiplier",
    "booth_multiplier",
    "barrel_shifter",
    "crc_step",
    "alu",
    "parity_tree",
    "sec_corrector",
    "priority_interrupt",
    "comparator",
    "mux_tree",
    "decoder",
    "adder_comparator_mix",
    "random_logic",
    "lfsr",
    "accumulator",
    "johnson_counter",
    "multiply_accumulate",
    "register_boundaries",
]


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------


def _bus(net: BooleanNetwork, prefix: str, width: int) -> List[str]:
    return [net.add_pi(f"{prefix}{i}") for i in range(width)]


def _fa(
    net: BooleanNetwork,
    a: str,
    b: str,
    cin: str,
    tag: str,
    sum_name: Optional[str] = None,
) -> Tuple[str, str]:
    """Full adder; returns (sum, carry-out) signal names."""
    s = net.add_node(sum_name or f"{tag}_s", f"{a}^{b}^{cin}")
    c = net.add_node(f"{tag}_c", f"{a}*{b} + {cin}*({a}^{b})")
    return s, c


def _ha(
    net: BooleanNetwork,
    a: str,
    b: str,
    tag: str,
    sum_name: Optional[str] = None,
) -> Tuple[str, str]:
    """Half adder; returns (sum, carry-out)."""
    s = net.add_node(sum_name or f"{tag}_s", f"{a}^{b}")
    c = net.add_node(f"{tag}_c", f"{a}*{b}")
    return s, c


def _reduce_tree(
    net: BooleanNetwork, signals: Sequence[str], op: str, tag: str
) -> str:
    """Balanced binary reduction with operator ``op`` ('^', '*' or '+')."""
    level = list(signals)
    if not level:
        raise ValueError("reduction of zero signals")
    round_idx = 0
    while len(level) > 1:
        nxt: List[str] = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(
                net.add_node(
                    f"{tag}_{round_idx}_{i // 2}",
                    f"{level[i]}{op}{level[i + 1]}",
                )
            )
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
        round_idx += 1
    return level[0]


def _xor_tree(net: BooleanNetwork, signals: Sequence[str], tag: str) -> str:
    return _reduce_tree(net, signals, "^", tag)


def _or_tree(net: BooleanNetwork, signals: Sequence[str], tag: str) -> str:
    return _reduce_tree(net, signals, "+", tag)


# ----------------------------------------------------------------------
# Small classic
# ----------------------------------------------------------------------


def c17() -> BooleanNetwork:
    """The actual ISCAS-85 c17: six NAND2 gates, 5 inputs, 2 outputs."""
    net = BooleanNetwork("c17")
    for pin in ("g1", "g2", "g3", "g6", "g7"):
        net.add_pi(pin)
    net.add_node("g10", "!(g1*g3)")
    net.add_node("g11", "!(g3*g6)")
    net.add_node("g16", "!(g2*g11)")
    net.add_node("g19", "!(g11*g7)")
    net.add_node("g22", "!(g10*g16)")
    net.add_node("g23", "!(g16*g19)")
    net.add_po("g22")
    net.add_po("g23")
    return net


# ----------------------------------------------------------------------
# Adders
# ----------------------------------------------------------------------


def ripple_adder(width: int) -> BooleanNetwork:
    """Ripple-carry adder: a + b + cin; outputs ``s0..s{w-1}``, ``cout``."""
    net = BooleanNetwork(f"rca{width}")
    a = _bus(net, "a", width)
    b = _bus(net, "b", width)
    carry = net.add_pi("cin")
    for i in range(width):
        s, carry = _fa(net, a[i], b[i], carry, f"fa{i}", sum_name=f"s{i}")
        net.add_po(s)
    net.add_po(net.add_node("cout", f"{carry}^CONST0"))
    return net


def carry_lookahead_adder(width: int, group: int = 4) -> BooleanNetwork:
    """Group carry-lookahead adder; heavy reconvergence in the carry logic.

    Outputs ``s0..s{w-1}``, ``cout``.
    """
    net = BooleanNetwork(f"cla{width}")
    a = _bus(net, "a", width)
    b = _bus(net, "b", width)
    cin = net.add_pi("cin")
    gen = [net.add_node(f"g{i}", f"{a[i]}*{b[i]}") for i in range(width)]
    pro = [net.add_node(f"p{i}", f"{a[i]}^{b[i]}") for i in range(width)]
    carries = [cin]
    for base in range(0, width, group):
        size = min(group, width - base)
        c = carries[-1]
        for i in range(size):
            idx = base + i
            # c_{idx+1} = g_idx + p_idx g_{idx-1} + ... + (p...p) c_base
            terms = []
            for j in range(i, -1, -1):
                lits = [gen[base + j]] + [
                    pro[base + t] for t in range(j + 1, i + 1)
                ]
                terms.append("*".join(lits))
            terms.append("*".join([pro[base + t] for t in range(i + 1)] + [c]))
            carries.append(net.add_node(f"c{idx + 1}", " + ".join(terms)))
    for i in range(width):
        net.add_po(net.add_node(f"s{i}", f"{pro[i]}^{carries[i]}"))
    net.add_po(net.add_node("cout", f"{carries[width]}^CONST0"))
    return net


def carry_select_adder(width: int, group: int = 4) -> BooleanNetwork:
    """Carry-select adder: duplicated per-group chains + carry muxes.

    Outputs ``s0..s{w-1}``, ``cout``.
    """
    net = BooleanNetwork(f"csel{width}")
    a = _bus(net, "a", width)
    b = _bus(net, "b", width)
    carry = net.add_pi("cin")
    sums: List[str] = []
    for base in range(0, width, group):
        size = min(group, width - base)
        variant: Dict[int, Tuple[List[str], str]] = {}
        for assumed in (0, 1):
            c = net.add_node(f"k{base}_{assumed}", "CONST1" if assumed else "CONST0")
            local: List[str] = []
            for i in range(size):
                idx = base + i
                s, c = _fa(net, a[idx], b[idx], c, f"fa{idx}_{assumed}")
                local.append(s)
            variant[assumed] = (local, c)
        for i in range(size):
            s0, s1 = variant[0][0][i], variant[1][0][i]
            sums.append(
                net.add_node(f"s{base + i}", f"{s1}*{carry} + {s0}*!{carry}")
            )
        carry = net.add_node(
            f"c{base + size}",
            f"{variant[1][1]}*{carry} + {variant[0][1]}*!{carry}",
        )
    for s in sums:
        net.add_po(s)
    net.add_po(net.add_node("cout", f"{carry}^CONST0"))
    return net


# ----------------------------------------------------------------------
# Multiplier (C6288 family)
# ----------------------------------------------------------------------


def array_multiplier(width_a: int, width_b: Optional[int] = None) -> BooleanNetwork:
    """Array multiplier with row-ripple accumulation (C6288 is 16x16).

    Outputs ``p0 .. p{wa+wb-1}`` = a * b (unsigned).
    """
    width_b = width_b if width_b is not None else width_a
    if width_a < 1 or width_b < 1:
        raise ValueError("multiplier widths must be positive")
    net = BooleanNetwork(f"mult{width_a}x{width_b}")
    a = _bus(net, "a", width_a)
    b = _bus(net, "b", width_b)
    pp = [
        [net.add_node(f"pp{i}_{j}", f"{a[j]}*{b[i]}") for j in range(width_a)]
        for i in range(width_b)
    ]
    outputs: List[str] = []
    # acc[t] holds the running sum bit at position (row index) + t.
    acc: List[str] = list(pp[0])
    for i in range(1, width_b):
        outputs.append(acc[0])  # bit position i-1 is finalised
        shifted = acc[1:]
        new_acc: List[str] = []
        carry: Optional[str] = None
        for j in range(width_a):
            addends = [pp[i][j]]
            if j < len(shifted):
                addends.append(shifted[j])
            if carry is not None:
                addends.append(carry)
            tag = f"r{i}_{j}"
            if len(addends) == 1:
                new_acc.append(addends[0])
                carry = None
            elif len(addends) == 2:
                s, carry = _ha(net, addends[0], addends[1], tag)
                new_acc.append(s)
            else:
                s, carry = _fa(net, addends[0], addends[1], addends[2], tag)
                new_acc.append(s)
        if carry is not None:
            new_acc.append(carry)
        acc = new_acc
    outputs.extend(acc)
    while len(outputs) < width_a + width_b:
        outputs.append(net.add_node(f"zero{len(outputs)}", "CONST0"))
    for idx, sig in enumerate(outputs[: width_a + width_b]):
        net.add_po(net.add_node(f"p{idx}", f"{sig}^CONST0"))
    return net


def wallace_multiplier(width_a: int, width_b: Optional[int] = None) -> BooleanNetwork:
    """Wallace-tree multiplier: column-wise 3:2 compression + final adder.

    Same function as :func:`array_multiplier` but with a logarithmic-depth
    reduction tree — structurally very different, which makes the pair a
    good subject-graph-sensitivity workload (paper Section 4).
    Outputs ``p0 .. p{wa+wb-1}``.
    """
    width_b = width_b if width_b is not None else width_a
    if width_a < 1 or width_b < 1:
        raise ValueError("multiplier widths must be positive")
    net = BooleanNetwork(f"wallace{width_a}x{width_b}")
    a = _bus(net, "a", width_a)
    b = _bus(net, "b", width_b)
    n_out = width_a + width_b
    columns: List[List[str]] = [[] for _ in range(n_out)]
    for i in range(width_b):
        for j in range(width_a):
            columns[i + j].append(
                net.add_node(f"pp{i}_{j}", f"{a[j]}*{b[i]}")
            )
    # 3:2 / 2:2 compression rounds until every column has <= 2 bits.
    round_idx = 0
    while any(len(col) > 2 for col in columns):
        next_columns: List[List[str]] = [[] for _ in range(n_out)]
        for pos, col in enumerate(columns):
            k = 0
            idx = 0
            while len(col) - idx >= 3:
                s, c = _fa(net, col[idx], col[idx + 1], col[idx + 2],
                           f"w{round_idx}_{pos}_{k}")
                next_columns[pos].append(s)
                if pos + 1 < n_out:
                    next_columns[pos + 1].append(c)
                idx += 3
                k += 1
            if len(col) - idx == 2 and len(col) > 3:
                s, c = _ha(net, col[idx], col[idx + 1],
                           f"w{round_idx}_{pos}_{k}")
                next_columns[pos].append(s)
                if pos + 1 < n_out:
                    next_columns[pos + 1].append(c)
                idx += 2
            next_columns[pos].extend(col[idx:])
        columns = next_columns
        round_idx += 1
    # Final carry-propagate addition over the two remaining rows.
    carry: Optional[str] = None
    for pos in range(n_out):
        col = list(columns[pos])
        if carry is not None:
            col.append(carry)
        tag = f"cpa{pos}"
        if not col:
            net.add_po(net.add_node(f"p{pos}", "CONST0"))
            carry = None
        elif len(col) == 1:
            net.add_po(net.add_node(f"p{pos}", f"{col[0]}^CONST0"))
            carry = None
        elif len(col) == 2:
            s, carry = _ha(net, col[0], col[1], tag, sum_name=f"p{pos}")
            net.add_po(s)
        else:
            s, carry = _fa(net, col[0], col[1], col[2], tag, sum_name=f"p{pos}")
            net.add_po(s)
    return net


def booth_multiplier(width: int) -> BooleanNetwork:
    """Radix-4 Booth multiplier (unsigned a * b, third multiplier shape).

    Booth digits d_i in {-2,-1,0,1,2} come from overlapping triplets of
    ``b``; each row is the two's complement of 0/a/2a over 2*width bits
    (complement via XOR with the sign, +1 injected as the row adder's
    carry-in).  Outputs ``p0 .. p{2w-1}``.
    """
    if width < 1:
        raise ValueError("width must be positive")
    net = BooleanNetwork(f"booth{width}")
    a = _bus(net, "a", width)
    b = _bus(net, "b", width)
    total = 2 * width
    n_digits = width // 2 + 1

    def b_at(index: int) -> Optional[str]:
        if 0 <= index < width:
            return b[index]
        return None

    def a_at(index: int) -> Optional[str]:
        if 0 <= index < width:
            return a[index]
        return None

    acc: List[Optional[str]] = [None] * total  # None == constant 0
    for i in range(n_digits):
        lo, mid, hi = b_at(2 * i - 1), b_at(2 * i), b_at(2 * i + 1)
        # one = lo XOR mid; two = hi & !mid & !lo | !hi & mid & lo;
        # neg = hi.  Missing bits are constant 0.
        terms = []
        if lo and mid:
            one = net.add_node(f"bd{i}_one", f"{lo}^{mid}")
        elif lo or mid:
            one = lo or mid
        else:
            one = None
        if hi:
            neg = hi
            lo_e = lo if lo else "CONST0"
            mid_e = mid if mid else "CONST0"
            two = net.add_node(
                f"bd{i}_two",
                f"{hi}*!{mid_e}*!{lo_e} + !{hi}*{mid_e}*{lo_e}",
            )
        else:
            neg = None
            two = (
                net.add_node(f"bd{i}_two", f"{mid}*{lo}")
                if (lo and mid)
                else None
            )
        # Row bits y_j = ((a_j & one) | (a_{j-1} & two)) ^ neg over the
        # full 2w bits (sign extension falls out of the XOR).
        row: List[Optional[str]] = []
        for j in range(total - 2 * i):
            parts = []
            aj, ajm1 = a_at(j), a_at(j - 1)
            if one and aj:
                parts.append(f"{aj}*{one}")
            if two and ajm1:
                parts.append(f"{ajm1}*{two}")
            if parts:
                x = net.add_node(f"r{i}_{j}x", " + ".join(parts))
                bit = (
                    net.add_node(f"r{i}_{j}", f"{x}^{neg}") if neg else x
                )
            else:
                bit = neg  # x == 0: y = neg (sign fill); None if neg is None
            row.append(bit)
        # acc[2i..] += row + neg (carry-in injects the +1 of -x = ~x + 1).
        carry: Optional[str] = neg
        for j, bit in enumerate(row):
            pos = 2 * i + j
            addends = [s for s in (acc[pos], bit, carry) if s is not None]
            tag = f"bs{i}_{pos}"
            if not addends:
                acc[pos] = None
                carry = None
            elif len(addends) == 1:
                acc[pos] = addends[0]
                carry = None
            elif len(addends) == 2:
                acc[pos], carry = _ha(net, addends[0], addends[1], tag)
            else:
                acc[pos], carry = _fa(net, *addends, tag)
        # Any carry beyond 2w bits is dropped (arithmetic is mod 2^{2w}).
    for pos in range(total):
        source = acc[pos] if acc[pos] is not None else "CONST0"
        net.add_po(net.add_node(f"p{pos}", f"{source}^CONST0"))
    return net


def crc_step(width: int = 8, data_bits: int = 8,
             poly: Optional[int] = None) -> BooleanNetwork:
    """Parallel CRC update: new state after shifting in ``data_bits`` bits.

    Inputs ``s0..`` (current CRC register, LSB first) and ``d0..`` (data,
    processed MSB first, i.e. ``d{k-1}`` enters the register first);
    outputs ``ns0..``.  ``poly`` is the feedback polynomial without the
    leading term (default: CRC-8 0x07 style for width 8, else low bits).
    """
    if poly is None:
        poly = 0x07 if width == 8 else (1 << max(0, width // 2)) | 1
    net = BooleanNetwork(f"crc{width}x{data_bits}")
    state = _bus(net, "s", width)
    data = _bus(net, "d", data_bits)
    current: List[List[str]] = [[bit] for bit in state]  # XOR sets per position
    for step in range(data_bits - 1, -1, -1):
        feedback = current[width - 1] + [data[step]]
        nxt: List[List[str]] = []
        for j in range(width):
            terms = list(current[j - 1]) if j > 0 else []
            if (poly >> j) & 1:
                terms = terms + feedback
            nxt.append(terms)
        current = nxt
    for j in range(width):
        # Reduce each XOR set; duplicated terms cancel in pairs.
        counts: Dict[str, int] = {}
        for term in current[j]:
            counts[term] = counts.get(term, 0) + 1
        odd = [term for term, c in counts.items() if c % 2]
        if odd:
            root = _xor_tree(net, odd, f"c{j}")
            net.add_po(net.add_node(f"ns{j}", f"{root}^CONST0"))
        else:
            net.add_po(net.add_node(f"ns{j}", "CONST0"))
    return net


def barrel_shifter(select_bits: int) -> BooleanNetwork:
    """Logarithmic barrel rotator: ``y = d rotated left by s`` (C7552-ish
    mux-heavy structure).  Inputs ``d0..d{2^k-1}``, ``s0..s{k-1}``;
    outputs ``y0..``.
    """
    net = BooleanNetwork(f"barrel{select_bits}")
    width = 1 << select_bits
    data = _bus(net, "d", width)
    sel = _bus(net, "s", select_bits)
    level = list(data)
    for k in range(select_bits):
        shift = 1 << k
        nxt = []
        for pos in range(width):
            src_shifted = level[(pos - shift) % width]
            nxt.append(
                net.add_node(
                    f"l{k}_{pos}",
                    f"{src_shifted}*{sel[k]} + {level[pos]}*!{sel[k]}",
                )
            )
        level = nxt
    for pos in range(width):
        net.add_po(net.add_node(f"y{pos}", f"{level[pos]}^CONST0"))
    return net


# ----------------------------------------------------------------------
# ALU (C880 / C3540 family)
# ----------------------------------------------------------------------


def alu(width: int) -> BooleanNetwork:
    """A 4-function ALU (74181 spirit; the C880/C3540 family).

    Select ``s1 s0``: 00 -> a+b+cin, 01 -> a + ~b + cin (subtract when
    cin=1), 10 -> a AND b, 11 -> a OR b.  Outputs ``f0..f{w-1}``,
    ``cout`` (arithmetic modes only), ``zero``.
    """
    net = BooleanNetwork(f"alu{width}")
    a = _bus(net, "a", width)
    b = _bus(net, "b", width)
    s0 = net.add_pi("s0")
    s1 = net.add_pi("s1")
    cin = net.add_pi("cin")
    arith = net.add_node("arith", f"!{s1}")
    bsel = [net.add_node(f"bx{i}", f"{b[i]}^{s0}") for i in range(width)]
    carry = cin
    outs: List[str] = []
    for i in range(width):
        s, carry = _fa(net, a[i], bsel[i], carry, f"fa{i}")
        logic = net.add_node(
            f"lg{i}", f"{a[i]}*{b[i]}*!{s0} + ({a[i]}+{b[i]})*{s0}"
        )
        outs.append(net.add_node(f"f{i}", f"{s}*{arith} + {logic}*!{arith}"))
    for f in outs:
        net.add_po(f)
    net.add_po(net.add_node("cout", f"{carry}*{arith}"))
    any_set = _or_tree(net, outs, "z")
    net.add_po(net.add_node("zero", f"!{any_set}"))
    return net


# ----------------------------------------------------------------------
# Parity / error correction (C499 / C1355 / C1908 family)
# ----------------------------------------------------------------------


def parity_tree(width: int) -> BooleanNetwork:
    """XOR parity of ``width`` inputs; output ``parity``."""
    net = BooleanNetwork(f"parity{width}")
    bits = _bus(net, "d", width)
    root = _xor_tree(net, bits, "t")
    net.add_po(net.add_node("parity", f"{root}^CONST0"))
    return net


def hamming_layout(data_bits: int) -> Tuple[int, List[int]]:
    """(check-bit count, coded position of each data bit) for SEC codes."""
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    positions: List[int] = []
    pos = 1
    while len(positions) < data_bits:
        if pos & (pos - 1):  # not a power of two: a data position
            positions.append(pos)
        pos += 1
    return r, positions


def sec_corrector(data_bits: int = 16) -> BooleanNetwork:
    """Single-error-correcting Hamming decoder (C499/C1355 family).

    Inputs ``d0..`` (received data) and ``c0..`` (received check bits);
    outputs syndrome ``y0..y{r-1}`` and corrected data ``o0..``.
    """
    net = BooleanNetwork(f"sec{data_bits}")
    r, positions = hamming_layout(data_bits)
    data = _bus(net, "d", data_bits)
    checks = _bus(net, "c", r)
    syndrome: List[str] = []
    for j in range(r):
        covered = [data[i] for i, pos in enumerate(positions) if (pos >> j) & 1]
        tree = _xor_tree(net, covered, f"sy{j}")
        syndrome.append(net.add_node(f"y{j}", f"{tree}^{checks[j]}"))
    for y in syndrome:
        net.add_po(y)
    for i, pos in enumerate(positions):
        lits = [
            syndrome[j] if (pos >> j) & 1 else f"!{syndrome[j]}"
            for j in range(r)
        ]
        hit = net.add_node(f"hit{i}", "*".join(lits))
        net.add_po(net.add_node(f"o{i}", f"{data[i]}^{hit}"))
    return net


# ----------------------------------------------------------------------
# Priority interrupt controller (C432 family)
# ----------------------------------------------------------------------


def priority_interrupt(channels: int = 27) -> BooleanNetwork:
    """Masked priority encoder + grant decode (C432 family).

    Inputs: requests ``r0..`` and active-low masks ``m0..`` (channel i is
    active when ``ri & !mi``); channel ``channels-1`` has top priority.
    Outputs: ``any`` (some channel active), binary index ``v0..`` of the
    highest active channel, and the decoded grant parity ``gp``.
    """
    net = BooleanNetwork(f"pint{channels}")
    req = _bus(net, "r", channels)
    mask = _bus(net, "m", channels)
    active = [
        net.add_node(f"act{i}", f"{req[i]}*!{mask[i]}") for i in range(channels)
    ]
    # higher[i] = OR of active[j] for j > i (suffix OR chain).
    higher: List[str] = [""] * channels
    running = None
    for i in range(channels - 1, -1, -1):
        higher[i] = running if running is not None else ""
        running = (
            active[i]
            if running is None
            else net.add_node(f"hi{i}", f"{active[i]}+{running}")
        )
    grants: List[str] = []
    for i in range(channels):
        if higher[i]:
            grants.append(net.add_node(f"gr{i}", f"{active[i]}*!{higher[i]}"))
        else:
            grants.append(active[i])  # top-priority channel
    any_active = running  # OR over all
    net.add_po(net.add_node("any", f"{any_active}^CONST0"))
    bits = max(1, (channels - 1).bit_length())
    for k in range(bits):
        group = [grants[i] for i in range(channels) if (i >> k) & 1]
        if group:
            net.add_po(net.add_node(f"v{k}", _or_tree(net, group, f"vt{k}") + "+CONST0"))
        else:
            net.add_po(net.add_node(f"v{k}", "CONST0"))
    net.add_po(net.add_node("gp", f"{_xor_tree(net, grants, 'gpt')}^CONST0"))
    return net


# ----------------------------------------------------------------------
# Comparators, muxes, decoders
# ----------------------------------------------------------------------


def comparator(width: int) -> BooleanNetwork:
    """Unsigned magnitude comparator; outputs ``eq``, ``lt``, ``gt``."""
    net = BooleanNetwork(f"cmp{width}")
    a = _bus(net, "a", width)
    b = _bus(net, "b", width)
    eq_bits = [
        net.add_node(f"e{i}", f"{a[i]}*{b[i]} + !{a[i]}*!{b[i]}")
        for i in range(width)
    ]
    # suffix_eq[i] = AND of eq_bits[j] for j > i.
    suffix: List[Optional[str]] = [None] * width
    running: Optional[str] = None
    for i in range(width - 1, -1, -1):
        suffix[i] = running
        running = (
            eq_bits[i]
            if running is None
            else net.add_node(f"se{i}", f"{eq_bits[i]}*{running}")
        )
    eq = running
    lt_terms = []
    for i in range(width):
        term = f"!{a[i]}*{b[i]}"
        if suffix[i] is not None:
            term += f"*{suffix[i]}"
        lt_terms.append(net.add_node(f"ltt{i}", term))
    lt = _or_tree(net, lt_terms, "lt_or")
    net.add_po(net.add_node("eq", f"{eq}^CONST0"))
    net.add_po(net.add_node("lt", f"{lt}^CONST0"))
    net.add_po(net.add_node("gt", f"!({eq}+{lt})"))
    return net


def mux_tree(select_bits: int) -> BooleanNetwork:
    """2^s-to-1 multiplexer tree; inputs ``d*``, selects ``s*``, output ``y``."""
    net = BooleanNetwork(f"mux{select_bits}")
    data = _bus(net, "d", 1 << select_bits)
    sel = _bus(net, "s", select_bits)
    level = list(data)
    for k in range(select_bits):
        nxt = []
        for i in range(0, len(level), 2):
            nxt.append(
                net.add_node(
                    f"m{k}_{i // 2}",
                    f"{level[i + 1]}*{sel[k]} + {level[i]}*!{sel[k]}",
                )
            )
        level = nxt
    net.add_po(net.add_node("y", f"{level[0]}^CONST0"))
    return net


def decoder(width: int) -> BooleanNetwork:
    """Binary decoder with enable; outputs ``q0..q{2^w-1}``."""
    net = BooleanNetwork(f"dec{width}")
    sel = _bus(net, "s", width)
    en = net.add_pi("en")
    for code in range(1 << width):
        lits = [en] + [
            sel[j] if (code >> j) & 1 else f"!{sel[j]}" for j in range(width)
        ]
        net.add_po(net.add_node(f"q{code}", "*".join(lits)))
    return net


# ----------------------------------------------------------------------
# Composite datapaths (C2670 / C5315 / C7552 family)
# ----------------------------------------------------------------------


def adder_comparator_mix(width: int) -> BooleanNetwork:
    """Adder + comparator + parity datapath (C2670/C7552 family).

    Computes ``sum = a + b + cin``, compares the sum word against bus
    ``t``, and takes parities of both operands.  Outputs ``s*``, ``cout``,
    ``eq``, ``lt``, ``pa``, ``pb``.
    """
    net = BooleanNetwork(f"acm{width}")
    a = _bus(net, "a", width)
    b = _bus(net, "b", width)
    t = _bus(net, "t", width)
    carry = net.add_pi("cin")
    sums: List[str] = []
    for i in range(width):
        s, carry = _fa(net, a[i], b[i], carry, f"fa{i}", sum_name=f"s{i}")
        sums.append(s)
        net.add_po(s)
    net.add_po(net.add_node("cout", f"{carry}^CONST0"))
    # Compare sum against t.
    eq_bits = [
        net.add_node(f"e{i}", f"{sums[i]}*{t[i]} + !{sums[i]}*!{t[i]}")
        for i in range(width)
    ]
    suffix: List[Optional[str]] = [None] * width
    running: Optional[str] = None
    for i in range(width - 1, -1, -1):
        suffix[i] = running
        running = (
            eq_bits[i]
            if running is None
            else net.add_node(f"se{i}", f"{eq_bits[i]}*{running}")
        )
    lt_terms = []
    for i in range(width):
        term = f"!{sums[i]}*{t[i]}"
        if suffix[i] is not None:
            term += f"*{suffix[i]}"
        lt_terms.append(net.add_node(f"ltt{i}", term))
    net.add_po(net.add_node("eq", f"{running}^CONST0"))
    net.add_po(net.add_node("lt", _or_tree(net, lt_terms, "lt_or") + "^CONST0"))
    net.add_po(net.add_node("pa", _xor_tree(net, a, "pa_t") + "^CONST0"))
    net.add_po(net.add_node("pb", _xor_tree(net, b, "pb_t") + "^CONST0"))
    return net


def random_logic(
    n_inputs: int, n_nodes: int, seed: int = 1, n_outputs: Optional[int] = None
) -> BooleanNetwork:
    """Random 2-input gate DAG (fuzz workloads for property tests).

    A thin wrapper over :func:`repro.fuzz.generator.random_dag` with the
    generator's default shape knobs.  Two invariants hold for *every*
    parameter combination (the old inline construction violated both for
    small ``n_nodes``): no primary input dangles unread, and no internal
    node is dead — everything reaches a primary output.  The seed and
    every knob are recorded in the network name, so a circuit rebuilds
    bit-identically from its name alone.
    """
    from repro.fuzz.generator import FuzzConfig, random_dag

    config = FuzzConfig(
        n_inputs=n_inputs, n_nodes=n_nodes, n_outputs=n_outputs, seed=seed
    )
    return random_dag(
        config, name=f"rand{n_inputs}_{n_nodes}_{seed}_o{config.outputs}"
    )


# ----------------------------------------------------------------------
# Sequential workloads (Section 4)
# ----------------------------------------------------------------------


def lfsr(width: int, taps: Optional[Sequence[int]] = None) -> BooleanNetwork:
    """Galois-style LFSR with a serial input; outputs the register bits.

    next q0 = (xor of tapped bits) ^ sin;  next q_i = q_{i-1}.
    """
    net = BooleanNetwork(f"lfsr{width}")
    sin = net.add_pi("sin")
    taps = list(taps) if taps is not None else [width - 1, 0]
    q = [f"q{i}" for i in range(width)]
    feedback_terms = [q[t] for t in taps] + [sin]
    # Declare latches first so their outputs exist as pseudo-PIs.
    # Latch input signals are combinational nodes defined below.
    for i in range(width):
        net.add_latch(f"nq{i}", q[i], init=0)
    net.add_node("fb", "^".join(feedback_terms))
    net.add_node("nq0", "fb^CONST0")
    for i in range(1, width):
        net.add_node(f"nq{i}", f"{q[i - 1]}^CONST0")
    for i in range(width):
        net.add_po(q[i])
    return net


def accumulator(width: int) -> BooleanNetwork:
    """Registered accumulator: acc <= acc + in; outputs the register bits."""
    net = BooleanNetwork(f"acc{width}")
    data = _bus(net, "in", width)
    q = [f"q{i}" for i in range(width)]
    for i in range(width):
        net.add_latch(f"nq{i}", q[i], init=0)
    carry: Optional[str] = None
    for i in range(width):
        if carry is None:
            s, carry = _ha(net, data[i], q[i], f"fa{i}")
        else:
            s, carry = _fa(net, data[i], q[i], carry, f"fa{i}")
        net.add_node(f"nq{i}", f"{s}^CONST0")
        net.add_po(q[i])
    return net


def johnson_counter(width: int) -> BooleanNetwork:
    """Johnson (twisted-ring) counter with enable; outputs the ring bits."""
    net = BooleanNetwork(f"johnson{width}")
    en = net.add_pi("en")
    q = [f"q{i}" for i in range(width)]
    for i in range(width):
        net.add_latch(f"nq{i}", q[i], init=0)
    # nq0 = en ? !q[last] : q0 ; nq_i = en ? q_{i-1} : q_i.
    net.add_node("nq0", f"!{q[width - 1]}*{en} + {q[0]}*!{en}")
    for i in range(1, width):
        net.add_node(f"nq{i}", f"{q[i - 1]}*{en} + {q[i]}*!{en}")
    for i in range(width):
        net.add_po(q[i])
    return net


def multiply_accumulate(width: int) -> BooleanNetwork:
    """MAC: acc <= acc + a * b (a Wallace product feeding an adder).

    The accumulator is ``2*width`` bits wide; outputs the register bits.
    """
    product = wallace_multiplier(width)
    total = 2 * width
    net = BooleanNetwork(f"mac{width}")
    a = _bus(net, "a", width)
    b = _bus(net, "b", width)
    q = [f"q{i}" for i in range(total)]
    for i in range(total):
        net.add_latch(f"nq{i}", q[i], init=0)
    # Inline the multiplier's logic under a namespace.
    rename = {pi: pi for pi in product.pis}
    for node in product.topological_order():
        fanins = [rename[f] for f in node.fanins]
        rename[node.name] = net.add_node(f"m_{node.name}", node.tt, fanins)
    product_bits = [rename[po] for po in product.pos]
    carry: Optional[str] = None
    for i in range(total):
        if carry is None:
            s, carry = _ha(net, product_bits[i], q[i], f"acc{i}")
        else:
            s, carry = _fa(net, product_bits[i], q[i], carry, f"acc{i}")
        net.add_node(f"nq{i}", f"{s}^CONST0")
        net.add_po(q[i])
    return net


def register_boundaries(
    net: BooleanNetwork, output_stages: int = 1, name: Optional[str] = None
) -> BooleanNetwork:
    """Wrap a combinational network with input and output registers.

    Produces a sequential circuit whose combinational core is ``net``;
    retiming can then move the boundary registers into the core — the
    paper's Section 4 scenario.  Outputs are the final register stages.
    """
    if not net.is_combinational():
        raise ValueError("register_boundaries expects a combinational network")
    out = BooleanNetwork(name or f"{net.name}_reg")
    for pi in net.pis:
        out.add_pi(pi)
        out.add_latch(pi, f"{pi}__r", init=0)
    for node in net.topological_order():
        fanins = [
            f"{f}__r" if net.is_pi(f) else f"{f}__c" for f in node.fanins
        ]
        out.add_node(f"{node.name}__c", node.tt, fanins)
    for idx, po in enumerate(net.pos):
        signal = f"{po}__r" if net.is_pi(po) else f"{po}__c"
        for stage in range(output_stages):
            reg = f"{po}__o{stage}"
            out.add_latch(signal, reg, init=0)
            signal = reg
        out.add_po(signal)
    return out
