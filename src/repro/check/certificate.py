"""Mapping certificate checker: independent verification of a mapping run.

A :class:`~repro.core.result.MappingResult` carries everything needed to
*re-derive* the claims a mapper makes: the labeling (per-node arrivals
and selected matches), the mapped netlist, and the reported delay/area.
:func:`certify_mapping` replays the cover construction from the labels
and checks, with code from outside the mapper's hot path:

``C001``  every primary output is driven by a covered subject node;
``C002``  every selected match is instantiated verbatim in the netlist
          (right cell, right leaf signals in pin order);
``C003``  every selected match satisfies its match-class definition
          (Definitions 1-3, via :func:`repro.core.match.verify_match` —
          individual violations are also reported under their own
          ``C101``-``C106`` codes);
``C004``  arrival labels are self-consistent: at every covered node the
          stored arrival equals the selected match's cost over its leaf
          arrivals, and PO arrivals equal their drivers';
``C005``  the mapped netlist is functionally equivalent to the subject
          graph (exhaustive up to ``exhaustive_limit`` inputs, seeded
          random beyond);
``C006``  the reported delay equals the labeling bound (worst PO
          arrival), and — when a pattern set is supplied — an
          independent relabeling reproduces it: every node's exact
          minimum arrival over the matches of
          :class:`repro.check.reference_match.ReferenceMatcher`, which
          shares no code with the production matcher's enumeration;
``C007``  the netlist is structurally sound (``netlist.check()``);
``C008``  a node reached by the cover walk has a selected match;
``C009``  (warning) the reported area equals the netlist's cell-area sum;
``C010``  (warning) the netlist contains no gates outside the cover.

The checker never raises on a bad mapping — every finding becomes a
diagnostic — so the same pass serves the CLI, the test-suite mutation
oracle, and the opt-in ``check=`` hook in the mappers.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Optional, Sequence, Set

from repro.check.diagnostics import CheckReport
from repro.check.reference_match import ReferenceMatcher
from repro.core.cover import signal_name
from repro.core.match import Match, MatchKind, subject_uses, verify_match
from repro.core.result import MappingResult
from repro.errors import CertificateError, MappingError, NetworkError
from repro.library.patterns import PatternSet
from repro.network.bitsim import configured_seed, configured_vectors
from repro.network.simulate import exhaustive_equivalence, random_equivalence

__all__ = ["certify_mapping", "attach_certificate"]

#: Above this many primary inputs, equivalence checking samples random
#: vectors instead of enumerating the whole input space.
DEFAULT_EXHAUSTIVE_LIMIT = 12

_TOL = 1e-6


def _match_cost(match: Match, arrival: Sequence[float]) -> float:
    """Arrival implied by a match: max over leaves of leaf arrival + pin delay."""
    gate = match.gate
    return max(
        (
            arrival[leaf.uid] + gate.pin_delay(pin)
            for pin, leaf in match.leaves()
        ),
        default=0.0,
    )


def certify_mapping(
    result: MappingResult,
    selection: Optional[Dict[int, Match]] = None,
    patterns: Optional[PatternSet] = None,
    vectors: Optional[int] = None,
    seed: Optional[int] = None,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    target: Optional[float] = None,
) -> CheckReport:
    """Certify one mapping run; every finding becomes a coded diagnostic.

    The equivalence stage (``C005``) runs on the bit-parallel kernel:
    one packed pass per circuit, exhaustive up to ``exhaustive_limit``
    primary inputs and a seeded random batch beyond.  The batch width
    and seed resolve explicit arguments > ``REPRO_SIM_VECTORS`` /
    ``REPRO_SIM_SEED`` environment > defaults, and are recorded in
    ``report.meta`` and on ``result.sim_vectors`` / ``result.sim_seed``
    so the run is reproducible.

    Args:
        result: the mapping run to certify.
        selection: the per-node match override that was passed to
            :func:`repro.core.cover.build_cover`, when one was (area
            recovery does this); without it the certificate replays the
            cover from ``labels.best`` alone.
        patterns: when given, an independent relabeling with the
            reference enumerator cross-checks the delay bound (slow;
            off by default).  It starts from the run's PI arrivals, and
            ``report.meta["relabel_steps"]`` records its work.
        vectors: random simulation batch width past ``exhaustive_limit``
            (default: ``REPRO_SIM_VECTORS`` or 4096).
        seed: PRNG seed for the random equivalence stage (default:
            ``REPRO_SIM_SEED`` or 2024).
        exhaustive_limit: max primary inputs for exhaustive equivalence.
        target: delay budget of an *area-recovered* cover.  When set,
            the per-node arrival check (``C004``) changes meaning — the
            selection's replayed arrivals may exceed the optimal labels
            but must never beat them — and two recovered-cover checks
            run instead of the bound equality: every primary output's
            replayed arrival must meet ``target`` (``C011``) and the
            reported delay must equal the replayed cover's worst PO
            arrival (``C006``).
    """
    report = CheckReport()
    sim_vectors = configured_vectors(vectors)
    sim_seed = configured_seed(seed)
    report.meta["sim_vectors"] = sim_vectors
    report.meta["sim_seed"] = sim_seed
    result.sim_vectors = sim_vectors
    result.sim_seed = sim_seed
    labels = result.labels
    subject = labels.subject
    netlist = result.netlist
    try:
        kind = MatchKind(result.match_kind)
    except ValueError:
        kind = MatchKind.STANDARD

    # ------------------------------------------------------------------
    # C007: structural soundness of the netlist itself.
    try:
        netlist.check()
    except (MappingError, NetworkError) as exc:
        report.add("C007", str(exc), obj=netlist.name)

    # ------------------------------------------------------------------
    # Replay the cover walk from the labels (the same queue discipline as
    # build_cover, but checking instead of constructing).
    covered: Set[int] = set()
    chosen: Dict[int, Match] = {}
    uses = subject_uses(subject) if kind is MatchKind.EXACT else None
    queue = deque(driver for _, driver in subject.pos)
    while queue:
        node = queue.popleft()
        if node.is_pi or node.uid in covered:
            continue
        covered.add(node.uid)

        match = selection.get(node.uid) if selection is not None else None
        if match is None:
            match = labels.best[node.uid]
        if match is None:
            report.add(
                "C008",
                f"cover reaches subject node {node.uid} but no match is "
                f"selected there",
                obj=signal_name(node),
            )
            continue
        chosen[node.uid] = match

        # C003 (+ C101..C106): the match satisfies its class definition.
        verification = verify_match(match, subject, kind, uses=uses)
        if not verification.ok:
            report.add(
                "C003",
                f"match {match.gate.name!r} at node {node.uid} violates "
                f"{kind.value} match rules ({len(verification)} violation(s))",
                obj=signal_name(node),
            )
            for violation in verification:
                report.add(
                    violation.code,
                    f"node {node.uid}, gate {match.gate.name!r}: "
                    f"{violation.message}",
                    obj=signal_name(node),
                )

        # C002: the netlist instantiates exactly this match.
        signal = signal_name(node)
        mapped = netlist.driver(signal)
        pin_to_leaf = {pin: leaf for pin, leaf in match.leaves()}
        if mapped is None:
            report.add(
                "C002",
                f"selected match {match.gate.name!r} at node {node.uid} has "
                f"no gate driving {signal!r} in the netlist",
                obj=signal,
            )
        else:
            expected_inputs = tuple(
                signal_name(pin_to_leaf[pin]) for pin in match.gate.inputs
            )
            if mapped.gate.name != match.gate.name:
                report.add(
                    "C002",
                    f"netlist drives {signal!r} with cell "
                    f"{mapped.gate.name!r} but the selected match uses "
                    f"{match.gate.name!r}",
                    obj=signal,
                )
            elif tuple(mapped.inputs) != expected_inputs:
                report.add(
                    "C002",
                    f"gate {mapped.gate.name!r} at {signal!r} reads "
                    f"{list(mapped.inputs)} but the selected match binds "
                    f"{list(expected_inputs)}",
                    obj=signal,
                )

        # C004: arrival self-consistency at this node (delay objective).
        # Recovered covers (target set) intentionally pick slower
        # matches; their arrivals are replayed bottom-up after the walk.
        if labels.objective == "delay" and target is None:
            implied = _match_cost(match, labels.arrival)
            stored = labels.arrival[node.uid]
            if abs(stored - implied) > _TOL:
                report.add(
                    "C004",
                    f"node {node.uid}: stored arrival {stored:.6g} != "
                    f"{implied:.6g} implied by match {match.gate.name!r}",
                    obj=signal,
                )

        for leaf in pin_to_leaf.values():
            if not leaf.is_pi and leaf.uid not in covered:
                queue.append(leaf)

    # ------------------------------------------------------------------
    # C001: every PO driven by a covered (or PI) subject node whose
    # signal actually reaches the netlist's output list.
    netlist_pos = dict(netlist.pos)
    for po_name, driver in subject.pos:
        if not driver.is_pi and driver.uid not in covered:
            report.add(
                "C001",
                f"primary output {po_name!r} driver (node {driver.uid}) "
                f"was never covered",
                obj=po_name,
            )
        expected = signal_name(driver)
        if netlist_pos.get(po_name) != expected:
            report.add(
                "C001",
                f"primary output {po_name!r} connects to "
                f"{netlist_pos.get(po_name)!r} instead of {expected!r}",
                obj=po_name,
            )

    # C004 (PO side): reported PO arrivals match their drivers'.
    if labels.objective == "delay":
        for po_name, driver in subject.pos:
            stored = labels.po_arrival.get(po_name)
            actual = labels.arrival[driver.uid]
            if stored is None or abs(stored - actual) > _TOL:
                report.add(
                    "C004",
                    f"PO {po_name!r}: recorded arrival "
                    f"{stored if stored is None else format(stored, '.6g')} "
                    f"!= driver arrival {actual:.6g}",
                    obj=po_name,
                )

    # ------------------------------------------------------------------
    # C010: gates in the netlist that no cover step accounts for.
    cover_signals = {signal_name(subject.nodes[uid]) for uid in covered}
    for mapped in netlist.gates:
        if mapped.output not in cover_signals:
            report.add(
                "C010",
                f"gate {mapped.instance!r} ({mapped.gate.name}) drives "
                f"{mapped.output!r}, which no cover step produced",
                obj=mapped.output,
            )

    # C009: reported area vs. netlist cell-area sum.
    actual_area = netlist.area()
    if abs(result.area - actual_area) > max(_TOL, 1e-9 * abs(actual_area)):
        report.add(
            "C009",
            f"reported area {result.area:.6g} != netlist cell-area sum "
            f"{actual_area:.6g}",
            obj=netlist.name,
        )

    # ------------------------------------------------------------------
    # C006: reported delay vs. the labeling bound, and (optionally) an
    # independent relabeling with the reference enumerator.
    if labels.objective == "delay":
        bound = labels.max_arrival
        if target is None:
            if abs(result.delay - bound) > _TOL:
                report.add(
                    "C006",
                    f"reported delay {result.delay:.6g} != labeling bound "
                    f"{bound:.6g}",
                    obj=netlist.name,
                )
        else:
            # Recovered cover: replay the selection's arrivals bottom-up
            # (uids are topological).  Each node may be slower than its
            # optimal label but never faster (C004), every PO must meet
            # the delay target (C011), and the reported delay must equal
            # the replayed worst PO arrival (C006).
            sel_arrival: Dict[int, float] = {}
            for uid in sorted(chosen):
                sel_match = chosen[uid]
                sel_gate = sel_match.gate
                worst = 0.0
                for pin, leaf in sel_match.leaves():
                    base = (
                        labels.arrival[leaf.uid]
                        if leaf.is_pi
                        else sel_arrival.get(leaf.uid, labels.arrival[leaf.uid])
                    )
                    worst = max(worst, base + sel_gate.pin_delay(pin))
                sel_arrival[uid] = worst
                if worst < labels.arrival[uid] - _TOL:
                    report.add(
                        "C004",
                        f"node {uid}: replayed recovered arrival "
                        f"{worst:.6g} beats the optimal label "
                        f"{labels.arrival[uid]:.6g}",
                        obj=signal_name(subject.nodes[uid]),
                    )
            worst_po = 0.0
            for po_name, driver in subject.pos:
                if driver.is_pi:
                    po_t: Optional[float] = labels.arrival[driver.uid]
                else:
                    po_t = sel_arrival.get(driver.uid)
                if po_t is None:
                    continue  # C001 already reported the uncovered PO
                worst_po = max(worst_po, po_t)
                if po_t > target + _TOL:
                    report.add(
                        "C011",
                        f"PO {po_name!r}: replayed arrival {po_t:.6g} "
                        f"exceeds the delay target {target:.6g}",
                        obj=po_name,
                    )
            if abs(result.delay - worst_po) > _TOL:
                report.add(
                    "C006",
                    f"reported delay {result.delay:.6g} != replayed "
                    f"recovered-cover delay {worst_po:.6g}",
                    obj=netlist.name,
                )
        if patterns is not None:
            reference = ReferenceMatcher(patterns, kind, subject)
            # PIs keep the run's arrivals; every other label is the
            # exact minimum over the reference enumerator's matches.
            relabel = list(labels.arrival)
            for node in subject.topological():
                if not node.is_pi:
                    relabel[node.uid] = min(
                        (_match_cost(m, relabel)
                         for m in reference.matches_at(node)),
                        default=math.inf,
                    )
            independent = max(relabel[driver.uid] for _, driver in subject.pos)
            report.meta["relabel_steps"] = reference.steps
            if abs(independent - bound) > _TOL:
                report.add(
                    "C006",
                    f"independent relabeling gives bound "
                    f"{independent:.6g}, run recorded {bound:.6g}",
                    obj=netlist.name,
                )

    # ------------------------------------------------------------------
    # C005: functional equivalence subject vs. netlist.  Skip when the
    # netlist is structurally broken — simulation would raise.
    if not report.by_code("C007"):
        try:
            if len(subject.pis) <= exhaustive_limit:
                cex = exhaustive_equivalence(subject, netlist)
                how = "exhaustive"
            else:
                cex = random_equivalence(
                    subject, netlist, vectors=sim_vectors, seed=sim_seed
                )
                how = f"random ({sim_vectors} vectors, seed {sim_seed})"
            report.meta["equivalence"] = how
            if cex is not None:
                report.add(
                    "C005",
                    f"netlist differs from subject ({how}): {cex}",
                    obj=netlist.name,
                )
        except NetworkError as exc:
            report.add("C005", f"equivalence check failed: {exc}", obj=netlist.name)

    return report


def attach_certificate(
    result: MappingResult, raise_on_error: bool = True, **kwargs: object
) -> CheckReport:
    """Certify ``result`` in place: the mappers' ``check=True`` hook.

    Stores the report on ``result.certificate`` and, by default, raises
    :class:`~repro.errors.CertificateError` when it contains any
    error-severity diagnostic.
    """
    report = certify_mapping(result, **kwargs)  # type: ignore[arg-type]
    result.certificate = report
    if raise_on_error and report.has_errors:
        raise CertificateError(
            f"mapping certificate for {result.netlist.name!r} failed "
            f"({report.summary()}):\n{report.format()}"
        )
    return report
