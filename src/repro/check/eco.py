"""Patch certification for incremental (ECO) remapping.

After :func:`repro.eco.eco_remap` splices a base run's labels into an
edited subject graph, :func:`certify_patch` re-certifies *just the
patch*: it replays the cover walk of the spliced result and structurally
verifies every selected match — distinguishing spliced (reused) matches,
whose rebinding through the canonical cone ordering is the novel step,
from freshly remapped ones — and cross-checks arrival consistency and
run metadata against the base mapping.  Unlike the full mapping
certificate (:mod:`repro.check.certificate`), no simulation runs: the
pass is cheap enough to gate every incremental call.

``E001``  a spliced (reused) match fails its match-class rules in the
          *edited* subject — the cone rebinding produced a bad match;
``E002``  a freshly remapped (dirty-region) match fails its rules;
``E003``  a covered node's stored arrival differs from the arrival its
          selected match implies over its leaf arrivals (a stale spliced
          label would surface here);
``E004``  a primary output's driver is missing from the patched cover or
          carries no selected match;
``E005``  the eco run's metadata (match kind, library, objective)
          diverges from the base mapping's — the reuse premise itself
          is violated.

Individual match-rule violations additionally surface under their
``C101``–``C106`` primitive codes, exactly as the full certificate does.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Set

from repro.check.diagnostics import CheckReport
from repro.core.cover import signal_name
from repro.core.match import MatchKind, subject_uses, verify_match
from repro.core.result import MappingResult
from repro.errors import CertificateError

__all__ = ["certify_patch"]

_TOL = 1e-6


def certify_patch(
    eco: MappingResult,
    reused_uids: FrozenSet[int],
    base: MappingResult,
    raise_on_error: bool = False,
) -> CheckReport:
    """Certify the spliced cover of one incremental remap.

    Args:
        eco: the mapping :func:`repro.eco.eco_remap` produced for the
            edited network.
        reused_uids: uids (in the edited subject) whose labels were
            spliced in from the base run.
        base: the base mapping the splice drew from.
        raise_on_error: raise :class:`~repro.errors.CertificateError`
            when the report contains error diagnostics.

    Returns:
        A :class:`CheckReport`; ``meta`` records the reused/remapped
        split of the *covered* nodes.
    """
    report = CheckReport()
    labels = eco.labels
    subject = labels.subject
    kind = MatchKind(eco.match_kind)

    # E005: the reuse premise — same kind, library, objective.
    for field_name, eco_value, base_value in (
        ("match_kind", eco.match_kind, base.match_kind),
        ("library", eco.library, base.library),
        ("objective", labels.objective, base.labels.objective),
    ):
        if eco_value != base_value:
            report.add(
                "E005",
                f"eco run {field_name} {eco_value!r} != base mapping "
                f"{field_name} {base_value!r}",
                obj=eco.netlist.name,
            )

    covered_reused = 0
    covered_remapped = 0
    covered: Set[int] = set()
    uses = subject_uses(subject) if kind is MatchKind.EXACT else None
    queue = deque(driver for _, driver in subject.pos)
    while queue:
        node = queue.popleft()
        if node.is_pi or node.uid in covered:
            continue
        covered.add(node.uid)
        spliced = node.uid in reused_uids
        match = labels.best[node.uid]
        if match is None:
            report.add(
                "E004",
                f"patched cover reaches node {node.uid} but no match is "
                f"selected there",
                obj=signal_name(node),
            )
            continue
        if spliced:
            covered_reused += 1
        else:
            covered_remapped += 1

        # E001/E002 (+ C101..C106): the match holds in the edited subject.
        verification = verify_match(match, subject, kind, uses=uses)
        if not verification.ok:
            code = "E001" if spliced else "E002"
            origin = "spliced" if spliced else "remapped"
            report.add(
                code,
                f"{origin} match {match.gate.name!r} at node {node.uid} "
                f"violates {kind.value} match rules "
                f"({len(verification)} violation(s))",
                obj=signal_name(node),
            )
            for violation in verification:
                report.add(
                    violation.code,
                    f"node {node.uid}, gate {match.gate.name!r}: "
                    f"{violation.message}",
                    obj=signal_name(node),
                )

        # A tampered binding may not cover every pattern leaf; the E001/
        # E002 pass above already reported it, so stop before leaves()
        # raises instead of crashing the certifier.
        try:
            leaves = match.leaves()
        except KeyError:
            continue

        # E003: arrival the splice/remap recorded vs. the match's cost.
        if labels.objective == "delay":
            gate = match.gate
            implied = max(
                (
                    labels.arrival[leaf.uid] + gate.pin_delay(pin)
                    for pin, leaf in leaves
                ),
                default=0.0,
            )
            stored = labels.arrival[node.uid]
            if abs(stored - implied) > _TOL:
                origin = "spliced" if spliced else "remapped"
                report.add(
                    "E003",
                    f"node {node.uid} ({origin}): stored arrival "
                    f"{stored:.6g} != {implied:.6g} implied by match "
                    f"{match.gate.name!r}",
                    obj=signal_name(node),
                )

        for _, leaf in leaves:
            if not leaf.is_pi and leaf.uid not in covered:
                queue.append(leaf)

    # E004: every PO driver reached the cover (PI drivers are exempt).
    for po_name, driver in subject.pos:
        if not driver.is_pi and driver.uid not in covered:
            report.add(
                "E004",
                f"primary output {po_name!r} driver (node {driver.uid}) "
                f"is missing from the patched cover",
                obj=po_name,
            )

    report.meta["covered_reused"] = covered_reused
    report.meta["covered_remapped"] = covered_remapped
    report.meta["nodes_reused"] = len(reused_uids)
    if raise_on_error and report.has_errors:
        raise CertificateError(
            f"eco patch certificate for {eco.netlist.name!r} failed "
            f"({report.summary()}):\n{report.format()}"
        )
    return report
