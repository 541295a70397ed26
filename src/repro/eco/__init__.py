"""Incremental (ECO) remapping: diff-aware reuse of a previous mapping.

Given a base network's :class:`~repro.core.result.MappingResult` and an
edited network, :func:`eco_remap` identifies the clean region via
interned cone-signature keys (:mod:`repro.eco.keys`), splices the base
run's labels there, remaps only the dirty fanout cones, and re-certifies
the patch — with a hard contract that the output is byte-identical
(delay, area, mapped-BLIF cover) to a from-scratch
:func:`~repro.core.dag_mapper.map_dag` of the edited network.

Typed netlist edits themselves live in :mod:`repro.network.edits`; the
seeded edit-pair generator in :mod:`repro.fuzz.generator`; the
differential oracle (F011) in :mod:`repro.fuzz.oracles`; patch
certification (E-series codes) in :mod:`repro.check.eco`.
"""

from repro.eco.keys import EcoKeyTable, SubjectKeys, compute_subject_keys
from repro.eco.remap import EcoResult, eco_remap

__all__ = [
    "EcoKeyTable",
    "EcoResult",
    "SubjectKeys",
    "compute_subject_keys",
    "eco_remap",
]
