"""Matcher/labeling performance layer.

Cooperating pieces, all correctness-preserving by construction and
enforced byte-identical to the seed path by the test suite:

* :mod:`repro.perf.signature` — structural cone signatures.  A per-node
  canonical encoding of the local NAND2/INV cone up to the pattern set's
  maximum depth.  Subject nodes with equal signatures have isomorphic
  match sets, so :meth:`Matcher.matches_at` results are computed once per
  distinct signature and *replayed* onto every other root by rebinding
  leaves through the canonical cone ordering.
* :mod:`repro.perf.trie` — a pattern prefix trie.  Patterns whose
  decompositions share a structural prefix (very common across the
  variants of one gate and across gates of a rich library) are grouped so
  the binding enumeration runs once per group per subject node, and the
  structural-feasibility memo is keyed by interned subtree shapes shared
  across the whole pattern set.
* :mod:`repro.perf.parallel` — the one fault-tolerant worker pool,
  entered only through :func:`~repro.perf.parallel.stream_jobs`: a
  long-lived warm pool consuming an unbounded job iterator with
  per-worker cache bundles, size sharding, bounded in-flight
  backpressure and completion-order results.  Worker crashes, per-job
  timeouts and transient failures become structured
  :class:`~repro.perf.parallel.CellFailure` rows instead of aborting the
  run, and every finished job is journalled
  (:mod:`repro.perf.journal`) so ``--resume`` re-runs only what is
  missing.  Table cells (``--jobs N``), campaigns and fuzz seeds are
  its job sources.
* :mod:`repro.perf.campaign` — mapping campaigns as a job source:
  heterogeneous (circuit, library, mode, kind) job batches from a
  JSONL manifest or a seeded ensemble, exposed as ``repro-map
  campaign`` and benchmarked by ``benchmarks/bench_throughput.py``.

:mod:`repro.perf.counters` carries the instrumentation counters that
surface in :class:`repro.core.result.MappingResult` and in
``BENCH_mapper.json``.
"""

from repro.perf.benchjson import write_bench_json
from repro.perf.campaign import (
    CampaignJob,
    CampaignOutcome,
    CampaignRow,
    load_manifest,
    run_mapping_campaign,
    seed_ensemble,
    stream_campaign,
)
from repro.perf.counters import MatchStats, RunStats
from repro.perf.journal import load_journal
from repro.perf.parallel import CellFailure, StreamJob, StreamResult, stream_jobs
from repro.perf.signature import cone_signature
from repro.perf.trie import PatternTrie

__all__ = [
    "CampaignJob",
    "CampaignOutcome",
    "CampaignRow",
    "CellFailure",
    "MatchStats",
    "RunStats",
    "StreamJob",
    "StreamResult",
    "cone_signature",
    "load_journal",
    "load_manifest",
    "PatternTrie",
    "run_mapping_campaign",
    "seed_ensemble",
    "stream_campaign",
    "stream_jobs",
    "write_bench_json",
]
