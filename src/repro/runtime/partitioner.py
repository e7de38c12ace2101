"""Vertex partitioners for the simulated cluster.

Giraph assigns vertices to workers with a hash partitioner (paper
Sec. VII-A4); a contiguous range partitioner is provided for the locality
ablation (the paper observes 70% of TGB's messages landing on half the
partitions under hashing), and two streaming-greedy partitioners (LDG and
an interval-weighted variant) pursue the locality lever the paper's future
work calls out.

Selection is config-driven: ``EngineConfig(partitioning=...)`` /
``repro run --partitioner`` pick a kind from
:data:`PARTITIONER_KINDS` and :func:`build_partitioner` constructs it for
the engine's graph.  Every partitioner exposes a :meth:`Partitioner.fingerprint`
— a stable string covering the *actual* vertex→worker assignment — which
the checkpoint manifest records so a resume under a different placement
fails loudly instead of silently scrambling shard ownership.
"""

from __future__ import annotations

import random
import re
import zlib
from typing import Any, Dict, Iterable

__all__ = [
    "PARTITIONER_KINDS",
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "GreedyEdgeCutPartitioner",
    "IntervalGreedyPartitioner",
    "build_partitioner",
    "partitioner_fingerprint",
]

#: Config/CLI/env partitioner kinds, in documentation order.
PARTITIONER_KINDS = ("hash", "range", "greedy", "interval_greedy")

_DIGIT_RUN = re.compile(r"(\d+)")


def _natural_key(vid: Any):
    """Order vertex ids with digit runs compared numerically.

    ``sorted(key=repr)`` puts ``v10`` before ``v2``; datasets name vertices
    ``v0..vN``, so lexicographic order interleaves the numeric ranges and
    a "range" partitioner built on it is not contiguous at all.  Natural
    order restores ``v2 < v10`` (and plain integer ids order numerically);
    ``repr`` remains the tie-break so distinct ids never compare equal.
    """
    text = vid if isinstance(vid, str) else repr(vid)
    key = tuple(
        (0, int(part)) if part.isdigit() else (1, part)
        for part in _DIGIT_RUN.split(text)
    )
    return (key, repr(vid))


def _edge_records(graph):
    """Stream ``(src_vid, dst_vid, start, end)`` per edge.

    A compact graph serves these straight from its columnar arrays
    (``CompactGraph.edge_records``) without materialising edge views; heap
    graphs fall back to object iteration.  Both stores stream edges in
    the same enumeration order, so weight accumulation — and therefore
    every greedy placement — is identical between them.
    """
    fast = getattr(graph, "edge_records", None)
    if fast is not None:
        return fast()
    return ((e.src, e.dst, e.lifespan.start, e.lifespan.end) for e in graph.edges())


class Partitioner:
    """Maps vertex id → worker index, with quality and identity helpers."""

    kind: str = ""
    num_workers: int = 0

    def worker_of(self, vid: Any) -> int:
        raise NotImplementedError

    def edge_cut(self, graph) -> float:
        """Fraction of edges whose endpoints land on different workers."""
        total = cut = 0
        worker_of = self.worker_of
        for src, dst, _, _ in _edge_records(graph):
            total += 1
            if worker_of(src) != worker_of(dst):
                cut += 1
        return cut / total if total else 0.0

    def fingerprint(self) -> str:
        """A stable identity string for checkpoint-manifest comparison.

        Two partitioners with equal fingerprints produce the same
        vertex→worker map; a resume across differing fingerprints would
        re-shard state and is refused by the engine.
        """
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """Deterministic hash partitioning of opaque vertex ids.

    Python's builtin ``hash`` is salted per process for strings, so we hash
    the id's string form with CRC32 — stable across runs and processes,
    which keeps benchmarks reproducible.  ``seed`` perturbs the assignment
    (it seeds the CRC register) so tests and ablations can exercise
    different vertex→worker layouts without changing the partitioning
    scheme; ``seed=0`` reproduces the historical assignment exactly.

    Each id is hashed once: the answer is memoized on the instance (the
    engine asks per vertex and per message batch, every superstep).  The
    memo holds one int per id seen and is left out of the pickled state,
    so a payload shipped to a worker process carries only the scheme.
    """

    kind = "hash"

    def __init__(self, num_workers: int, seed: int = 0):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self.seed = seed
        self._crc_init = seed & 0xFFFFFFFF
        self._memo: Dict[Any, int] = {}

    def worker_of(self, vid: Any) -> int:
        shard = self._memo.get(vid)
        if shard is None:
            shard = self._memo[vid] = (
                zlib.crc32(repr(vid).encode("utf-8"), self._crc_init)
                % self.num_workers
            )
        return shard

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_memo": {}}

    def fingerprint(self) -> str:
        return f"hash:w={self.num_workers}:seed={self.seed}"

    def __repr__(self) -> str:
        if self.seed:
            return f"HashPartitioner({self.num_workers}, seed={self.seed})"
        return f"HashPartitioner({self.num_workers})"


class _AssignmentPartitioner(Partitioner):
    """Shared behaviour for partitioners holding a precomputed assignment."""

    _missing = "not in partitioned universe"

    def __init__(self):
        self._assignment: Dict[Any, int] = {}

    def worker_of(self, vid: Any) -> int:
        try:
            return self._assignment[vid]
        except KeyError:
            raise KeyError(f"vertex {vid!r} {self._missing}") from None

    def _assignment_digest(self) -> str:
        """SHA-256 over the full vertex→worker map (id-order independent)."""
        import hashlib  # only assignment partitioners pay for OpenSSL's binding

        digest = hashlib.sha256()
        for vid, worker in sorted(
            self._assignment.items(), key=lambda item: repr(item[0])
        ):
            digest.update(f"{vid!r}\t{worker}\n".encode("utf-8"))
        return digest.hexdigest()[:16]


class GreedyEdgeCutPartitioner(_AssignmentPartitioner):
    """Streaming greedy partitioning (LDG-style) of a temporal graph.

    The paper's future work includes "explor[ing] … partitioning
    strategies".  This partitioner streams vertices in natural id order and
    places each on the worker holding the largest (weighted) share of its
    already-placed neighbours, damped by a capacity penalty (Stanton &
    Kliot's linear deterministic greedy), which cuts remote-message traffic
    versus hashing on graphs with locality.

    Placement is a single O(E) sweep: each streamed vertex folds its
    neighbour list into per-worker weights (touching only workers that
    actually hold a neighbour) instead of scoring every worker against
    every neighbour.  Ties — including the no-placed-neighbours case,
    where every worker scores 0.0 — go to the least-loaded worker (lowest
    index on equal load), so early isolated vertices spread round-robin
    instead of piling onto worker 0.

    ``seed=0`` streams vertices in canonical natural order; a non-zero
    seed deterministically shuffles the stream, giving ablations distinct
    (but reproducible, process-independent) placements.
    """

    kind = "greedy"
    _missing = "not in partitioned graph"

    def __init__(
        self,
        num_workers: int,
        graph,
        *,
        capacity_slack: float = 1.1,
        seed: int = 0,
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        super().__init__()
        self.num_workers = num_workers
        self.capacity_slack = capacity_slack
        self.seed = seed
        vids = sorted(graph.vertex_ids(), key=_natural_key)
        if seed:
            random.Random(seed).shuffle(vids)
        capacity = max(1.0, capacity_slack * len(vids) / num_workers)
        neighbours: Dict[Any, Dict[Any, float]] = {vid: {} for vid in vids}
        record_weight = self._record_weight
        for src, dst, start, end in _edge_records(graph):
            weight = record_weight(start, end)
            if weight <= 0.0:
                continue
            src_nbrs = neighbours[src]
            src_nbrs[dst] = src_nbrs.get(dst, 0.0) + weight
            dst_nbrs = neighbours[dst]
            dst_nbrs[src] = dst_nbrs.get(src, 0.0) + weight
        assignment = self._assignment
        loads = [0] * num_workers
        for vid in vids:
            # One pass over the vertex's neighbours → per-worker weights;
            # only those workers can score above the 0.0 every empty
            # worker shares, so the candidate set is the weighted workers
            # plus the least-loaded one.
            weights: Dict[int, float] = {}
            for nbr, weight in neighbours[vid].items():
                worker = assignment.get(nbr)
                if worker is not None:
                    weights[worker] = weights.get(worker, 0.0) + weight
            least = min(range(num_workers), key=lambda w: (loads[w], w))
            best_worker = least
            best_key = (0.0, -loads[least], -least)
            for worker in sorted(weights):
                score = weights[worker] * (1.0 - loads[worker] / capacity)
                key = (score, -loads[worker], -worker)
                if key > best_key:
                    best_worker, best_key = worker, key
            assignment[vid] = best_worker
            loads[best_worker] += 1

    def _record_weight(self, start: int, end: int) -> float:
        """Weight from lifespan bounds alone — the streaming-sweep form."""
        return 1.0

    def fingerprint(self) -> str:
        return (
            f"{self.kind}:w={self.num_workers}:seed={self.seed}"
            f":slack={self.capacity_slack!r}:assign={self._assignment_digest()}"
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.num_workers}, "
            f"|V|={len(self._assignment)}, slack={self.capacity_slack!r})"
        )


class IntervalGreedyPartitioner(GreedyEdgeCutPartitioner):
    """LDG weighted by edge-lifespan overlap length (interval-aware).

    ICM message volume along an edge is proportional to how long the edge
    is alive (interval overlap with its endpoints — which, by the graph's
    constraint 2, is the edge lifespan itself), not to the bare edge
    count: a unit-lifespan edge carries one superstep's traffic where a
    full-horizon edge re-scatters every superstep.  Weighting each
    neighbour by lifespan length steers the capacity budget toward the
    edges that actually move bytes.
    """

    kind = "interval_greedy"

    def __init__(
        self,
        num_workers: int,
        graph,
        *,
        capacity_slack: float = 1.1,
        seed: int = 0,
    ):
        # Unbounded lifespans (FOREVER) are clipped to the horizon so one
        # open-ended edge cannot drown every bounded neighbour's weight.
        self._horizon = max(1, graph.time_horizon())
        super().__init__(
            num_workers, graph, capacity_slack=capacity_slack, seed=seed
        )

    def _record_weight(self, start: int, end: int) -> float:
        return float(max(1, min(end, self._horizon) - start))


class RangePartitioner(_AssignmentPartitioner):
    """Contiguous ranges over a known vertex universe, in natural order.

    Natural order (digit runs compared numerically) is what makes the
    ranges *actually* contiguous for the ``v0..vN`` and integer id schemes
    every dataset uses; plain ``repr`` order would split ``v2``, ``v20``
    and ``v200`` across workers while claiming locality.
    """

    kind = "range"

    def __init__(self, num_workers: int, vertex_ids: Iterable[Any]):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        super().__init__()
        self.num_workers = num_workers
        ordered = sorted(vertex_ids, key=_natural_key)
        if ordered:
            per_worker = max(1, (len(ordered) + num_workers - 1) // num_workers)
            for idx, vid in enumerate(ordered):
                self._assignment[vid] = min(idx // per_worker, num_workers - 1)

    def fingerprint(self) -> str:
        return (
            f"range:w={self.num_workers}:assign={self._assignment_digest()}"
        )

    def __repr__(self) -> str:
        return f"RangePartitioner({self.num_workers}, |V|={len(self._assignment)})"


def build_partitioner(
    kind: str,
    num_workers: int,
    graph,
    *,
    seed: int = 0,
    capacity_slack: float = 1.1,
) -> Partitioner:
    """Construct the partitioner ``kind`` for ``graph`` — the one factory
    behind ``EngineConfig.partitioning`` and ``--partitioner``."""
    if kind == "hash":
        return HashPartitioner(num_workers, seed)
    if kind == "range":
        return RangePartitioner(num_workers, graph.vertex_ids())
    if kind == "greedy":
        return GreedyEdgeCutPartitioner(
            num_workers, graph, capacity_slack=capacity_slack, seed=seed
        )
    if kind == "interval_greedy":
        return IntervalGreedyPartitioner(
            num_workers, graph, capacity_slack=capacity_slack, seed=seed
        )
    raise ValueError(
        f"unknown partitioner kind {kind!r} "
        f"(expected one of {', '.join(PARTITIONER_KINDS)})"
    )


def partitioner_fingerprint(partitioner: Any) -> str:
    """The partitioner's stable identity; ``repr`` for foreign objects."""
    fingerprint = getattr(partitioner, "fingerprint", None)
    if callable(fingerprint):
        return fingerprint()
    return repr(partitioner)
