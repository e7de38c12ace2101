"""Barrier-synchronized checkpointing: durable superstep state on disk.

Giraph checkpoints vertex state and in-flight messages at BSP barriers and
restarts failed workers from the last checkpoint.  This module is that
layer for the reproduction: at a configurable superstep cadence the engine
snapshots everything a barrier owns —

* each shard's :class:`~repro.core.state.PartitionedState` partitions,
* the messages pending delivery at the next superstep (with their sender
  sequence numbers, so the resumed run restores the exact serial delivery
  order),
* the reduced aggregator values the next superstep will read,
* the run's deterministic counters and modeled cost sums
  (:class:`~repro.runtime.metrics.RunMetrics`),

and writes one **varint-encoded file per shard** using the existing wire
codec (`repro.runtime.encoding` — the checkpoint format *is* the message
format, there is no second serializer), plus a JSON **manifest** carrying
the superstep, a config fingerprint, and per-file SHA-256 checksums.
``IntervalCentricEngine.run(resume_from=...)`` reloads the manifest,
validates the fingerprint, and continues from superstep N+1 producing
results bit-identical to an uninterrupted run; the same loader backs the
parallel executor's crash recovery (`repro.runtime.faults`).

Layout on disk::

    <root>/
      step-000004/
        manifest.json          # superstep, config hash, checksums
        aggregates.bin         # payload-codec (name, value) pairs
        shard-00000.bin        # states + pending messages of shard 0
        shard-00002.bin        # empty shards are omitted
      step-000008/
        ...

Checkpoints are written atomically (staging directory + rename), so a
crash *during* checkpointing can never leave a half-readable step behind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Optional

from repro.core.engine import SUPPRESSION_EXPANSION_CAP
from repro.core.messages import Row
from repro.core.state import PartitionedState

from repro.obs.registry import RUN_METRICS

from .encoding import (
    _encode_payload_into,
    _encode_span_into,
    _encode_varint_into,
    decode_interval,
    decode_payload,
    decode_routed_batch,
    decode_varint,
    encode_routed_batch,
    encode_varint,
)
from .metrics import RunMetrics, SuperstepMetrics
from .partitioner import partitioner_fingerprint

__all__ = [
    "CHECKPOINT_FORMAT",
    "EXCHANGE_FINGERPRINT",
    "CheckpointError",
    "CheckpointInfo",
    "ExecutorSnapshot",
    "LoadedCheckpoint",
    "config_fingerprint",
    "decode_shard",
    "encode_shard",
    "graph_fingerprint",
    "latest_checkpoint",
    "load_checkpoint",
    "metrics_snapshot",
    "restore_metrics",
    "result_shape",
    "write_checkpoint",
]

#: Bump on any incompatible change to the shard or manifest layout.
#: 2: pending messages use routed-batch wire format 2 (leading format
#: byte, per-entry raw-message counts from sender-side combining).
CHECKPOINT_FORMAT = 2

#: The exchange data-plane fingerprint written into manifests: names the
#: routed-batch wire version the pending entries use.  Deliberately not
#: the combine flag — a checkpoint resumes with combining on or off.
EXCHANGE_FINGERPRINT = "routed-batch-v2"

_SHARD_MAGIC = b"ICMC"
_STEP_DIR = re.compile(r"^step-(\d{6})$")

# Manifest field order is on-disk layout: both tuples derive from the
# metric registry's declaration order (`repro.obs.registry.RUN_METRICS`),
# which is therefore as stable as CHECKPOINT_FORMAT itself.
_METRIC_COUNTERS = RUN_METRICS.names(value="int")
_METRIC_FLOATS = RUN_METRICS.names(value="float")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found, read, or trusted.

    Raised for missing/corrupt files, checksum or format-version
    mismatches, unserializable state values, and config-fingerprint
    mismatches on resume.  Distinct from
    :class:`~repro.runtime.faults.UnrecoverableRunError`, which is about
    *processes* dying faster than recovery can absorb.
    """


@dataclass
class ExecutorSnapshot:
    """Everything an executor owns at a barrier: portable, not byte-equal.

    ``pending`` entries are ``(sender_seq, dst_vid, message)`` triples in
    delivery order — the same entries the parallel wire format routes — or
    ``(seq, dst, message, count, charge)`` 5-tuples where sender-side
    combining folded ``count`` raw messages into one.  Only a run of two or
    more processes combines, so its snapshot of a superstep differs from a
    serial run's; either executor charges the folded-away messages on the
    first resumed superstep, so a snapshot taken under one executor resumes
    under the other bit-identically.
    """

    states: dict[Any, PartitionedState]
    pending: list[tuple]


@dataclass
class CheckpointInfo:
    """What one :func:`write_checkpoint` call produced."""

    path: Path
    superstep: int
    bytes_written: int
    seconds: float = 0.0


@dataclass
class LoadedCheckpoint:
    """A checkpoint read back from disk, checksums verified."""

    path: Path
    superstep: int
    config_hash: str
    algorithm: str
    graph: str
    num_workers: int
    states: dict[Any, PartitionedState]
    pending: list[tuple[int, Any, Row]]
    aggregates: dict[str, Any]
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Fingerprint of the partitioner the writer ran under ("" in
    #: manifests predating the partitioning subsystem).
    partitioner: str = ""
    #: Exchange data-plane fingerprint — the routed-batch wire version the
    #: pending entries were written with ("" in older manifests).  The
    #: combine flag is deliberately *not* part of it: the decoder always
    #: understands combined entries.
    exchange: str = ""


# -- shard codec ---------------------------------------------------------------


def encode_shard(
    states: list[tuple[Any, PartitionedState]],
    pending: list[tuple[int, Any, Row]],
) -> bytes:
    """Encode one shard's states and pending messages with the wire codec.

    Layout: magic, format varint, vertex count, then per vertex the id
    (tagged payload), lifespan (interval header), partition count, the
    interior+final end boundaries as varints, and the partition values as
    tagged payloads; the pending messages follow as one routed batch
    (:func:`repro.runtime.encoding.encode_routed_batch` — the same bytes
    that cross worker pipes at a live barrier).
    """
    out = bytearray(_SHARD_MAGIC)
    out += encode_varint(CHECKPOINT_FORMAT)
    out += encode_varint(len(states))
    for vid, state in states:
        lifespan, ends, values = state.parts()
        try:
            _encode_payload_into(vid, out)
        except TypeError as exc:
            raise CheckpointError(
                f"vertex id {vid!r} is not checkpoint-serializable: {exc}"
            ) from exc
        _encode_span_into(lifespan.start, lifespan.end, out)
        _encode_varint_into(len(ends), out)
        for end in ends:
            _encode_varint_into(end, out)
        for value in values:
            try:
                _encode_payload_into(value, out)
            except TypeError as exc:
                raise CheckpointError(
                    f"state value {value!r} of vertex {vid!r} is not "
                    f"checkpoint-serializable: {exc}"
                ) from exc
    try:
        out += encode_routed_batch(pending)
    except TypeError as exc:
        raise CheckpointError(
            f"pending message is not checkpoint-serializable: {exc}"
        ) from exc
    return bytes(out)


def decode_shard(
    buf: bytes, *, coalesce: bool = True
) -> tuple[dict[Any, PartitionedState], list[tuple[int, Any, Row]]]:
    """Inverse of :func:`encode_shard`; rejects bad magic and trailing bytes."""
    if buf[: len(_SHARD_MAGIC)] != _SHARD_MAGIC:
        raise CheckpointError("bad shard file magic (not a checkpoint shard)")
    offset = len(_SHARD_MAGIC)
    fmt, offset = decode_varint(buf, offset)
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"shard format {fmt} unsupported (this build reads format "
            f"{CHECKPOINT_FORMAT})"
        )
    count, offset = decode_varint(buf, offset)
    states: dict[Any, PartitionedState] = {}
    for _ in range(count):
        vid, offset = decode_payload(buf, offset)
        lifespan, offset = decode_interval(buf, offset)
        n_parts, offset = decode_varint(buf, offset)
        ends = []
        for _ in range(n_parts):
            end, offset = decode_varint(buf, offset)
            ends.append(end)
        values = []
        for _ in range(n_parts):
            value, offset = decode_payload(buf, offset)
            values.append(value)
        try:
            states[vid] = PartitionedState.from_parts(
                lifespan, ends, values, coalesce=coalesce
            )
        except (ValueError, AssertionError) as exc:
            raise CheckpointError(
                f"corrupt state snapshot for vertex {vid!r}: {exc}"
            ) from exc
    pending = decode_routed_batch(buf[offset:])
    return states, pending


def _encode_aggregates(aggregates: dict[str, Any]) -> bytes:
    out = bytearray(encode_varint(len(aggregates)))
    for name, value in aggregates.items():
        _encode_payload_into(name, out)
        try:
            _encode_payload_into(value, out)
        except TypeError as exc:
            raise CheckpointError(
                f"aggregate {name!r}={value!r} is not checkpoint-serializable: {exc}"
            ) from exc
    return bytes(out)


def _decode_aggregates(buf: bytes) -> dict[str, Any]:
    count, offset = decode_varint(buf, 0)
    out: dict[str, Any] = {}
    for _ in range(count):
        name, offset = decode_payload(buf, offset)
        value, offset = decode_payload(buf, offset)
        out[name] = value
    if offset != len(buf):
        raise CheckpointError("trailing bytes after aggregates")
    return out


# -- metrics snapshot ----------------------------------------------------------


def metrics_snapshot(metrics: RunMetrics) -> dict[str, Any]:
    """The deterministic portion of a :class:`RunMetrics` as JSON-safe data.

    Counters and modeled float sums round-trip exactly through JSON
    (Python serialises floats via ``repr``, which is lossless), which is
    what lets a resumed run finish with *bitwise* identical counters and
    modeled makespan.  Measured wall-times ride along for continuity but
    carry no exactness promise.  ``recovery`` is deliberately excluded:
    the resumed run accounts its own durability costs.
    """
    snap: dict[str, Any] = {
        "platform": metrics.platform,
        "algorithm": metrics.algorithm,
        "graph": metrics.graph,
        "executor": metrics.executor,
    }
    for name in _METRIC_COUNTERS:
        snap[name] = getattr(metrics, name)
    for name in _METRIC_FLOATS:
        snap[name] = getattr(metrics, name)
    snap["supersteps_detail"] = [
        dataclasses.asdict(step) for step in metrics.supersteps_detail
    ]
    return snap


def restore_metrics(snap: dict[str, Any], metrics: RunMetrics) -> RunMetrics:
    """Continue ``metrics`` — a resumed run's fresh, labelled record — from a
    snapshot: its counters, sums and superstep details, and each label the
    snapshot names (the executor stays the resuming run's)."""
    for label in ("platform", "algorithm", "graph"):
        setattr(metrics, label, snap.get(label) or getattr(metrics, label))
    for name in (*_METRIC_COUNTERS, *_METRIC_FLOATS):
        if name in snap:
            setattr(metrics, name, snap[name])
    for step in snap.get("supersteps_detail", []):
        metrics.supersteps_detail.append(SuperstepMetrics(**step))
    return metrics


# -- config fingerprint --------------------------------------------------------


def graph_fingerprint(graph) -> str:
    """Hash of the graph structure: ids, lifespans, edge topology.

    One component of :func:`config_fingerprint`, also used on its own as
    the dataset identity in the serving tier's result-cache keys
    (`repro.serve`) — two graphs with the same fingerprint produce the
    same results for any deterministic program.
    """
    digest = hashlib.sha256()
    for v in graph.vertices():
        digest.update(repr((v.vid, v.lifespan.start, v.lifespan.end)).encode())
        for e in graph.out_edges(v.vid):
            digest.update(
                repr((e.dst, e.lifespan.start, e.lifespan.end)).encode()
            )
    return digest.hexdigest()


def result_shape(cluster, config) -> dict[str, Any]:
    """What decides a run's result beyond its program and graph: the
    cluster's shape and cost models, the actual vertex→worker placement,
    and the warp / state flags of ``config`` (an ``EngineConfig``).

    The one list of these, shared by :func:`config_fingerprint` and the
    serving tier's cache keys (`repro.serve.GraphService.config_fp`).  The
    keys keep the flat spellings of the checkpoint format, and the two
    settings every run fixes (the network model on, the expansion cap)
    keep the values checkpoints were written with, so those stay valid.
    """
    warp, state = config.warp, config.state
    return {
        "num_workers": cluster.num_workers,
        # The fingerprint covers the actual vertex→worker assignment;
        # ``repr`` elided greedy's seed/slack and collided across
        # placements that shard state differently.
        "partitioner": partitioner_fingerprint(cluster.partitioner),
        "varint_encoding": cluster.varint_encoding,
        "model_network": True,
        "network": dataclasses.asdict(cluster.network),
        "compute_model": dataclasses.asdict(cluster.compute_model),
        "enable_warp_combiner": warp.enable_combiner,
        "enable_receiver_combiner": warp.enable_receiver_combiner,
        "enable_dominated_elimination": warp.enable_dominated_elimination,
        "enable_warp_suppression": warp.enable_suppression,
        "warp_suppression_threshold": warp.suppression_threshold,
        "suppression_expansion_cap": SUPPRESSION_EXPANSION_CAP,
        "coalesce_states": state.coalesce,
        "prepartition": state.prepartition_by_properties,
    }


def config_fingerprint(engine) -> str:
    """Hash of everything a resumed run must agree on with the writer.

    Covers the program identity, the graph structure (ids, lifespans, edge
    topology) and :func:`result_shape` — the simulated cluster shape and
    cost models, and every engine flag that steers the deterministic
    execution.  The *executor* and its process count are deliberately
    excluded — checkpoints are executor-portable (a serial checkpoint
    resumes under the parallel executor and vice versa).
    """
    graph = engine.graph
    payload = {
        "format": CHECKPOINT_FORMAT,
        "program": engine.program.name,
        "fixed_supersteps": engine.program.fixed_supersteps,
        "graph_digest": graph_fingerprint(graph),
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        **result_shape(engine.cluster, engine.config),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


# -- write / load --------------------------------------------------------------


def _step_dir_name(superstep: int) -> str:
    return f"step-{superstep:06d}"


def write_checkpoint(
    root: os.PathLike | str,
    *,
    superstep: int,
    snapshot: ExecutorSnapshot,
    aggregates: dict[str, Any],
    metrics: RunMetrics,
    config_hash: str,
    num_workers: int,
    worker_of: Callable[[Any], int],
    partitioner: str = "",
    exchange: str = "",
) -> CheckpointInfo:
    """Write one barrier's state under ``root`` atomically.

    States and pending messages are split per shard by ``worker_of`` (the
    cluster's vertex partitioning), one file per non-empty shard, then the
    staging directory is renamed into place so readers only ever see
    complete checkpoints.
    """
    t0 = time.perf_counter()
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    step_name = _step_dir_name(superstep)
    staging = root / f".staging-{step_name}"
    final = root / step_name
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()

    per_shard_states: dict[int, list[tuple[Any, PartitionedState]]] = {}
    for vid, state in snapshot.states.items():
        per_shard_states.setdefault(worker_of(vid), []).append((vid, state))
    per_shard_pending: dict[int, list[tuple[int, Any, Row]]] = {}
    for entry in snapshot.pending:
        per_shard_pending.setdefault(worker_of(entry[1]), []).append(entry)

    total_bytes = 0
    shards_meta: dict[str, Any] = {}
    for shard in sorted(set(per_shard_states) | set(per_shard_pending)):
        states = per_shard_states.get(shard, [])
        pending = per_shard_pending.get(shard, [])
        blob = encode_shard(states, pending)
        fname = f"shard-{shard:05d}.bin"
        (staging / fname).write_bytes(blob)
        total_bytes += len(blob)
        shards_meta[str(shard)] = {
            "file": fname,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "bytes": len(blob),
            "vertices": len(states),
            "pending": len(pending),
        }

    agg_blob = _encode_aggregates(aggregates)
    (staging / "aggregates.bin").write_bytes(agg_blob)
    total_bytes += len(agg_blob)

    manifest = {
        "format": CHECKPOINT_FORMAT,
        "superstep": superstep,
        "config_hash": config_hash,
        "partitioner": partitioner,
        "exchange": exchange,
        "algorithm": metrics.algorithm,
        "graph": metrics.graph,
        "num_workers": num_workers,
        "shards": shards_meta,
        "aggregates": {
            "file": "aggregates.bin",
            "sha256": hashlib.sha256(agg_blob).hexdigest(),
            "bytes": len(agg_blob),
        },
        "metrics": metrics_snapshot(metrics),
        "created_at": time.time(),
    }
    manifest_blob = json.dumps(manifest, indent=1, sort_keys=True).encode()
    (staging / "manifest.json").write_bytes(manifest_blob)
    total_bytes += len(manifest_blob)

    if final.exists():  # a recovery replay re-checkpointing the same step
        shutil.rmtree(final)
    os.replace(staging, final)
    return CheckpointInfo(
        path=final,
        superstep=superstep,
        bytes_written=total_bytes,
        seconds=time.perf_counter() - t0,
    )


def latest_checkpoint(root: os.PathLike | str) -> Optional[Path]:
    """The newest complete ``step-*`` directory under ``root``, if any."""
    root = Path(root)
    if not root.is_dir():
        return None
    best: Optional[tuple[int, Path]] = None
    for child in root.iterdir():
        match = _STEP_DIR.match(child.name)
        if match and (child / "manifest.json").is_file():
            step = int(match.group(1))
            if best is None or step > best[0]:
                best = (step, child)
    return best[1] if best else None


def clear_checkpoints(root: os.PathLike | str) -> int:
    """Remove stale ``step-*`` checkpoints (and staging leftovers) under
    ``root``; returns how many were removed.  Only directories matching the
    checkpoint naming are touched."""
    root = Path(root)
    if not root.is_dir():
        return 0
    removed = 0
    for child in root.iterdir():
        if _STEP_DIR.match(child.name) or child.name.startswith(".staging-step-"):
            shutil.rmtree(child)
            removed += 1
    return removed


def _verified_blob(path: Path, meta: dict[str, Any], what: str) -> bytes:
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read {what} file {path}: {exc}") from exc
    digest = hashlib.sha256(blob).hexdigest()
    if digest != meta.get("sha256"):
        raise CheckpointError(
            f"{what} file {path.name} failed its checksum "
            f"(manifest {meta.get('sha256')!r}, actual {digest!r})"
        )
    return blob


def load_checkpoint(
    path: os.PathLike | str, *, coalesce: bool = True
) -> LoadedCheckpoint:
    """Read a checkpoint back, verifying format version and checksums.

    ``path`` may be a ``step-*`` directory or a checkpoint root (in which
    case the latest step is loaded).  Pending messages are re-merged
    across shards in shard order, stable-sorted by sender sequence — the
    exact delivery order a live barrier would have produced.
    """
    path = Path(path)
    if not (path / "manifest.json").is_file():
        latest = latest_checkpoint(path)
        if latest is None:
            raise CheckpointError(
                f"no checkpoint found at {path} (expected a step-* directory "
                "or a checkpoint root containing one)"
            )
        path = latest
    try:
        manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable manifest in {path}: {exc}") from exc
    fmt = manifest.get("format")
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint format {fmt!r} unsupported (this build reads format "
            f"{CHECKPOINT_FORMAT})"
        )

    states: dict[Any, PartitionedState] = {}
    pending: list[tuple[int, Any, Row]] = []
    shards = manifest.get("shards", {})
    for shard_key in sorted(shards, key=int):
        meta = shards[shard_key]
        blob = _verified_blob(path / meta["file"], meta, f"shard {shard_key}")
        try:
            shard_states, shard_pending = decode_shard(blob, coalesce=coalesce)
        except (ValueError, IndexError) as exc:
            raise CheckpointError(
                f"corrupt shard file {meta['file']}: {exc}"
            ) from exc
        states.update(shard_states)
        pending.extend(shard_pending)
    pending.sort(key=itemgetter(0))  # stable: per-shard order preserved

    agg_meta = manifest.get("aggregates", {})
    aggregates: dict[str, Any] = {}
    if agg_meta:
        blob = _verified_blob(path / agg_meta["file"], agg_meta, "aggregates")
        try:
            aggregates = _decode_aggregates(blob)
        except (ValueError, IndexError) as exc:
            raise CheckpointError(f"corrupt aggregates file: {exc}") from exc

    return LoadedCheckpoint(
        path=path,
        superstep=manifest["superstep"],
        config_hash=manifest.get("config_hash", ""),
        algorithm=manifest.get("algorithm", ""),
        graph=manifest.get("graph", ""),
        num_workers=manifest.get("num_workers", 0),
        states=states,
        pending=pending,
        aggregates=aggregates,
        metrics=manifest.get("metrics", {}),
        partitioner=manifest.get("partitioner", ""),
        exchange=manifest.get("exchange", ""),
    )


# -- one engine run's durability -----------------------------------------------


class RunCheckpoints:
    """What `IntervalCentricEngine.run` needs of this module, built only by
    a run that checkpoints or resumes: the config fingerprint, the validated
    checkpoint it resumes from (``resume``), the barrier writes, the
    rollback point after a worker death, and the directory it owns."""

    def __init__(self, engine, resume_from=None):
        self.engine = engine
        self.every = engine.config.checkpoint.every or None  # 0 disables
        self.config_hash = config_fingerprint(engine)
        self.resume = self.load(resume_from) if resume_from is not None else None
        self.dir = engine.config.checkpoint.dir
        self._own_dir: Optional[str] = None
        if self.every is not None:
            if self.dir is None:
                import tempfile

                self._own_dir = self.dir = tempfile.mkdtemp(prefix="repro-ckpt-")
            elif resume_from is None:
                # A fresh checkpointed run owns its directory: stale steps
                # from an earlier run (e.g. SCC's peeling sub-runs sharing
                # one dir) must not be mistaken for this run's rollback points.
                clear_checkpoints(self.dir)

    def load(self, path) -> LoadedCheckpoint:
        engine = self.engine
        ckpt = load_checkpoint(path, coalesce=engine.config.state.coalesce)
        current = partitioner_fingerprint(engine.cluster.partitioner)
        # Checked before the opaque config hash: a partitioner swap is the
        # one mismatch a user can read and act on directly, and a resume
        # under a different vertex→worker map would silently scramble shard
        # ownership.
        if ckpt.partitioner and ckpt.partitioner != current:
            raise CheckpointError(
                f"checkpoint {ckpt.path} was written under partitioner "
                f"{ckpt.partitioner} but this engine runs under {current}; "
                "refusing to resume across a different vertex-to-worker "
                "assignment"
            )
        if ckpt.exchange and ckpt.exchange != EXCHANGE_FINGERPRINT:
            raise CheckpointError(
                f"checkpoint {ckpt.path} carries exchange data-plane "
                f"fingerprint {ckpt.exchange!r} but this build speaks "
                f"{EXCHANGE_FINGERPRINT!r}; refusing to resume across "
                "incompatible routed-batch wire formats"
            )
        if ckpt.config_hash != self.config_hash:
            raise CheckpointError(
                f"checkpoint {ckpt.path} was written by a different "
                f"configuration (config hash {ckpt.config_hash[:12]}… vs "
                f"this engine's {self.config_hash[:12]}…); refusing to resume"
            )
        if set(ckpt.states) != set(engine._seq):
            raise CheckpointError(
                f"checkpoint {ckpt.path} covers {len(ckpt.states)} vertices "
                f"but the graph has {len(engine._seq)}"
            )
        return ckpt

    def rollback_point(self) -> Optional[LoadedCheckpoint]:
        """Where a replay after a worker death starts: the newest checkpoint
        this run wrote, else the one it resumed from (``None``: superstep 1)."""
        latest = latest_checkpoint(self.dir) if self.every is not None else None
        return self.load(latest) if latest is not None else self.resume

    def after_superstep(self, superstep: int, executor, metrics, recovery) -> None:
        """Write the barrier's checkpoint when ``superstep`` is due one."""
        if self.every is None or superstep % self.every:
            return
        engine = self.engine
        cluster = engine.cluster
        info = write_checkpoint(
            self.dir,
            superstep=superstep,
            snapshot=executor.snapshot(),
            aggregates=dict(engine._aggregates),
            metrics=metrics,
            config_hash=self.config_hash,
            num_workers=cluster.num_workers,
            worker_of=cluster.worker_of,
            partitioner=partitioner_fingerprint(cluster.partitioner),
            exchange=EXCHANGE_FINGERPRINT,
        )
        recovery.checkpoints_written += 1
        recovery.checkpoint_bytes += info.bytes_written
        recovery.checkpoint_seconds += info.seconds
        if engine._events is not None:
            engine._events.emit(
                "checkpoint_write",
                superstep=superstep,
                wall={
                    "path": str(info.path),
                    "bytes": info.bytes_written,
                    "seconds": info.seconds,
                },
            )

    def close(self) -> None:
        """Remove the temporary directory the run made for itself."""
        if self._own_dir is not None:
            shutil.rmtree(self._own_dir, ignore_errors=True)
