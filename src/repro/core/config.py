"""Engine configuration: one frozen dataclass tree instead of 16 kwargs.

:class:`EngineConfig` groups the :class:`~repro.core.engine.IntervalCentricEngine`
knobs the way the paper discusses them — warp/combiner optimisations
(Sec. VI), state partitioning (Sec. IV footnote 2), execution backend,
durability, and observability — and is **frozen**: a config can be shared
between engines (SCC's peeling loop, the streaming engine's refreshes)
without one run mutating another's settings.

An option has two spellings, both in one table (``_OPTION_MAP``): the flat
name that ``options`` dicts and CLI flags use, and its config field.
Nothing copies a field onto the engine: the superstep loop, the worker
runtimes (each :class:`~repro.core.engine.VertexProcessor` takes the
:class:`WarpConfig`), checkpointing and recovery read ``engine.config``.
Values no caller varied are constants where they are used: the
warp-suppression expansion cap
(``repro.core.engine.SUPPRESSION_EXPANSION_CAP``), the partitioner seed and
greedy balance budget (``build_partitioner``'s defaults), and the network
cost model, which every run applies.

Environment resolution lives in exactly one documented place,
:meth:`EngineConfig.from_env`:

============================  =================================================
``REPRO_CHECKPOINT_EVERY``    non-negative int → ``checkpoint.every`` (0 = off)
``REPRO_CHECKPOINT_DIR``      path → ``checkpoint.dir``
``REPRO_SERVE_CONCURRENCY``   positive int → ``serve.max_concurrency``
``REPRO_SERVE_QUEUE_DEPTH``   non-negative int → ``serve.max_queue_depth``
``REPRO_SERVE_CACHE_BYTES``   non-negative int → ``serve.cache_bytes``
``REPRO_SERVE_TIMEOUT_S``     positive float → ``serve.default_timeout_s``
============================  =================================================

Each variable configures a deployment — where checkpoints go and how
often, how large a serving daemon is — and is validated eagerly: a typo
fails loudly, naming the variable, instead of silently running the wrong
configuration.  A config built by plain ``EngineConfig(...)`` is hermetic:
nothing downstream of it reads these variables, and the environment is
consulted only when no config is given (``config=None`` → ``from_env()``).
No variable picks the executor, the fault plan, the partitioner or the
graph store: those are options of a job (``with_options``, the CLI
flags), and an engine runs on the graph it is given.

Observability settings (``observability``) never influence the computation
and are deliberately excluded from the checkpoint config fingerprint
(`repro.runtime.checkpoint.config_fingerprint`).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

__all__ = [
    "CheckpointConfig",
    "EngineConfig",
    "ExchangeConfig",
    "ExecutorConfig",
    "ObservabilityConfig",
    "PartitioningConfig",
    "ServeConfig",
    "StateConfig",
    "WarpConfig",
]

#: Duplicated from ``repro.runtime.partitioner.PARTITIONER_KINDS`` so config
#: validation stays import-cycle-free; ``test_cluster_partitioner`` pins the
#: two tuples equal.
_PARTITIONER_KINDS = ("hash", "range", "greedy", "interval_greedy")


@dataclass(frozen=True)
class WarpConfig:
    """Time-warp and combiner optimisations (paper Sec. VI).

    Defaults match the paper's experiments: all combiners on, warp
    suppression on with a 0.70 unit-message threshold.
    """

    #: Apply the program's combiner inline during the warp merge.
    enable_combiner: bool = True
    #: Fold identical-interval messages receiver-side before the warp.
    enable_receiver_combiner: bool = True
    #: Drop messages dominated by another under a selective combiner.
    enable_dominated_elimination: bool = True
    #: Skip warp for time-point execution on unit-message-heavy vertices.
    enable_suppression: bool = True
    #: Minimum unit-length message fraction that triggers suppression.
    suppression_threshold: float = 0.70


@dataclass(frozen=True)
class StateConfig:
    """Partitioned-state handling."""

    #: Merge adjacent equal-valued state partitions after updates.
    coalesce: bool = True
    #: Pre-split states on static vertex-property boundaries (paper
    #: footnote 2: the *interval property vertex* computing unit).  Off by
    #: default: properties are optional and coalescing undoes unused splits.
    prepartition_by_properties: bool = False


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution backend selection.

    ``kind`` is ``"serial"``, ``"parallel"``, an executor instance, or
    ``None``, which means serial.  ``fault_plan`` is a spec string
    (``kill:W@S`` / ``seed:N``) or a
    :class:`~repro.runtime.faults.FaultPlan`; spec strings are parsed into
    a fresh plan per run so one config can arm many runs.
    """

    kind: Any = None
    processes: Optional[int] = None
    fault_plan: Any = None

    def __post_init__(self):
        if isinstance(self.kind, str) and self.kind not in ("serial", "parallel"):
            raise ValueError(
                f"executor kind {self.kind!r} unknown (expected 'serial' or 'parallel')"
            )
        if self.processes is not None and self.processes < 1:
            raise ValueError(
                f"executor processes must be >= 1, got {self.processes}"
            )


@dataclass(frozen=True)
class ExchangeConfig:
    """Parallel barrier data plane (`repro.runtime.executor`).

    Cross-process message batches ride each worker's step report to the
    master, which routes them on with the next step command.  ``combine``
    enables count-preserving sender-side combining for selective combiners
    (results stay bit-identical either way; the serial executor ignores
    this group entirely).
    """

    combine: bool = True


@dataclass(frozen=True)
class PartitioningConfig:
    """Vertex→worker placement (`repro.runtime.partitioner`).

    ``kind=None`` keeps whatever partitioner the cluster already carries
    (the historical CRC32 hash partitioner by default); naming a kind makes
    the engine build that partitioner for its graph at construction time,
    with the factory's defaults (seed 0; the greedy kinds' LDG balance
    budget of 1.1, after Stanton & Kliot).
    """

    kind: Optional[str] = None

    def __post_init__(self):
        if self.kind is not None and self.kind not in _PARTITIONER_KINDS:
            raise ValueError(
                f"partitioner kind {self.kind!r} unknown "
                f"(expected one of {', '.join(_PARTITIONER_KINDS)})"
            )


@dataclass(frozen=True)
class CheckpointConfig:
    """Barrier-synchronized durability (`repro.runtime.checkpoint`).

    ``every=None`` leaves checkpointing off (``from_env`` fills it from
    ``REPRO_CHECKPOINT_EVERY``); ``every=0`` disables it *explicitly*,
    overriding any environment default.
    """

    every: Optional[int] = None
    dir: Optional[str] = None
    #: Worker-process deaths absorbed by rollback before giving up.
    max_restarts: int = 2

    def __post_init__(self):
        if self.every is not None and self.every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.every}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")


@dataclass(frozen=True)
class ServeConfig:
    """The query-serving tier (`repro.serve`).

    Governs a long-lived :class:`~repro.serve.GraphService`: how many
    queries may execute concurrently (``max_concurrency`` warm execution
    lanes, each with its own resident executor), how many may wait behind
    them (``max_queue_depth``; exceeding it rejects with
    :class:`~repro.serve.QueueFullError`), the result cache's byte budget
    (``cache_bytes``; 0 disables caching), and the default per-query
    deadline (``default_timeout_s``; ``None`` means no deadline — a query
    can still set its own).  Like observability, none of this influences
    what a query *computes*, only how the service schedules and caches it.
    """

    max_concurrency: int = 1
    max_queue_depth: int = 8
    cache_bytes: int = 16 * 1024 * 1024
    default_timeout_s: Optional[float] = None

    def __post_init__(self):
        if self.max_concurrency < 1:
            raise ValueError(
                f"serve max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.max_queue_depth < 0:
            raise ValueError(
                f"serve max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if self.cache_bytes < 0:
            raise ValueError(
                f"serve cache_bytes must be >= 0, got {self.cache_bytes}"
            )
        if self.default_timeout_s is not None and self.default_timeout_s <= 0:
            raise ValueError(
                f"serve default_timeout_s must be positive, "
                f"got {self.default_timeout_s}"
            )


@dataclass(frozen=True)
class ObservabilityConfig:
    """What the run reports, never what it computes.

    ``observers`` are :class:`~repro.obs.observers.RunObserver` instances
    receiving every structured :class:`~repro.obs.events.RunEvent`;
    ``trace_path`` appends the events as JSON-lines; ``tracer`` is the
    vertex-level :class:`~repro.core.tracing.ExecutionTracer` detail layer
    (serial executor only).  None of this enters the checkpoint config
    fingerprint — a traced run can resume an untraced run's checkpoint.
    """

    observers: tuple = ()
    trace_path: Optional[str] = None
    tracer: Any = None

    @property
    def enabled(self) -> bool:
        """Whether any structured-event consumer is configured."""
        return bool(self.observers) or self.trace_path is not None

    def merged_with(self, other: "ObservabilityConfig") -> "ObservabilityConfig":
        """Combine two observability configs (``other`` wins on scalars)."""
        return ObservabilityConfig(
            observers=(*self.observers, *other.observers),
            trace_path=other.trace_path or self.trace_path,
            tracer=other.tracer if other.tracer is not None else self.tracer,
        )

    @classmethod
    def coerce(cls, observe: Any) -> "ObservabilityConfig":
        """Normalise the facade's ``observe=`` argument.

        Accepts an :class:`ObservabilityConfig`, a single observer (any
        object with ``on_event``), a trace-file path, or an iterable of
        observers.
        """
        if observe is None:
            return cls()
        if isinstance(observe, cls):
            return observe
        if isinstance(observe, (str, os.PathLike)):
            return cls(trace_path=os.fspath(observe))
        if hasattr(observe, "on_event"):
            return cls(observers=(observe,))
        try:
            observers = tuple(observe)
        except TypeError:
            raise TypeError(
                f"cannot interpret observe={observe!r}: expected an "
                "ObservabilityConfig, a RunObserver, a trace path, or an "
                "iterable of observers"
            ) from None
        for item in observers:
            if not hasattr(item, "on_event"):
                raise TypeError(
                    f"observer {item!r} has no on_event method"
                )
        return cls(observers=observers)


# -- environment parsing (the one documented place) ----------------------------


def _env_int(env: Mapping[str, str], name: str, *, minimum: int) -> Optional[int]:
    raw = env.get(name)
    if not raw:
        return None
    kind = "positive" if minimum > 0 else "non-negative"
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"invalid {name}={raw!r} (expected a {kind} integer)"
        ) from None
    if value < minimum:
        raise ValueError(f"invalid {name}={raw!r} (expected a {kind} integer)")
    return value


def _env_float(
    env: Mapping[str, str], name: str, *, positive: bool = True
) -> Optional[float]:
    raw = env.get(name)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"invalid {name}={raw!r} (expected a positive number)"
        ) from None
    if positive and value <= 0:
        raise ValueError(f"invalid {name}={raw!r} (expected a positive number)")
    return value


def _serve_queue_depth_env(env: Mapping[str, str]) -> int:
    value = _env_int(env, "REPRO_SERVE_QUEUE_DEPTH", minimum=0)
    return ServeConfig.max_queue_depth if value is None else value


def _serve_cache_bytes_env(env: Mapping[str, str]) -> int:
    value = _env_int(env, "REPRO_SERVE_CACHE_BYTES", minimum=0)
    return ServeConfig.cache_bytes if value is None else value


#: Flat engine option → (config group, field).  The one mapping table
#: behind ``options`` / ``icm_options`` dicts and the CLI flags.
_OPTION_MAP: dict[str, tuple[Optional[str], str]] = {
    "enable_warp_combiner": ("warp", "enable_combiner"),
    "enable_receiver_combiner": ("warp", "enable_receiver_combiner"),
    "enable_dominated_elimination": ("warp", "enable_dominated_elimination"),
    "enable_warp_suppression": ("warp", "enable_suppression"),
    "warp_suppression_threshold": ("warp", "suppression_threshold"),
    "coalesce_states": ("state", "coalesce"),
    "prepartition_by_vertex_properties": ("state", "prepartition_by_properties"),
    "executor": ("executor", "kind"),
    "executor_processes": ("executor", "processes"),
    "fault_plan": ("executor", "fault_plan"),
    "exchange_combine": ("exchange", "combine"),
    "partitioner": ("partitioning", "kind"),
    "checkpoint_every": ("checkpoint", "every"),
    "checkpoint_dir": ("checkpoint", "dir"),
    "max_restarts": ("checkpoint", "max_restarts"),
    "serve_max_concurrency": ("serve", "max_concurrency"),
    "serve_queue_depth": ("serve", "max_queue_depth"),
    "serve_cache_bytes": ("serve", "cache_bytes"),
    "serve_timeout_s": ("serve", "default_timeout_s"),
    "tracer": ("observability", "tracer"),
    "trace_path": ("observability", "trace_path"),
    "max_supersteps": (None, "max_supersteps"),
}


@dataclass(frozen=True)
class EngineConfig:
    """The complete, immutable configuration of an interval-centric run."""

    warp: WarpConfig = field(default_factory=WarpConfig)
    state: StateConfig = field(default_factory=StateConfig)
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    exchange: ExchangeConfig = field(default_factory=ExchangeConfig)
    partitioning: PartitioningConfig = field(default_factory=PartitioningConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)
    #: Safety valve; exceeding it raises ``RuntimeError``.
    max_supersteps: int = 100_000

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> "EngineConfig":
        """Defaults plus every ``REPRO_*`` runtime variable, validated.

        This is the *only* place the engine stack reads its environment
        knobs; anything built here is explicit from then on.
        """
        if env is None:
            env = os.environ
        return cls(
            checkpoint=CheckpointConfig(
                every=_env_int(env, "REPRO_CHECKPOINT_EVERY", minimum=0),
                dir=env.get("REPRO_CHECKPOINT_DIR") or None,
            ),
            serve=ServeConfig(
                max_concurrency=_env_int(
                    env, "REPRO_SERVE_CONCURRENCY", minimum=1
                ) or ServeConfig.max_concurrency,
                max_queue_depth=_serve_queue_depth_env(env),
                cache_bytes=_serve_cache_bytes_env(env),
                default_timeout_s=_env_float(env, "REPRO_SERVE_TIMEOUT_S"),
            ),
        )

    def with_options(self, **options: Any) -> "EngineConfig":
        """A copy with flat engine-option overrides applied.

        ``options`` uses the flat option names of ``_OPTION_MAP``
        (``executor``, ``checkpoint_every``, ``enable_warp_combiner``, …) —
        the programmatic twin of the CLI flags and of ``icm_options`` dicts.
        Unknown names raise ``TypeError``.
        """
        if not options:
            return self
        group_overrides: dict[str, dict[str, Any]] = {}
        top_overrides: dict[str, Any] = {}
        for name, value in options.items():
            target = _OPTION_MAP.get(name)
            if target is None:
                raise TypeError(f"unknown engine option {name!r}")
            group, fld = target
            if group is None:
                top_overrides[fld] = value
            else:
                group_overrides.setdefault(group, {})[fld] = value
        replacements: dict[str, Any] = dict(top_overrides)
        for group, fields in group_overrides.items():
            replacements[group] = dataclasses.replace(
                getattr(self, group), **fields
            )
        return dataclasses.replace(self, **replacements)
