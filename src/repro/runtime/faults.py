"""Deterministic fault injection and the failure taxonomy for parallel runs.

Giraph's durability story is *checkpoint + restart*: worker state and
in-flight messages are checkpointed at BSP barriers, a failed worker is
detected by the master, and the computation restarts from the last
checkpoint.  `repro.runtime.checkpoint` provides the checkpoints; this
module provides the failures — on purpose, so the recovery path is
exercised by tests and CI rather than waiting for a real crash.

A :class:`FaultPlan` is a list of "kill worker *w* at superstep *s*"
actions.  The master is process 0 and a P-process run forks processes
1 … P−1; action *w* targets forked process ``1 + w % (P−1)``, so the
master itself is never a victim and with P = 1 a plan does nothing.  The
parallel executor's worker host (:class:`~repro.runtime.workers.WorkerHost`)
consults the plan at the top of every superstep and delivers a real
``SIGKILL`` to the victim — not
an exception, not a mock: the process dies mid-run and the master
discovers it through the broken pipe, exactly as it would a genuine crash.
Each action fires at most once so that the replay after recovery does not
re-kill the respawned worker.  The other side is :func:`recover`:
`IntervalCentricEngine.run` hands it each death, and it counts and
reports the death and picks the checkpoint the replay starts from.  This
module is loaded only by a run with a fault plan or a dead worker.

Failure taxonomy (defined in `repro.errors`, importable from here)
-------------------------------------------------------------------
``WorkerDiedError``
    A worker *process* vanished (nonzero exit / killed / pipe EOF).  Raised
    by the executor with the process number (1 … P−1), last superstep and
    exit code;
    recoverable when checkpointing gives the engine somewhere to roll back
    to (the engine also recovers checkpoint-less runs by replaying from
    superstep 1).
``UnrecoverableRunError``
    Recovery was attempted and exhausted (retry limit) or is impossible;
    carries the final underlying failure as ``__cause__``.

User-program exceptions are *not* faults: they travel back from workers as
the original exception (wrapped in ``IcmProgramError`` by the processor)
and are never retried — a deterministic program bug would fail identically
on every replay.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass, field

from repro.errors import UnrecoverableRunError, WorkerDiedError

__all__ = [
    "FaultAction",
    "FaultPlan",
    "UnrecoverableRunError",
    "WorkerDiedError",
    "recover",
]


@dataclass
class FaultAction:
    """Kill forked worker ``worker`` at the start of ``superstep``.

    ``worker`` indexes the executor's *forked* processes (0-based: action
    ``w`` of a P-process run kills process ``1 + w % (P−1)``); plans
    written against more processes than a run actually has wrap via
    modulo, so a seeded plan stays meaningful at any scale.

    ``phase`` refines *when* within the superstep the kill lands: the
    default ``""`` is the historical top-of-superstep SIGKILL from the
    master; ``"exchange"`` makes the victim kill itself mid barrier
    exchange — after its batches are encoded and before its report
    reaches the master, the hardest moment for recovery to get right.
    """

    worker: int
    superstep: int
    phase: str = ""
    fired: bool = field(default=False, compare=False)


class FaultPlan:
    """A deterministic schedule of worker kills.

    Parameters
    ----------
    actions:
        The kill schedule.  Each action fires at most once per plan
        instance — recovery replays the killed superstep, and re-killing
        the respawned worker forever would make every plan unrecoverable.
    """

    def __init__(self, actions: list[FaultAction]):
        self.actions = list(actions)

    @classmethod
    def kill(cls, worker: int, superstep: int) -> "FaultPlan":
        """Single-kill plan: ``kill worker <worker> at superstep <superstep>``."""
        return cls([FaultAction(worker, superstep)])

    @classmethod
    def seeded(cls, seed: int, *, kills: int = 1, max_superstep: int = 6) -> "FaultPlan":
        """A reproducible random plan (chaos testing's coin, minted once).

        Draws ``kills`` distinct supersteps in ``[2, max_superstep]`` (the
        first superstep is the init flood; killing later exercises real
        rollback) and a worker rank for each from ``random.Random(seed)``.
        """
        rng = random.Random(seed)
        hi = max(2, max_superstep)
        steps = rng.sample(range(2, hi + 1), min(kills, hi - 1))
        return cls([FaultAction(rng.randrange(64), s) for s in sorted(steps)])

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a fault-plan spec (the ``fault_plan`` engine option).

        ``"kill:1@3"`` kills forked process ``1 + 1 % (P−1)`` at superstep 3
        (comma-separate for several), ``"kill:1@3:exchange"`` kills it mid
        barrier exchange
        instead of at the top of the superstep, ``"seed:42"`` builds
        :meth:`seeded` with that seed.
        """
        kind, sep, rest = spec.partition(":")
        if not sep:
            raise ValueError(
                f"invalid fault plan {spec!r} (expected 'kill:W@S[,W@S...]' or 'seed:N')"
            )
        if kind == "seed":
            try:
                return cls.seeded(int(rest))
            except ValueError:
                raise ValueError(
                    f"invalid fault plan seed {rest!r} in {spec!r} (expected an integer)"
                ) from None
        if kind == "kill":
            actions = []
            for part in rest.split(","):
                worker_s, sep, step_s = part.partition("@")
                step_s, _, phase = step_s.partition(":")
                try:
                    if not sep or phase not in ("", "exchange"):
                        raise ValueError
                    actions.append(FaultAction(int(worker_s), int(step_s), phase))
                except ValueError:
                    raise ValueError(
                        f"invalid kill spec {part!r} in {spec!r} "
                        "(expected 'W@S' or 'W@S:exchange')"
                    ) from None
            return cls(actions)
        raise ValueError(
            f"unknown fault plan kind {kind!r} in {spec!r} (expected 'kill' or 'seed')"
        )

    def victims(self, superstep: int, num_procs: int, phase: str = "") -> list[int]:
        """Indexes into ``num_procs`` forked processes to kill at
        ``superstep`` in ``phase``; marks them fired."""
        out = []
        for action in self.actions:
            if (
                action.fired
                or action.superstep != superstep
                or action.phase != phase
            ):
                continue
            action.fired = True
            out.append(action.worker % num_procs)
        return sorted(set(out))

    def pending(self) -> int:
        """Actions that have not fired yet."""
        return sum(1 for a in self.actions if not a.fired)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{a.worker}@{a.superstep}"
            f"{':' + a.phase if a.phase else ''}{'*' if a.fired else ''}"
            for a in self.actions
        )
        return f"FaultPlan({inner})"


def kill_process(pid: int) -> None:
    """Deliver an uncatchable SIGKILL — the injected fault is a real death."""
    os.kill(pid, signal.SIGKILL)


def recover(engine, died: WorkerDiedError, durable, recovery):
    """Absorb one worker death of ``engine``'s run: count and report it,
    then return the checkpoint the replay starts from (``None``: superstep 1,
    or the checkpoint the run resumed from — ``durable`` is the run's
    `repro.runtime.checkpoint.RunCheckpoints`, ``None`` when it neither
    checkpoints nor resumes).  Raises :class:`UnrecoverableRunError` once
    ``max_restarts`` replays are spent."""
    events = engine._events
    recovery.restarts += 1
    if events is not None:
        events.emit(
            "worker_death",
            superstep=died.superstep,
            data={"worker": died.worker},
            wall={"exitcode": died.exitcode},
        )
    limit = engine.config.checkpoint.max_restarts
    if recovery.restarts > limit:
        raise UnrecoverableRunError(
            f"worker failure persisted after {limit} "
            f"restart(s): {died}"
        ) from died
    t0 = time.perf_counter()
    start = durable.rollback_point() if durable is not None else None
    rollback_to = start.superstep if start is not None else 0
    replayed = max(0, died.superstep - rollback_to)
    recovery.replayed_supersteps += replayed
    recovery.recovery_seconds += time.perf_counter() - t0
    if events is not None:
        events.emit(
            "rollback",
            superstep=died.superstep,
            data={"to_superstep": rollback_to, "replayed_supersteps": replayed},
        )
    return start
