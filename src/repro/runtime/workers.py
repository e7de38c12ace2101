"""The worker host: processes 1 … P−1 of a P-process run, seen from the master.

:class:`~repro.runtime.executor.ParallelExecutor` composes a
:class:`WorkerHost` only when a run has P ≥ 2; a serial run never
imports this module, ``multiprocessing`` or ``pickle``.  Everything that
touches another process lives here: the fork, the worker's command loop
(:func:`_worker_main`), the pipes, the injected kills, the cross-process
collect / snapshot / restore and the teardown.  Runtime 0 stays in the
master and is handed in by the executor.

A host is a *worker group* and outlives its run: the next run with the
same P on the same graph, unchanged since the fork (its ``generation``),
sends the idle workers a ``begin`` — no fork, no join, no page copied on
write again.  At most two groups stay idle (LD runs on the reversed graph),
stopped at LRU eviction and by a ``weakref.finalize`` on their graph (at
its death or at exit); none is kept after a worker death or an abort.
"""

from __future__ import annotations

import io
import multiprocessing as mp
import multiprocessing.util  # noqa: F401 - its exit hook runs after the finalizers
import os
import pickle
import stat
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from operator import itemgetter
from typing import Any, Optional

from repro.errors import WorkerDiedError

from .executor import _ShardPayload, _WorkerRuntime

#: Idle groups by (graph id, P, start method), least recently used first.
_IDLE: "OrderedDict[tuple, WorkerHost]" = OrderedDict()
_MAX_IDLE = 2  # LD runs on the reversed graph: a pass alternates two graphs
_LOCK = threading.Lock()


def _begin(blob: bytes, resident: dict) -> _WorkerRuntime:
    """A resident worker's next runtime, from a ``begin`` command's payload."""
    unpickler = pickle.Unpickler(io.BytesIO(blob))
    unpickler.persistent_load = resident.__getitem__
    return _WorkerRuntime(unpickler.load())


def _drop_inherited_sockets(keep: int) -> None:
    """Point every socket a fork inherited, but ``keep``, at ``/dev/null``:
    else a command pipe sees no EOF when the master dies, nor a peer when
    the master closes a connection.  ``dup2`` keeps each number taken."""
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in map(int, os.listdir("/dev/fd")):
        try:
            if fd > 2 and fd not in (keep, devnull) and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(devnull, fd)
        except OSError:  # the listing's own descriptor, gone by now
            pass
    os.close(devnull)


def _worker_main(payload: _ShardPayload, conn) -> None:
    """The run its fork carried (a runtime that cannot be built ends the
    worker), then ``begin`` … ``end`` per later run until ``stop`` or EOF."""
    _drop_inherited_sockets(conn.fileno())
    resident = {"graph": payload.graph, "seq": payload.seq}
    try:
        runtime = _WorkerRuntime(payload)
    except BaseException:
        conn.send(("error", traceback.format_exc(), None))
        return
    while True:
        t_wait = time.perf_counter()
        try:
            cmd = conn.recv()
        except EOFError:
            break
        # Idle time blocked on the master's next command — the barrier
        # wait preceding whatever superstep this command starts.
        wait = time.perf_counter() - t_wait
        op = cmd[0]
        if op == "stop":
            break
        try:
            if op == "begin":
                runtime = None
                runtime, result = _begin(cmd[1], resident), None
            elif op == "step":
                runtime.barrier_wait = wait
                result = runtime.step(*cmd[1:])
            elif op == "end":
                result = runtime.collect()
                runtime.contexts.clear()
                runtime = None
            elif op == "snapshot":
                result = {
                    "states": runtime.collect(),
                    "pending": runtime.pending_entries(),
                }
            else:
                raise RuntimeError(f"unknown worker command {op!r}")
        except BaseException as exc:
            try:
                pickle.dumps(exc)
            except Exception:
                exc = None
            conn.send(("error", traceback.format_exc(), exc))
        else:
            conn.send(("ok", result))
    conn.close()


def _reap(key) -> None:
    """A graph died or the interpreter exits: stop its idle group, lock-free."""
    host = _IDLE.pop(key, None)
    if host is not None:
        host.stop(quiet=True)


class WorkerHost:
    """A worker group: forked processes 1 … P−1 and the master's pipe ends
    to them (``procs[p - 1]`` is process ``p``), plus the routed batches
    waiting for each process's next step (``inbound[p]``; runtime 0's
    included).  :meth:`acquire` hands one to a run; :meth:`close` parks it
    idle or stops it.

    ``fault_plan`` (`repro.runtime.faults`) schedules real SIGKILLs of
    forked processes; runtime 0 is the master itself and is never a victim.
    """

    def __init__(self, fault_plan=None):
        self.fault_plan = fault_plan
        self.procs: list = []
        self.conns: list = []
        self.inbound: list[list] = []
        self.last_superstep = 0
        #: Key and graph generation at fork (no key: no generation, no park).
        self._key: Optional[tuple] = None
        self._generation: Any = None
        self._finalizer: Optional[weakref.finalize] = None

    @classmethod
    def acquire(cls, engine, shard_to_proc, per_states, rescatter, warm,
                *, combine: bool, fault_plan=None) -> "WorkerHost":
        """The idle group this graph's last run left, if it still fits and the
        run pickles, else a new fork (a dead graph's id leaves ``_IDLE``)."""
        graph = engine.graph
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
        generation = getattr(graph, "generation", None)
        key = generation is not None and (id(graph), len(per_states), ctx.get_start_method())
        with _LOCK:
            host = _IDLE.pop(key, None)
        if host is not None:
            if host._generation != generation or not all(p.is_alive() for p in host.procs):
                host.stop(quiet=True)
            elif host._begin(engine, shard_to_proc, per_states, rescatter, warm, combine):
                host.fault_plan = fault_plan
                return host
        host = cls(fault_plan)
        host.fork(engine, shard_to_proc, per_states, rescatter, warm, combine, ctx)
        if key:
            host._key, host._generation = key, generation
            host._finalizer = weakref.finalize(graph, _reap, key)
        return host

    def fork(self, engine, shard_to_proc, per_states, rescatter, warm,
             combine: bool, ctx) -> None:
        """Start processes 1 … P−1, each with its share of the states
        handed over (a cold run's: none — each derives its own).

        fork inherits the graph/program/states copy-on-write — no pickling
        of the (potentially large) payload; spawn platforms pickle it.
        """
        self.inbound = [[] for _ in per_states]
        if ctx.get_start_method() != "fork":
            # Spawn pickles the payload per worker.  A compact graph moves
            # its buffer into shared memory first, so the pickle carries the
            # segment name (a mapped one pickles as its path; a heap graph
            # is copied).
            share = getattr(engine.graph, "ensure_shared", None)
            if share is not None:
                share()
        else:
            # Complete the graph's piece index before forking: the workers
            # inherit it copy-on-write instead of each rebuilding its share
            # (mapped usrn(4.0), 9 024 edges: 30 ms; 120 ms on ITGR v2).
            worker_of = engine.cluster.partitioner.worker_of
            for vid in engine._seq:
                if shard_to_proc[worker_of(vid)]:
                    engine.graph.piece_indexes(vid)
        for p in range(1, len(per_states)):
            parent_conn, child_conn = ctx.Pipe()
            payload = _ShardPayload.of(engine, shard_to_proc, p, per_states[p],
                                       rescatter, warm, combine=combine)
            proc = ctx.Process(target=_worker_main, args=(payload, child_conn), daemon=True)
            proc.start()
            child_conn.close()
            self.procs.append(proc)
            self.conns.append(parent_conn)

    def _begin(self, engine, shard_to_proc, per_states, rescatter, warm,
               combine: bool) -> bool:
        """Ship each worker what it cannot derive: its share of the states
        handed over, not the graph or ``seq`` (persistent ids for its copies,
        wherever they are referenced).  ``False`` (parked or aborted) if it
        fails to pickle or a worker to load it (a class defined after the
        fork)."""
        ids = {id(engine.graph): "graph", id(engine._seq): "seq"}
        blobs = []
        try:
            for p in range(1, len(per_states)):
                buf = io.BytesIO()
                pickler = pickle.Pickler(buf, pickle.HIGHEST_PROTOCOL)
                pickler.persistent_id = lambda obj: ids.get(id(obj))
                pickler.dump(_ShardPayload.of(
                    engine, shard_to_proc, p, per_states[p], rescatter, warm,
                    combine=combine,
                ))
                blobs.append(buf.getvalue())
        except Exception:  # the run does not pickle: the group stays idle
            self._park()
            return False
        try:
            for p, blob in enumerate(blobs, 1):
                self._send(p, ("begin", blob))
            self._recv_all()
        except Exception:  # a worker is gone, or cannot load the payload
            self.abort()
            return False
        self.inbound = [[] for _ in per_states]
        return True

    def _park(self) -> None:
        """Idle until its graph's next run, evicting an older group of the
        same key and the least recently used beyond two."""
        with _LOCK:
            evicted = [_IDLE.pop(self._key)] if self._key in _IDLE else []
            _IDLE[self._key] = self
            while len(_IDLE) > _MAX_IDLE:
                evicted.append(_IDLE.popitem(last=False)[1])
        for host in evicted:
            host.stop(quiet=True)

    def _died(self, p: int, detail: str = "") -> WorkerDiedError:
        proc = self.procs[p - 1]
        proc.join(timeout=10)
        return WorkerDiedError(
            worker=p, superstep=self.last_superstep, exitcode=proc.exitcode,
            detail=detail,
        )

    def _send(self, p: int, cmd: tuple) -> None:
        """Send ``cmd`` to forked process ``p``."""
        try:
            self.conns[p - 1].send(cmd)
        except (BrokenPipeError, OSError) as exc:
            raise self._died(p, detail=str(exc)) from None

    def _recv_all(self) -> list:
        replies = []
        for p, conn in enumerate(self.conns, 1):
            try:
                reply = conn.recv()
            except EOFError:
                # The pipe closed without a reply: the worker *process* is
                # gone (crash / SIGKILL / oom).  Recoverable via checkpoint
                # rollback — unlike the user-program errors below, which
                # would fail identically on every replay.
                raise self._died(p) from None
            if reply[0] == "error":
                _, tb, exc = reply
                if exc is not None:
                    raise exc
                raise RuntimeError(f"parallel worker {p} failed:\n{tb}")
            replies.append(reply[1])
        return replies

    def _kill_victims(self, superstep: int) -> set[int]:
        """Deliver the plan's top-of-superstep kills; return the processes
        that must kill themselves mid-exchange."""
        forked = len(self.procs)
        for victim in self.fault_plan.victims(superstep, forked):
            # A real, uncatchable death — the master must discover it
            # through the broken pipe exactly as it would a crash.
            proc = self.procs[victim]
            if proc.pid is not None and proc.is_alive():
                from .faults import kill_process

                kill_process(proc.pid)
                proc.join(timeout=10)
        # Exchange-phase kills are shipped with the step command: the
        # worker SIGKILLs *itself* mid-exchange, with its batches encoded
        # and its report unsent.  Marked fired here, at ship time, because
        # the victim never reports back.
        return {
            1 + v for v in self.fault_plan.victims(superstep, forked, phase="exchange")
        }

    def step(self, runtime0, superstep: int, aggregates) -> tuple[list, float]:
        """One superstep on every process: the step commands out (with the
        batches routed to each), runtime 0's step in the master meanwhile,
        the reports back in process order and their batches routed on.
        Returns the reports and the superstep's compute wall time."""
        self.last_superstep = superstep
        victims = self._kill_victims(superstep) if self.fault_plan else set()
        inbound = self.inbound
        self.inbound = [[] for _ in inbound]
        t0 = time.perf_counter()
        for p in range(1, len(inbound)):
            self._send(p, ("step", superstep, aggregates, inbound[p], p in victims))
        reports = [runtime0.step(superstep, aggregates, inbound[0])]
        reports += self._recv_all()
        compute_wall = time.perf_counter() - t0
        for rep in reports:
            for dest, buf in rep["out"].items():
                self.inbound[dest].append(buf)
        return reports, compute_wall

    def collect(self, runtime0, seq) -> dict[Any, Any]:
        """The final states — the ``end`` handshake: each worker replies
        with its share and drops its runtime, ready for a ``begin``."""
        for p in range(1, len(self.inbound)):
            self._send(p, ("end",))
        states = runtime0.collect()
        for share in self._recv_all():
            states.update(share)
        return {vid: states[vid] for vid in seq}

    def snapshot(self, runtime0, seq):
        """Barrier-time snapshot across all processes.

        Each runtime contributes its states and the messages parked with it
        for the next superstep — its worker-local pending list (runtime 0's
        in-process, the others' in their replies); the cross-process
        batches still waiting in ``inbound`` are unpickled non-destructively
        (the live bytes stay put for the next superstep).  Entries are
        merged with one stable sort by sender sequence, recreating the
        serial delivery order, so the snapshot resumes under any process
        count.  Entries that sender-side combining folded stay folded, so
        it is not byte-equal to a serial run's (see `ExecutorSnapshot`).
        """
        from .checkpoint import ExecutorSnapshot

        for p in range(1, len(self.inbound)):
            self._send(p, ("snapshot",))
        states = runtime0.collect()
        pending = runtime0.pending_entries()
        for rep in self._recv_all():
            states.update(rep["states"])
            pending.extend(rep["pending"])
        for batches in self.inbound:
            for buf in batches:
                pending.extend(pickle.loads(buf))
        pending.sort(key=itemgetter(0))  # stable: per-sender order kept
        return ExecutorSnapshot(
            states={vid: states[vid] for vid in seq}, pending=pending
        )

    def restore(self, runtime0, entries, proc_of) -> None:
        """Hand a checkpoint's pending messages (already in delivery order)
        back: runtime 0's share as its pending list, the others' as one
        pickled inbound batch per process.  Combined 5-tuple entries
        pass through intact, so the first resumed superstep charges the
        receiver pass for the folded-away raw messages exactly as the
        original run would have."""
        per_proc: dict[int, list] = {}
        for entry in entries:
            per_proc.setdefault(proc_of(entry[1]), []).append(entry)
        runtime0._pending = per_proc.pop(0, [])
        for p, ents in per_proc.items():
            self.inbound[p].append(pickle.dumps(ents, pickle.HIGHEST_PROTOCOL))

    def close(self) -> None:
        """After the ``end`` handshake (:meth:`collect`): park the group if
        every worker is still alive, otherwise :meth:`stop` it."""
        if self._key is not None and all(proc.is_alive() for proc in self.procs):
            self._park()
        else:
            self.stop()

    def stop(self, quiet: bool = False) -> None:
        """Stop and join every process, then raise :class:`WorkerDiedError`
        for the first that exited nonzero (or never acknowledged the stop)
        — cleanup is unconditional, the death is not hidden — unless
        ``quiet``: a group no run owns (an idle death raises nowhere)."""
        failure: Optional[WorkerDiedError] = None
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except Exception:
                pass  # already dead; the exit code check below reports it
        for p, proc in enumerate(self.procs, 1):
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - crash cleanup
                proc.terminate()
                proc.join(timeout=10)
            if proc.exitcode not in (0, None) and failure is None:
                failure = WorkerDiedError(
                    worker=p, superstep=self.last_superstep, exitcode=proc.exitcode,
                )
        self._close_conns()
        if failure is not None and not quiet:
            raise failure

    def abort(self) -> None:
        """Best-effort teardown for error paths — never raises, never hangs."""
        for proc in self.procs:
            try:
                if proc.is_alive():
                    proc.terminate()
            except Exception:
                pass
        for proc in self.procs:
            try:
                proc.join(timeout=10)
                if proc.is_alive():  # pragma: no cover - hard kill fallback
                    proc.kill()
                    proc.join(timeout=10)
            except Exception:
                pass
        self._close_conns()

    def _close_conns(self) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
        for conn in self.conns:
            try:
                conn.close()
            except Exception:
                pass
        self.procs = []
        self.conns = []
