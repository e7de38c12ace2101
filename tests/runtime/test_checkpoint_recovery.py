"""Checkpoint/recovery acceptance: crash anywhere, resume bit-identical.

The durability contract (`repro.runtime.checkpoint` + `repro.runtime.faults`):
a run checkpointed at a barrier and continued — whether explicitly via
``run(resume_from=...)`` or implicitly by the engine recovering a killed
worker process — must produce final states, aggregates, counters and modeled
times **bitwise identical** to an uninterrupted run.  These tests hold that
contract across the whole algorithm matrix, under real SIGKILLs.
"""

import json
import os

import pytest

from repro import api
from repro.algorithms import ALL_ALGORITHMS, run_algorithm
from repro.datasets import transit_graph
from repro.obs.observers import InMemoryEvents
from repro.runtime.checkpoint import (
    EXCHANGE_FINGERPRINT,
    CheckpointError,
    config_fingerprint,
    latest_checkpoint,
    load_checkpoint,
)
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.executor import ParallelExecutor
from repro.runtime.faults import FaultPlan, UnrecoverableRunError, WorkerDiedError, kill_process

#: Metric fields that must match *exactly* between an uninterrupted run and
#: a checkpointed / killed / resumed one (superset of the executor
#: equivalence contract — recovery must not leak into the modeled story).
EXACT_FIELDS = (
    "supersteps",
    "compute_calls",
    "scatter_calls",
    "messages_sent",
    "system_messages",
    "message_bytes",
    "local_messages",
    "remote_messages",
    "warp_calls",
    "warp_suppressed_vertices",
    "combiner_reductions",
    "peak_inflight_messages",
    "modeled_makespan",
    "modeled_compute_time",
    "messaging_time",
    "barrier_time",
)


def _partitions(result):
    states = result.components if hasattr(result, "components") else result.states
    return {vid: list(state) for vid, state in states.items()}


def _run(algorithm, *, resume_from=None, **icm_options):
    return run_algorithm(
        algorithm, "GRAPHITE", transit_graph(),
        cluster=SimulatedCluster(5), graph_name="transit",
        icm_options=icm_options or {"executor": "serial"},
        resume_from=resume_from,
    )


def _assert_identical(ref, other):
    assert _partitions(ref.result) == _partitions(other.result)
    if hasattr(ref.result, "aggregates"):
        assert ref.result.aggregates == other.result.aggregates
    for fld in EXACT_FIELDS:
        assert getattr(ref.metrics, fld) == getattr(other.metrics, fld), fld


# -- the acceptance sweep ------------------------------------------------------


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_killed_at_every_checkpointed_superstep(algorithm, tmp_path):
    """Real SIGKILL at each superstep; recovery replays to identical results.

    ``checkpoint_every=1`` makes every superstep a rollback point; killing
    at superstep *s* forces a rollback to the checkpoint at *s−1* (or a
    from-scratch replay for *s*=1, before any checkpoint exists).
    """
    ref = _run(algorithm)
    for superstep in range(1, ref.metrics.supersteps + 1):
        ckpt_dir = tmp_path / f"kill-{superstep}"
        executor = ParallelExecutor(
            processes=2, fault_plan=FaultPlan.kill(superstep % 2, superstep)
        )
        crashed = _run(
            algorithm,
            executor=executor,
            checkpoint_every=1,
            checkpoint_dir=str(ckpt_dir),
        )
        _assert_identical(ref, crashed)
        if executor.fault_plan.pending() == 0:  # the kill actually fired
            assert crashed.metrics.recovery.restarts >= 1


@pytest.mark.parametrize("algorithm", [a for a in ALL_ALGORITHMS if a != "SCC"])
def test_resume_from_every_checkpoint(algorithm, tmp_path):
    """Explicit ``resume_from`` at every checkpoint reproduces the run.

    (SCC is excluded here only because its peeling loop runs many engines
    per call, so a single resume directory is ambiguous — its durability is
    covered by the kill sweep above, where recovery is engine-internal.)
    """
    ref = _run(algorithm)
    full = _run(
        algorithm, executor="serial",
        checkpoint_every=1, checkpoint_dir=str(tmp_path),
    )
    _assert_identical(ref, full)
    steps = sorted(p for p in os.listdir(tmp_path) if p.startswith("step-"))
    assert steps, "checkpointed run wrote no checkpoints"
    assert full.metrics.recovery.checkpoints_written == len(steps)
    assert full.metrics.recovery.checkpoint_bytes > 0
    for step in steps:
        resumed = _run(algorithm, resume_from=str(tmp_path / step))
        _assert_identical(ref, resumed)


@pytest.mark.parametrize(
    "writer,reader",
    [("serial", "parallel"), ("parallel", "serial")],
    ids=["serial-to-parallel", "parallel-to-serial"],
)
@pytest.mark.parametrize(
    "algorithm", [pytest.param("SSSP", id=pytest.HIDDEN_PARAM), "BFS"]
)
def test_checkpoints_are_executor_portable(algorithm, writer, reader, tmp_path):
    """A checkpoint written under one executor resumes under the other, from
    every checkpointed superstep.

    Portable is not byte-equal: on the twitter surrogate, sender-side
    combining folds messages into the 2-process run's pending list, so its
    shard files differ from a serial run's, and each must still resume
    bit-identically under the other executor.
    """
    from repro.datasets import load_surrogate

    graph = load_surrogate("twitter", scale=0.3)

    def run(executor, resume_from=None, **options):
        return run_algorithm(
            algorithm, "GRAPHITE", graph,
            cluster=SimulatedCluster(8), graph_name="twitter",
            icm_options={"executor": executor, "executor_processes": 2, **options},
            resume_from=resume_from,
        )

    ref = run("serial")
    written = run(writer, checkpoint_every=1, checkpoint_dir=str(tmp_path))
    _assert_identical(ref, written)
    steps = sorted(p for p in os.listdir(tmp_path) if p.startswith("step-"))
    assert len(steps) == ref.metrics.supersteps
    for step in steps:
        _assert_identical(ref, run(reader, resume_from=str(tmp_path / step)))


def test_resume_root_uses_latest_checkpoint(tmp_path):
    """Passing the checkpoint *root* resumes from the newest step."""
    ref = _run("WCC")
    _run("WCC", executor="serial", checkpoint_every=1, checkpoint_dir=str(tmp_path))
    resumed = _run("WCC", resume_from=str(tmp_path))
    _assert_identical(ref, resumed)
    latest = latest_checkpoint(tmp_path)
    assert latest is not None
    assert load_checkpoint(latest).superstep == ref.metrics.supersteps


# -- recovery semantics --------------------------------------------------------


def test_recovery_without_checkpoints_replays_from_scratch():
    ref = _run("SSSP")
    crashed = _run(
        "SSSP",
        executor=ParallelExecutor(processes=2, fault_plan=FaultPlan.kill(0, 2)),
    )
    _assert_identical(ref, crashed)
    assert crashed.metrics.recovery.restarts == 1
    assert crashed.metrics.recovery.replayed_supersteps == 2


def test_retry_limit_exhaustion_raises_unrecoverable(tmp_path):
    # Two deaths at distinct supersteps: each needs its own restart, one
    # more than max_restarts=1 absorbs.
    plan = FaultPlan.parse("kill:0@2,1@3")
    with pytest.raises(UnrecoverableRunError) as err:
        run_algorithm(
            "SSSP", "GRAPHITE", transit_graph(),
            cluster=SimulatedCluster(5), graph_name="transit",
            icm_options={
                "executor": ParallelExecutor(processes=2, fault_plan=plan),
                "checkpoint_every": 1,
                "checkpoint_dir": str(tmp_path),
                "max_restarts": 1,
            },
        )
    assert isinstance(err.value.__cause__, WorkerDiedError)


@pytest.mark.parametrize("algorithm", ("BFS", "SSSP", "PR"))
def test_killed_mid_exchange_recovers_bit_identical(algorithm, tmp_path):
    """SIGKILL mid barrier exchange: the victim dies with its outbound
    batches encoded but its report never sent.  Rollback must discard the
    half-finished exchange entirely and replay to results bitwise identical
    to an uninterrupted serial run."""
    ref = _run(algorithm)
    for superstep in sorted({2, ref.metrics.supersteps}):
        plan = FaultPlan.parse(f"kill:{superstep % 2}@{superstep}:exchange")
        crashed = _run(
            algorithm,
            executor=ParallelExecutor(processes=2, fault_plan=plan),
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path / str(superstep)),
        )
        _assert_identical(ref, crashed)
        assert plan.pending() == 0, "the exchange-phase kill never fired"
        assert crashed.metrics.recovery.restarts >= 1


def test_recovery_metrics_account_the_crash(tmp_path):
    crashed = _run(
        "PR",
        executor=ParallelExecutor(processes=2, fault_plan=FaultPlan.kill(1, 4)),
        checkpoint_every=2,
        checkpoint_dir=str(tmp_path),
    )
    rec = crashed.metrics.recovery
    assert rec.restarts == 1
    # killed at superstep 4, latest checkpoint at 2 -> supersteps 3..4 lost
    assert rec.replayed_supersteps == 2
    assert rec.checkpoints_written > 0
    assert rec.checkpoint_bytes > 0


@pytest.mark.parametrize("processes,spec", [(2, "kill:0@2"), (3, "kill:2@3")])
def test_kill_targets_a_forked_process(processes, spec, tmp_path):
    """The master is process 0 and never a victim: ``kill:W@S`` kills
    forked process ``1 + W % (P−1)``, the death names that process, and the
    recovered run is bit-identical to serial."""
    ref = _run("SSSP")
    plan = FaultPlan.parse(spec)
    events = InMemoryEvents()
    crashed = run_algorithm(
        "SSSP", "GRAPHITE", transit_graph(),
        cluster=SimulatedCluster(5), graph_name="transit",
        icm_options={
            "executor": ParallelExecutor(processes=processes, fault_plan=plan),
            "checkpoint_every": 1,
            "checkpoint_dir": str(tmp_path),
        },
        observe=events,
    )
    _assert_identical(ref, crashed)
    assert plan.pending() == 0 and crashed.metrics.recovery.restarts == 1
    victim = 1 + plan.actions[0].worker % (processes - 1)
    assert [e["data"]["worker"] for e in events.of_type("worker_death")] == [victim]


def test_one_process_plan_does_nothing():
    """At P = 1 there is no forked process to kill: the plan never fires."""
    plan = FaultPlan.parse("kill:0@2")
    run = _run("SSSP", executor=ParallelExecutor(processes=1, fault_plan=plan))
    _assert_identical(_run("SSSP"), run)
    assert plan.pending() == 1 and run.metrics.recovery.restarts == 0


# -- close() propagation (satellite bugfix) ------------------------------------


class _KillAfterCollect(ParallelExecutor):
    """Kills forked worker 1 after the final collect — the death only a close()
    exit-code check can see (the old close() silently swallowed it)."""

    def collect_states(self):
        states = super().collect_states()
        kill_process(self._host.procs[0].pid)
        self._host.procs[0].join(timeout=10)
        return states


def test_close_propagates_worker_death():
    with pytest.raises(UnrecoverableRunError) as err:
        run_algorithm(
            "BFS", "GRAPHITE", transit_graph(),
            cluster=SimulatedCluster(5), graph_name="transit",
            icm_options={
                "executor": _KillAfterCollect(processes=2),
                "max_restarts": 0,
            },
        )
    died = err.value.__cause__
    assert isinstance(died, WorkerDiedError)
    assert died.worker == 1
    assert died.exitcode is not None and died.exitcode != 0


# -- checkpoint validation -----------------------------------------------------


@pytest.mark.usefixtures("executor")
def test_resume_rejects_config_mismatch(tmp_path):
    _run("SSSP", executor="serial", checkpoint_every=1, checkpoint_dir=str(tmp_path))
    step = sorted(p for p in os.listdir(tmp_path) if p.startswith("step-"))[0]
    with pytest.raises(CheckpointError, match="different configuration"):
        _run(
            "SSSP", resume_from=str(tmp_path / step),
            enable_warp_suppression=False,
        )


def test_resume_rejects_missing_checkpoint(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint found"):
        _run("SSSP", resume_from=str(tmp_path / "nowhere"))


def test_load_rejects_corrupt_shard(tmp_path):
    _run("SSSP", executor="serial", checkpoint_every=1, checkpoint_dir=str(tmp_path))
    step = latest_checkpoint(tmp_path)
    shard = next(p for p in sorted(step.iterdir()) if p.name.startswith("shard-"))
    blob = bytearray(shard.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    shard.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(step)


def test_load_rejects_corrupt_manifest(tmp_path):
    _run("SSSP", executor="serial", checkpoint_every=1, checkpoint_dir=str(tmp_path))
    step = latest_checkpoint(tmp_path)
    (step / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(CheckpointError, match="manifest"):
        load_checkpoint(step)


def test_resume_refuses_incompatible_exchange_fingerprint(tmp_path):
    """A manifest claiming a different routed-batch wire version is refused
    with both versions named, before any shard is decoded."""
    _run("SSSP", executor="serial", checkpoint_every=2, checkpoint_dir=str(tmp_path))
    manifest_path = latest_checkpoint(tmp_path) / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["exchange"] == EXCHANGE_FINGERPRINT
    manifest["exchange"] = "routed-batch-v1"
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    with pytest.raises(CheckpointError, match="routed-batch-v1.*routed-batch-v2"):
        _run("SSSP", executor="serial", resume_from=str(manifest_path.parent))


def test_config_fingerprint_ignores_executor():
    g = transit_graph()
    kwargs = dict(cluster=SimulatedCluster(5), graph_name="transit")

    def engine(**options):
        return api.build_engine(g, _any_program(), options=options, **kwargs)

    serial = engine(executor="serial")
    parallel = engine(executor="parallel")
    assert config_fingerprint(serial) == config_fingerprint(parallel)

    flipped = engine(enable_warp_combiner=False)
    assert config_fingerprint(serial) != config_fingerprint(flipped)


# -- environment knob validation (satellite bugfix) ----------------------------


def test_invalid_checkpoint_every_env(monkeypatch):
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "sometimes")
    with pytest.raises(ValueError, match="REPRO_CHECKPOINT_EVERY"):
        api.build_engine(transit_graph(), _any_program())


def test_checkpoint_every_env_applies(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "2")
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
    ref = _run("SSSP")
    run = _run("SSSP", executor="serial")
    _assert_identical(ref, run)
    assert run.metrics.recovery.checkpoints_written > 0
    assert any(p.startswith("step-") for p in os.listdir(tmp_path))


def _any_program():
    from repro.algorithms.runners import default_source
    from repro.algorithms.td.sssp import TemporalSSSP

    return TemporalSSSP(default_source(transit_graph()))
