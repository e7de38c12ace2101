"""Invariants of the metrics bookkeeping across engines and platforms."""

import pytest

from repro.algorithms import ALL_ALGORITHMS, platforms_for, run_algorithm
from repro.datasets import reddit

pytestmark = pytest.mark.usefixtures("executor")

GRAPH = reddit(scale=0.25)


@pytest.mark.parametrize("algorithm", ["BFS", "PR", "SSSP", "EAT", "LCC"])
def test_icm_makespan_decomposes(algorithm):
    """modeled makespan = modeled compute + messaging + barriers (ICM)."""
    metrics = run_algorithm(algorithm, "GRAPHITE", GRAPH).metrics
    total = metrics.modeled_compute_time + metrics.messaging_time + metrics.barrier_time
    assert metrics.modeled_makespan == pytest.approx(total, rel=1e-9)


@pytest.mark.parametrize("algorithm", ["BFS", "SSSP"])
def test_superstep_details_sum_to_totals(algorithm):
    metrics = run_algorithm(algorithm, "GRAPHITE", GRAPH).metrics
    detail = metrics.supersteps_detail
    assert len(detail) == metrics.supersteps
    assert sum(s.compute_calls for s in detail) == metrics.compute_calls
    assert sum(s.scatter_calls for s in detail) == metrics.scatter_calls
    assert sum(s.messages for s in detail) == metrics.messages_sent
    assert sum(s.messaging_time for s in detail) == pytest.approx(metrics.messaging_time)
    assert sum(s.max_worker_compute_time for s in detail) == pytest.approx(
        metrics.modeled_compute_time
    )


def test_local_plus_remote_equals_total_everywhere():
    for algorithm in ALL_ALGORITHMS:
        for platform in platforms_for(algorithm):
            metrics = run_algorithm(algorithm, platform, GRAPH).metrics
            assert (
                metrics.local_messages + metrics.remote_messages
                == metrics.total_messages
            ), (algorithm, platform)
            assert metrics.message_bytes >= metrics.total_messages, (
                algorithm, platform)  # every message costs ≥ 1 byte


def test_scatter_calls_bound_messages_for_icm():
    """ICM messages come only from scatter returns (plus direct sends),
    and coalescing/domination can only shrink them."""
    for algorithm in ("SSSP", "EAT", "RH", "TMST", "BFS"):
        metrics = run_algorithm(algorithm, "GRAPHITE", GRAPH).metrics
        assert metrics.messages_sent <= metrics.scatter_calls, algorithm


def test_wall_clock_fields_populated():
    metrics = run_algorithm("SSSP", "GRAPHITE", GRAPH).metrics
    assert metrics.makespan > 0
    assert metrics.compute_plus_time > 0
    assert metrics.load_time >= 0


def test_merge_folds_every_registry_field():
    """``merge`` walks the metric registries: a gauge keeps the larger
    value, everything else adds; the superstep details and the recovery
    metrics ride along."""
    from repro.obs.registry import RECOVERY_METRICS, RUN_METRICS
    from repro.runtime.metrics import RecoveryMetrics, RunMetrics, SuperstepMetrics

    def filled(registry, cls, base, **extra):
        obj = cls(**extra)
        for i, spec in enumerate(registry):
            value = base + 2 * i
            setattr(obj, spec.name, value if spec.value == "int" else value + 0.5)
        return obj

    ours = filled(RUN_METRICS, RunMetrics, 1)
    theirs = filled(RUN_METRICS, RunMetrics, 100)
    # A gauge's larger value on the left as well as on the right.
    ours.partition_imbalance = 1000.5
    ours.supersteps_detail.append(SuperstepMetrics(superstep=1))
    theirs.supersteps_detail.append(SuperstepMetrics(superstep=2))
    ours.recovery = filled(RECOVERY_METRICS, RecoveryMetrics, 3)
    theirs.recovery = filled(RECOVERY_METRICS, RecoveryMetrics, 300)
    before = {spec.name: getattr(ours, spec.name) for spec in RUN_METRICS}
    recovery_before = {s.name: getattr(ours.recovery, s.name) for s in RECOVERY_METRICS}

    ours.merge(theirs)

    assert {spec.kind for spec in RUN_METRICS} >= {"counter", "gauge", "time"}
    for spec in RUN_METRICS:
        mine, other = before[spec.name], getattr(theirs, spec.name)
        want = max(mine, other) if spec.kind == "gauge" else mine + other
        assert getattr(ours, spec.name) == want, spec.name
    assert ours.partition_imbalance == 1000.5
    assert [s.superstep for s in ours.supersteps_detail] == [1, 2]
    for spec in RECOVERY_METRICS:
        want = recovery_before[spec.name] + getattr(theirs.recovery, spec.name)
        assert getattr(ours.recovery, spec.name) == want, spec.name
