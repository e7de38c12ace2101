"""Trace schema: every emitted event validates; serial ≡ parallel logically.

Runs three representative algorithms (a TI flood, a TD fixpoint and
PageRank's aggregator-terminated iteration) under both executors with a
JSON-lines trace attached, then checks the full schema contract on every
record and the logical serial↔parallel equivalence that CI diffs.
"""

import pytest

from repro.algorithms import run_algorithm
from repro.datasets import transit_graph
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    RUN_LEVEL_TYPES,
    WORKER_SPAN_PHASES,
    validate_event,
)
from repro.obs.exporters import (
    logical_sequence,
    read_trace,
    render_report,
    render_timeline,
    split_runs,
)
from repro.runtime.cluster import SimulatedCluster

ALGORITHMS = ("BFS", "SSSP", "PR")


def _trace(tmp_path, algorithm, executor):
    path = tmp_path / f"{algorithm}-{executor}.trace"
    icm_options = {"executor": executor}
    if executor == "parallel":
        icm_options["executor_processes"] = 2
    run_algorithm(
        algorithm, "GRAPHITE", transit_graph(),
        cluster=SimulatedCluster(5), graph_name="transit",
        icm_options=icm_options, observe=str(path),
    )
    return read_trace(path)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("traces")
    return {
        (algorithm, executor): _trace(tmp_path, algorithm, executor)
        for algorithm in ALGORITHMS
        for executor in ("serial", "parallel")
    }


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("executor", ("serial", "parallel"))
def test_every_record_validates(traces, algorithm, executor):
    records = traces[(algorithm, executor)]
    assert records, "trace must not be empty"
    for record in records:
        validate_event(record)  # exact key set, versions, payload schema
        assert record["v"] == EVENT_SCHEMA_VERSION


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_trace_structure(traces, algorithm):
    records = traces[(algorithm, "serial")]
    assert records[0]["type"] == "run_start"
    assert records[-1]["type"] == "run_end"
    assert [r["seq"] for r in records] == list(range(len(records)))

    start, end = records[0], records[-1]
    assert start["data"]["algorithm"] == algorithm
    assert start["data"]["platform"] == "GRAPHITE"
    assert start["data"]["graph"] == "transit"

    # Each superstep contributes the full phase cycle, in order; since
    # schema v5 the barrier additionally publishes one worker_span per
    # executor worker (exactly one on the serial executor).
    per_step = {}
    for record in records[1:-1]:
        per_step.setdefault(record["superstep"], []).append(record["type"])
    assert sorted(per_step) == list(range(1, end["data"]["supersteps"] + 1))
    for types in per_step.values():
        assert types == ["superstep_start", "compute_phase",
                         "scatter_phase", "barrier_exchange", "worker_span",
                         "superstep_end"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_end_totals_match_phase_sums(traces, algorithm):
    records = traces[(algorithm, "serial")]
    end = records[-1]["data"]
    compute = sum(r["data"]["compute_calls"] for r in records
                  if r["type"] == "compute_phase")
    messages = sum(r["data"]["messages"] for r in records
                   if r["type"] == "scatter_phase")
    assert compute == end["compute_calls"]
    assert messages == end["messages_sent"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_serial_parallel_logical_equivalence(traces, algorithm):
    serial = logical_sequence(traces[(algorithm, "serial")])
    parallel = logical_sequence(traces[(algorithm, "parallel")])
    assert serial == parallel


def _spans(records):
    return [r for r in records if r["type"] == "worker_span"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("executor", ("serial", "parallel"))
def test_worker_spans_cover_every_superstep(traces, algorithm, executor):
    """One worker_span per worker per superstep, in worker-id order —
    one for the serial executor, one per process for the parallel one."""
    records = traces[(algorithm, executor)]
    workers = 1 if executor == "serial" else 2
    supersteps = records[-1]["data"]["supersteps"]
    spans = _spans(records)
    assert len(spans) == workers * supersteps
    for step in range(1, supersteps + 1):
        step_spans = [s for s in spans if s["superstep"] == step]
        assert [s["data"]["worker"] for s in step_spans] == list(range(workers))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("executor", ("serial", "parallel"))
def test_worker_span_wall_invariants(traces, algorithm, executor):
    """Every span carries the full phase vocabulary and non-negative
    wall durations that sum exactly to its total."""
    for span in _spans(traces[(algorithm, executor)]):
        assert tuple(span["data"]["phases"]) == WORKER_SPAN_PHASES
        wall = span["wall"]
        total = wall["total_s"]
        assert total >= 0.0
        for phase in WORKER_SPAN_PHASES:
            assert 0.0 <= wall[f"{phase}_s"] <= total + 1e-9
        assert sum(wall[f"{p}_s"] for p in WORKER_SPAN_PHASES) == \
            pytest.approx(total)


def test_worker_spans_nested_within_superstep(traces):
    """Spans are emitted inside their superstep's bracket: strictly after
    that superstep's barrier_exchange and before its superstep_end."""
    for records in traces.values():
        by_seq = {r["seq"]: r for r in records}
        brackets = {}
        for record in records:
            if record["type"] == "barrier_exchange":
                brackets.setdefault(record["superstep"], {})["lo"] = record["seq"]
            elif record["type"] == "superstep_end":
                brackets.setdefault(record["superstep"], {})["hi"] = record["seq"]
        for span in _spans(records):
            bracket = brackets[span["superstep"]]
            assert bracket["lo"] < span["seq"] < bracket["hi"]
            assert by_seq[bracket["lo"]]["superstep"] == span["superstep"]


def test_superstep_events_use_positive_steps(traces):
    for records in traces.values():
        for record in records:
            if record["type"] in RUN_LEVEL_TYPES:
                assert record["superstep"] is None
            else:
                assert record["superstep"] >= 1


def test_schema_covers_recovery_events():
    # The durability types are part of the v1 schema even though a
    # fault-free run never emits them.
    for etype in ("checkpoint_write", "worker_death", "rollback"):
        assert etype in EVENT_TYPES


def test_renderers_accept_real_traces(traces):
    records = traces[("SSSP", "serial")]
    assert len(split_runs(records)) == 1
    report = render_report(records)
    assert "SSSP" in report and "GRAPHITE" in report
    supersteps = records[-1]["data"]["supersteps"]
    timeline = render_timeline(records)
    assert len(timeline.splitlines()) == 1 + supersteps  # header + one row/step


@pytest.mark.usefixtures("executor")
def test_compare_trace_attributes_every_platform(tmp_path):
    """`api.compare(..., observe=path)` writes one shared trace in which
    every run — GRAPHITE's native events and the synthesized baseline
    brackets — carries its platform tag, so `repro report` and
    `scripts/diff_traces.py` can attribute multi-platform traces."""
    from repro import api
    from repro.algorithms.runners import platforms_for

    path = tmp_path / "compare.trace"
    api.compare("EAT", transit_graph(), workers=5, graph_name="transit",
                observe=str(path))
    records = read_trace(path)
    for record in records:
        validate_event(record)
    platforms = [r["data"]["platform"] for r in records
                 if r["type"] == "run_start"]
    assert platforms == list(platforms_for("EAT"))
    # Each run is a complete, splittable bracket with totals.
    runs = split_runs(records)
    assert len(runs) == len(platforms)
    for run in runs:
        assert run[-1]["type"] == "run_end"
        assert run[-1]["data"]["supersteps"] >= 1
    # And the report renderer shows one attributed row per platform.
    report = render_report(records)
    for platform in platforms:
        assert platform in report
