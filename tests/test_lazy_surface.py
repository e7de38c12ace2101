"""The lazy package surface is the eager one it replaced (`repro._lazy`).

Every package ``__init__`` lists its exports and where they are defined and
imports nothing until a name is used.  What must not have changed: each
``__all__`` (pinned here, copied from the eager ``__init__``s), the identity
of every export with the object its defining submodule holds, ``dir()``,
``from pkg import *`` and the ``AttributeError`` for unknown names; what the
mechanism adds: a resolved name is cached in the package, and concurrent
first accesses (the ``GraphService`` lane situation) all see one object.
"""

import importlib
import sys

import pytest

import repro

from ._fresh_interpreter import run_fresh

PINNED_ALL = {
    "repro": [
        "FOREVER", "IcmResult", "Interval", "IntervalCentricEngine",
        "IntervalMessage", "IntervalProgram", "PartitionedState",
        "TemporalGraph", "TemporalGraphBuilder", "__version__", "time_join",
        "time_warp",
    ],
    "repro.core": [
        "EdgeContext", "ExecutionTracer", "FOREVER", "IcmResult", "Interval",
        "IntervalCentricEngine", "IntervalMessage", "IntervalProgram",
        "IntervalSet", "MasterContext", "MessageCombiner", "PartitionedState",
        "VertexContext", "coalesce", "export_states_csv",
        "export_states_dense_csv", "export_states_json", "max_combiner",
        "message", "min_combiner", "or_combiner", "states_equal_pointwise",
        "sum_combiner", "time_join", "time_warp", "total_span",
        "tuple_min_combiner", "unit_message_fraction", "warp_boundaries",
    ],
    "repro.graph": [
        "CHAIN", "CompactEdge", "CompactGraph", "CompactVertex",
        "DatasetStats", "EdgePiece", "GraphWindow", "PropertySet",
        "PropertyTimeline", "StaticEdge", "StaticGraph", "TemporalEdge",
        "TemporalGraph", "TemporalGraphBuilder", "TemporalVertex",
        "build_transformed_graph", "dataset_stats", "dump_graph",
        "dump_graph_binary", "iter_snapshots", "largest_snapshot",
        "memory_footprint", "resident_bytes", "snapshot_at", "snapshot_sizes",
        "transformed_size",
    ],
    "repro.runtime": [
        "CheckpointError", "ComputeModel", "ExecutorSnapshot", "FaultAction",
        "FaultPlan", "GreedyEdgeCutPartitioner", "HashPartitioner",
        "IntervalGreedyPartitioner", "LoadedCheckpoint", "NetworkModel",
        "PARTITIONER_KINDS", "Partitioner", "RangePartitioner",
        "RecoveryMetrics", "RunMetrics", "SimulatedCluster",
        "SuperstepMetrics", "UnrecoverableRunError", "WorkerDiedError",
        "build_partitioner", "decode_interval", "decode_message",
        "decode_payload", "decode_varint", "encode_interval", "encode_message",
        "encode_payload", "encode_varint", "encoded_message_size",
        "interval_size", "latest_checkpoint", "load_checkpoint",
        "partitioner_fingerprint", "payload_size", "varint_size",
        "write_checkpoint",
    ],
    "repro.obs": [
        "EVENT_SCHEMA_VERSION", "EVENT_TYPES", "EventStream", "Histogram",
        "InMemoryEvents", "JsonlTraceWriter", "MetricRegistry", "MetricSpec",
        "RECOVERY_METRICS", "RUN_METRICS", "RunObserver", "SERVE_METRICS",
        "WORKER_SPAN_PHASES", "logical_sequence", "logical_view",
        "prometheus_text", "read_trace", "render_report", "render_summary",
        "render_timeline", "render_workers", "split_runs", "validate_event",
    ],
    "repro.algorithms": [
        "ALL_ALGORITHMS", "RunOutcome", "TD_ALGORITHMS", "TD_PLATFORMS",
        "TI_ALGORITHMS", "TI_PLATFORMS", "default_source", "default_target",
        "platforms_for", "run_algorithm",
    ],
    "repro.algorithms.ti": [
        "SccResult", "SnapshotBFS", "SnapshotPageRank", "SnapshotWCC",
        "TemporalBFS", "TemporalPageRank", "TemporalWCC", "UNREACHED",
        "make_undirected", "run_chlonos_scc", "run_icm_scc",
        "run_snapshot_scc", "vertex_count_timeline",
    ],
    "repro.algorithms.td": [
        "GoffishEAT", "GoffishFAST", "GoffishLCC", "GoffishLD",
        "GoffishReachability", "GoffishSSSP", "GoffishTC", "GoffishTMST",
        "INFINITY", "Leg", "SnapshotLCC", "SnapshotTC", "TemporalEAT",
        "TemporalFAST", "TemporalKCore", "TemporalLCC", "TemporalLD",
        "TemporalReachability", "TemporalSSSP", "TemporalSSSPJourneys",
        "TemporalTC", "TemporalTMST", "TgbEAT", "TgbFAST", "TgbLD",
        "TgbReachability", "TgbSSSP", "TgbTMST", "earliest_arrival",
        "fastest_duration", "global_triangles", "in_core", "is_reachable",
        "journey_cost", "latest_departure", "lcc_value", "most_central",
        "reconstruct_journey", "run_temporal_kcore", "tc_count",
        "temporal_closeness", "tgb_fastest_duration", "tgb_latest_departure",
        "tmst_parent", "tmst_tree",
    ],
    "repro.baselines": [
        "ChainForwardingProgram", "ChlonosEngine", "ChlonosResult",
        "GoffishContext", "GoffishEngine", "GoffishProgram", "GoffishResult",
        "MultiSnapshotResult", "TgbResult", "VcmContext", "VcmMaster",
        "VcmResult", "VertexCentricEngine", "VertexProgram", "run_chlonos",
        "run_msb", "run_tgb",
    ],
    "repro.datasets": [
        "EXPECTED_SSSP_FROM_A", "SURROGATES", "TRAVEL_COST", "TRAVEL_TIME",
        "gplus", "ldbc_graph", "load_surrogate", "locality", "mag", "reddit",
        "transit_graph", "twitter", "usrn", "webuk",
    ],
    "repro.query": [
        "Journey", "JourneyLeg", "Timeline", "aggregate", "align", "between",
        "degree_timeline", "durable_top_k", "edge_count_timeline",
        "edge_subgraph", "find_journeys", "iter_journeys", "property_timeline",
        "state_timeline", "temporal_slice", "top_k_at", "total_over_time",
        "vertex_count_timeline", "vertex_subgraph", "when_stable",
    ],
    "repro.serve": [
        "BadQueryError", "CacheStats", "GraphService", "MetricsEndpoint",
        "QueryAnswer", "QueryRequest", "QueryTimeoutError", "QueueFullError",
        "ResultCache", "ServeError", "ServeMetrics", "error_for_code",
    ],
    "repro.streaming": [
        "StreamingIntervalEngine",
    ],
    "repro.errors": [
        "BadQueryError", "ClusterLifecycleError", "ERROR_CODES",
        "GraphFormatError", "QueryTimeoutError", "QueueFullError",
        "ServeError", "UnrecoverableRunError", "WorkerDiedError", "error_code",
    ],
}

def _defined_in_a_submodule(obj, name) -> bool:
    """``obj`` is what some loaded, non-package ``repro.*`` module holds
    under ``name`` (classes and functions: the module they name)."""
    home = getattr(obj, "__module__", None)
    if isinstance(home, str) and home in sys.modules and hasattr(obj, "__qualname__"):
        return getattr(sys.modules[home], obj.__qualname__, None) is obj
    return any(
        getattr(mod, name, None) is obj
        for modname, mod in list(sys.modules.items())
        if modname.startswith("repro.") and mod is not None
        and not hasattr(mod, "__path__")
    )


@pytest.mark.parametrize("pkg", sorted(PINNED_ALL))
def test_all_is_the_pinned_surface(pkg):
    module = importlib.import_module(pkg)
    assert sorted(module.__all__) == PINNED_ALL[pkg]
    assert set(dir(module)) >= set(module.__all__)


@pytest.mark.parametrize("pkg", sorted(PINNED_ALL))
def test_exports_are_the_submodules_objects_and_get_cached(pkg):
    module = importlib.import_module(pkg)
    for name in module.__all__:
        obj = getattr(module, name)
        if name == "__version__":  # defined in the package itself
            continue
        assert _defined_in_a_submodule(obj, name), f"{pkg}.{name}"
        # The second access is a plain attribute hit, not __getattr__.
        assert vars(module)[name] is obj
        assert getattr(module, name) is obj


@pytest.mark.parametrize("pkg", sorted(PINNED_ALL))
def test_star_import_binds_exactly_all(pkg):
    namespace = {}
    exec(f"from {pkg} import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert sorted(bound) == PINNED_ALL[pkg]


@pytest.mark.parametrize("pkg", sorted(PINNED_ALL))
def test_unknown_attribute_raises_the_standard_error(pkg):
    module = importlib.import_module(pkg)
    with pytest.raises(AttributeError) as err:
        module.no_such_export
    assert str(err.value) == f"module {pkg!r} has no attribute 'no_such_export'"
    assert not hasattr(module, "no_such_export")


def test_the_front_door_is_reachable_as_an_attribute():
    # ``from . import api`` used to make this work after a bare ``import repro``.
    assert repro.api is importlib.import_module("repro.api")


_RACE = """
import sys, threading
sys.setswitchinterval(1e-5)
import repro.serve as pkg
assert "GraphService" not in vars(pkg) and "repro.serve.service" not in sys.modules
barrier = threading.Barrier(16)
got = []
def resolve():
    barrier.wait()
    got.append(pkg.GraphService)
threads = [threading.Thread(target=resolve) for _ in range(16)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
from repro.serve.service import GraphService
assert len(got) == 16 and all(g is GraphService for g in got), got
assert vars(pkg)["GraphService"] is GraphService
print("one object")
"""


def test_sixteen_threads_resolving_a_cold_name_get_one_object():
    assert run_fresh(_RACE).strip() == "one object"
