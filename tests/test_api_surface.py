"""The `repro.api` front door: surface, options, env parsing, fingerprints.

These tests pin the public API: `EngineConfig` is the one way to configure
an engine (flat ``options`` dicts map onto it), the engine constructor
takes no per-option keywords, environment resolution lives in
`EngineConfig.from_env`, and observability settings never perturb the
checkpoint config fingerprint (traces are diagnostics, not semantics).
"""

import dataclasses

import pytest

from repro import api
from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.config import (
    EngineConfig,
    ObservabilityConfig,
    ServeConfig,
    WarpConfig,
)
from repro.core.engine import IntervalCentricEngine
from repro.datasets import transit_graph
from repro.obs.observers import InMemoryEvents
from repro.runtime.checkpoint import config_fingerprint
from repro.runtime.cluster import SimulatedCluster


def _engine(**kwargs):
    return IntervalCentricEngine(
        transit_graph(), TemporalSSSP("A"), cluster=SimulatedCluster(4), **kwargs
    )


# -- surface -------------------------------------------------------------------


def test_api_exports():
    expected = {
        "CheckpointConfig", "EngineConfig", "ExecutorConfig",
        "GraphFormatError", "IcmResult", "IntervalCentricEngine",
        "ObservabilityConfig", "StateConfig", "WarpConfig", "build_engine",
        "compare", "load_graph", "run", "serve",
    }
    assert expected <= set(api.__all__)
    for name in api.__all__:
        assert getattr(api, name) is not None


# -- load_graph: the one loading front door ------------------------------------


class TestLoadGraph:
    def test_dataset_by_name(self):
        graph = api.load_graph("transit")
        assert graph.num_vertices == 6
        scaled = api.load_graph("gplus", scale=0.25)
        assert scaled.num_vertices > 0

    def test_sniffs_text_binary_and_compact(self, tmp_path):
        from repro.graph.binary_io import dump_graph_binary
        from repro.graph.compact import CompactGraph
        from repro.graph.io import dump_graph

        graph = transit_graph()
        text, binary, compact = (
            tmp_path / "g.txt", tmp_path / "g.bin", tmp_path / "g.c2"
        )
        dump_graph(graph, text)
        dump_graph_binary(graph, binary)
        CompactGraph.from_temporal(graph).dump(compact)
        for path in (text, binary, compact):
            loaded = api.load_graph(str(path))
            assert (loaded.num_vertices, loaded.num_edges) == (6, 7)
        assert isinstance(api.load_graph(str(compact)), CompactGraph)

    def test_the_format_decides_the_store(self):
        from repro.graph.model import TemporalGraph

        assert isinstance(api.load_graph("transit"), TemporalGraph)
        with pytest.raises(api.GraphFormatError, match="store"):
            api.load_graph("transit", store="compact")

    def test_snap_sniff_and_contacts_explicit(self, tmp_path):
        events = tmp_path / "events.txt"
        events.write_text("1 2 3\n2 3 4\n1 3 5\n", encoding="utf-8")
        sniffed = api.load_graph(str(events))
        assert (sniffed.num_vertices, sniffed.num_edges) == (3, 3)
        # Contacts are never sniffed (their "t u v" column order is
        # indistinguishable from SNAP's "u v t" by eye) — explicit only.
        explicit = api.load_graph(str(events), format="contacts")
        assert explicit.num_edges == 3

    def test_unknown_name_is_a_format_error(self):
        with pytest.raises(api.GraphFormatError, match="named dataset"):
            api.load_graph("no-such-thing")

    def test_unknown_format_rejected(self):
        with pytest.raises(api.GraphFormatError, match="unknown graph format"):
            api.load_graph("transit", format="parquet")

    def test_unsniffable_file_names_the_formats(self, tmp_path):
        weird = tmp_path / "weird.txt"
        weird.write_text("completely unrelated prose\n", encoding="utf-8")
        with pytest.raises(api.GraphFormatError, match="cannot sniff"):
            api.load_graph(str(weird))

    def test_bad_itgr_version_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.itgr"
        bogus.write_bytes(b"ITGR\x09" + b"\x00" * 32)
        with pytest.raises(api.GraphFormatError, match="version 9"):
            api.load_graph(str(bogus))

    def test_stream_needs_explicit_format(self):
        import io

        with pytest.raises(api.GraphFormatError, match="open stream"):
            api.load_graph(io.StringIO("V v1 0 5\n"))

    def test_stray_options_rejected(self):
        with pytest.raises(api.GraphFormatError, match="bucket"):
            api.load_graph("transit", bucket=4)


def _partitions(result):
    return {vid: list(state) for vid, state in result.states.items()}


@pytest.mark.usefixtures("executor")
def test_run_and_build_engine_agree():
    result = api.run(transit_graph(), TemporalSSSP("A"))
    engine = api.build_engine(transit_graph(), TemporalSSSP("A"))
    assert _partitions(engine.run()) == _partitions(result)


def test_engine_config_is_frozen():
    config = EngineConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.max_supersteps = 5


# -- one spelling per option ---------------------------------------------------


def test_unknown_legacy_kwarg_raises():
    """The engine takes options through its config only: the keywords of
    the pre-config constructor are refused like any other."""
    for kwargs in ({"executor": "serial"}, {"max_supersteps": 7}, {"warp_speed": 9}):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            _engine(**kwargs)


def test_with_options_rejects_unknown_names():
    with pytest.raises(TypeError, match="unknown engine option 'warp_speed'"):
        EngineConfig().with_options(warp_speed=9)


#: Every option an engine takes, by its flat name.  Adding, renaming or
#: removing a knob is a change to this set and to the groups below.
OPTION_NAMES = {
    "enable_warp_combiner", "enable_receiver_combiner",
    "enable_dominated_elimination", "enable_warp_suppression",
    "warp_suppression_threshold", "coalesce_states",
    "prepartition_by_vertex_properties", "executor", "executor_processes",
    "fault_plan", "exchange_combine", "partitioner", "checkpoint_every",
    "checkpoint_dir", "max_restarts", "serve_max_concurrency",
    "serve_queue_depth", "serve_cache_bytes", "serve_timeout_s", "tracer",
    "trace_path", "max_supersteps",
}

#: Each config group's fields, in declaration order.
CONFIG_FIELDS = {
    "warp": ("enable_combiner", "enable_receiver_combiner",
             "enable_dominated_elimination", "enable_suppression",
             "suppression_threshold"),
    "state": ("coalesce", "prepartition_by_properties"),
    "executor": ("kind", "processes", "fault_plan"),
    "exchange": ("combine",),
    "partitioning": ("kind",),
    "checkpoint": ("every", "dir", "max_restarts"),
    "serve": ("max_concurrency", "max_queue_depth", "cache_bytes",
              "default_timeout_s"),
    "observability": ("observers", "trace_path", "tracer"),
}


def test_option_surface_is_pinned():
    """The flat names, the config groups and the fields they map onto: one
    table, and every option reaches a field."""
    from repro.core.config import _OPTION_MAP

    assert set(_OPTION_MAP) == OPTION_NAMES
    assert len(_OPTION_MAP) == 22
    groups = {f.name: f for f in dataclasses.fields(EngineConfig)}
    assert set(groups) == {*CONFIG_FIELDS, "max_supersteps"}
    for group, names in CONFIG_FIELDS.items():
        fields = dataclasses.fields(groups[group].default_factory())
        assert tuple(f.name for f in fields) == names, group
    for name, (group, fld) in _OPTION_MAP.items():
        owner = EngineConfig() if group is None else getattr(EngineConfig(), group)
        assert hasattr(owner, fld), name


# -- environment resolution ----------------------------------------------------


def test_from_env_reads_all_knobs():
    env = {
        "REPRO_CHECKPOINT_EVERY": "2",
        "REPRO_CHECKPOINT_DIR": "/tmp/ckpt",
        "REPRO_SERVE_CONCURRENCY": "3",
        "REPRO_SERVE_QUEUE_DEPTH": "0",
        "REPRO_SERVE_CACHE_BYTES": "0",
        "REPRO_SERVE_TIMEOUT_S": "2.5",
        # Retired: read by nothing, so set or unset alike.
        "REPRO_EXECUTOR": "parallel",
        "REPRO_FAULT_PLAN": "seed:7",
        "REPRO_PARTITIONER": "greedy",
    }
    config = EngineConfig.from_env(env)
    assert config.checkpoint.every == 2
    assert config.checkpoint.dir == "/tmp/ckpt"
    assert config.serve == ServeConfig(
        max_concurrency=3, max_queue_depth=0, cache_bytes=0,
        default_timeout_s=2.5,
    )
    # The executor, its fault plan and the partitioner are options of a
    # job, never of the environment.
    assert config.executor == EngineConfig().executor
    assert config.partitioning == EngineConfig().partitioning


def test_from_env_validates_eagerly():
    with pytest.raises(ValueError, match="REPRO_CHECKPOINT_EVERY='x'"):
        EngineConfig.from_env({"REPRO_CHECKPOINT_EVERY": "x"})
    with pytest.raises(ValueError, match="REPRO_SERVE_CONCURRENCY='0'"):
        EngineConfig.from_env({"REPRO_SERVE_CONCURRENCY": "0"})
    with pytest.raises(ValueError, match="REPRO_SERVE_QUEUE_DEPTH='-1'"):
        EngineConfig.from_env({"REPRO_SERVE_QUEUE_DEPTH": "-1"})
    with pytest.raises(ValueError, match="REPRO_SERVE_CACHE_BYTES='lots'"):
        EngineConfig.from_env({"REPRO_SERVE_CACHE_BYTES": "lots"})
    with pytest.raises(ValueError, match="REPRO_SERVE_TIMEOUT_S='0'"):
        EngineConfig.from_env({"REPRO_SERVE_TIMEOUT_S": "0"})


def test_executor_fixture_sets_the_default_executor(executor):
    """The suite's shared ``executor`` fixture reaches an engine built with
    no config; under ``-m matrix`` that is the parallel executor."""
    result = api.run(transit_graph(), TemporalSSSP("A"))
    assert result.metrics.executor == executor


def test_partitioner_options_map_to_config():
    config = EngineConfig().with_options(partitioner="range")
    assert config.partitioning.kind == "range"
    # The seed and the greedy balance budget are the factory's defaults.
    for retired in ("partitioner_seed", "partitioner_slack"):
        with pytest.raises(TypeError, match=retired):
            EngineConfig().with_options(**{retired: 1})


# -- observability vs checkpoint fingerprint -----------------------------------


def test_fingerprint_ignores_observability():
    plain = _engine(config=EngineConfig())
    observed = _engine(config=EngineConfig(
        observability=ObservabilityConfig(observers=(InMemoryEvents(),)),
    ))
    traced = _engine(config=EngineConfig(
        observability=ObservabilityConfig(trace_path="/tmp/x.trace"),
    ))
    assert config_fingerprint(plain) == config_fingerprint(observed)
    assert config_fingerprint(plain) == config_fingerprint(traced)


def test_fingerprint_stable_across_legacy_and_config_spellings():
    """The flat option names (the old constructor keywords) and the config
    groups are two spellings of one configuration."""
    flat = api.build_engine(
        transit_graph(), TemporalSSSP("A"), cluster=SimulatedCluster(4),
        options={"enable_warp_suppression": False},
    )
    modern = _engine(config=EngineConfig(warp=WarpConfig(enable_suppression=False)))
    assert config_fingerprint(flat) == config_fingerprint(modern)


def test_fingerprint_of_the_default_config_is_pinned():
    """A checkpoint written before stays resumable: the default SSSP run's
    config fingerprint on ``transit`` is the one checkpoints carry."""
    engine = api.build_engine(transit_graph(), TemporalSSSP("A"), config=EngineConfig())
    assert config_fingerprint(engine) == (
        "1a1b7d90f0148d8395f99e50a80ce1f8763c947891b7b120c78c8f5cdb9206f1"
    )


def test_fingerprint_tracks_modeled_options():
    base = _engine(config=EngineConfig())
    tweaked = _engine(config=EngineConfig(warp=WarpConfig(enable_combiner=False)))
    assert config_fingerprint(base) != config_fingerprint(tweaked)


# -- observe coercion ----------------------------------------------------------


@pytest.mark.usefixtures("executor")
def test_observe_accepts_path_observer_and_iterable(tmp_path):
    trace = tmp_path / "run.trace"
    events = InMemoryEvents()
    api.run(transit_graph(), TemporalSSSP("A"), observe=str(trace))
    assert trace.exists() and trace.read_text().strip()
    api.run(transit_graph(), TemporalSSSP("A"), observe=events)
    assert events.records
    more = InMemoryEvents()
    api.run(transit_graph(), TemporalSSSP("A"), observe=[more])
    assert more.logical() == events.logical()


def test_observe_config_merges_with_base_config():
    base_events, extra_events = InMemoryEvents(), InMemoryEvents()
    config = EngineConfig(
        observability=ObservabilityConfig(observers=(base_events,))
    )
    api.run(transit_graph(), TemporalSSSP("A"), config=config, observe=extra_events)
    assert base_events.records and extra_events.records
    assert base_events.logical() == extra_events.logical()
