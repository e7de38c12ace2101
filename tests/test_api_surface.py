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
from repro.core.config import EngineConfig, ObservabilityConfig, WarpConfig
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


# -- environment resolution ----------------------------------------------------


def test_from_env_reads_all_knobs():
    env = {
        "REPRO_EXECUTOR": "parallel",
        "REPRO_EXECUTOR_PROCESSES": "3",
        "REPRO_CHECKPOINT_EVERY": "2",
        "REPRO_CHECKPOINT_DIR": "/tmp/ckpt",
        "REPRO_FAULT_PLAN": "seed:7",
        "REPRO_PARTITIONER": "interval_greedy",
    }
    config = EngineConfig.from_env(env)
    assert config.executor.kind == "parallel"
    assert config.executor.kind_from_env is True
    assert config.executor.processes == 3
    assert config.executor.fault_plan == "seed:7"
    assert config.checkpoint.every == 2
    assert config.checkpoint.dir == "/tmp/ckpt"
    assert config.partitioning.kind == "interval_greedy"
    assert config.partitioning.kind_from_env is True


def test_from_env_validates_eagerly():
    with pytest.raises(ValueError, match="REPRO_EXECUTOR_PROCESSES='x'"):
        EngineConfig.from_env({"REPRO_EXECUTOR_PROCESSES": "x"})
    with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
        EngineConfig.from_env({"REPRO_EXECUTOR": "threads"})
    with pytest.raises(ValueError, match="fault plan|REPRO_FAULT_PLAN"):
        EngineConfig.from_env({"REPRO_FAULT_PLAN": "nonsense"})
    with pytest.raises(ValueError, match="REPRO_PARTITIONER='metis'"):
        EngineConfig.from_env({"REPRO_PARTITIONER": "metis"})


def test_explicit_executor_clears_env_provenance():
    config = EngineConfig.from_env({"REPRO_EXECUTOR": "parallel"})
    assert config.executor.kind_from_env is True
    overridden = config.with_options(executor="parallel")
    assert overridden.executor.kind_from_env is False


def test_explicit_partitioner_clears_env_provenance():
    config = EngineConfig.from_env({"REPRO_PARTITIONER": "greedy"})
    assert config.partitioning.kind_from_env is True
    overridden = config.with_options(partitioner="greedy")
    assert overridden.partitioning.kind_from_env is False
    assert overridden.partitioning.kind == "greedy"


def test_partitioner_options_map_to_config():
    config = EngineConfig().with_options(
        partitioner="range", partitioner_seed=3, partitioner_slack=1.25
    )
    assert config.partitioning.kind == "range"
    assert config.partitioning.seed == 3
    assert config.partitioning.capacity_slack == 1.25
    with pytest.raises(ValueError, match="capacity_slack"):
        EngineConfig().with_options(partitioner_slack=0.5)


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


def test_fingerprint_tracks_modeled_options():
    base = _engine(config=EngineConfig())
    tweaked = _engine(config=EngineConfig(warp=WarpConfig(enable_combiner=False)))
    assert config_fingerprint(base) != config_fingerprint(tweaked)


# -- observe coercion ----------------------------------------------------------


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
