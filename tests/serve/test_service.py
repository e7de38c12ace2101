"""Tests for the GraphService serving tier.

The load-bearing property is *serving equivalence*: every answer the
service produces — cached or computed, serial or parallel, full-horizon
or interval-sliced — must be bit-identical to a direct ``api.run`` over
the equivalent graph.  Around that: the FIFO scheduler's backpressure
contract, deadline cancellation with a provably clean engine afterwards
(satellite: executor lifecycle reuse), the cache counters, and the
query-lifecycle events/metrics.
"""

import gc
import io
import json
import sys
import threading
import time

import pytest

from repro import api
from repro.algorithms.td.sssp import TemporalSSSP
from repro.algorithms.ti.bfs import TemporalBFS
from repro.algorithms.ti.pagerank import TemporalPageRank
from repro.core.interval import Interval
from repro.core.results_io import export_states_json
from repro.datasets import transit_graph
from repro.graph import GraphWindow
from repro.obs.events import EVENT_SCHEMA_VERSION
from repro.obs.exporters import prometheus_text, render_summary
from repro.obs.observers import InMemoryEvents
from repro.query.slice import temporal_slice
from repro.runtime.cluster import SimulatedCluster
from repro.serve import (
    BadQueryError,
    GraphService,
    QueryRequest,
    QueryTimeoutError,
    QueueFullError,
    ServeError,
)

WORKERS = 4


def make_program(algorithm, graph, source="A"):
    if algorithm == "PR":
        return TemporalPageRank(graph)
    return {"BFS": TemporalBFS, "SSSP": TemporalSSSP}[algorithm](source)


def direct_payload(graph, algorithm, source="A"):
    """What a one-shot batch run answers — the serving ground truth."""
    result = api.run(
        graph,
        make_program(algorithm, graph, source),
        cluster=SimulatedCluster(WORKERS),
        graph_name="transit",
    )
    doc = export_states_json(result, io.StringIO())
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)


def make_service(**options):
    return api.serve(transit_graph(), graph_name="transit", workers=WORKERS,
                     options=options)


@pytest.mark.usefixtures("executor")
class TestServingEquivalence:
    @pytest.mark.parametrize("executor", ["serial", "parallel"])
    @pytest.mark.parametrize("algorithm", ["BFS", "SSSP", "PR"])
    def test_cached_and_uncached_answers_match_direct_run(
        self, algorithm, executor
    ):
        options = {"executor": executor}
        if executor == "parallel":
            options["executor_processes"] = 2
        with make_service(**options) as service:
            params = {"source": "A"} if algorithm != "PR" else None
            cold = service.query(algorithm, params=params)
            warm = service.query(algorithm, params=params)
        assert not cold.cache_hit
        assert warm.cache_hit
        expected = direct_payload(transit_graph(), algorithm)
        assert cold.payload == expected
        assert warm.payload == expected

    def test_three_query_session_matches_three_direct_runs(self):
        """The acceptance scenario: cold, repeat, different interval —
        bit-identical to three direct ``api.run`` calls, with the repeat
        served from cache (hit counter exactly 1)."""
        with make_service() as service:
            a1 = service.query("SSSP", params={"source": "A"})
            a2 = service.query("SSSP", params={"source": "A"})
            a3 = service.query("SSSP", params={"source": "A"},
                               interval=(0, 3))
            hits = service.cache.stats.hits
            metrics_hits = service.metrics.cache_hits
        assert (a1.cache_hit, a2.cache_hit, a3.cache_hit) == (
            False, True, False)
        assert hits == 1
        assert metrics_hits == 1
        assert a1.payload == direct_payload(transit_graph(), "SSSP")
        assert a2.payload == a1.payload
        sliced = temporal_slice(transit_graph(), Interval(0, 3))
        assert a3.payload == direct_payload(sliced, "SSSP")
        assert a3.payload != a1.payload  # the interval genuinely matters

    def test_interval_accepts_interval_objects(self):
        with make_service() as service:
            a = service.query("BFS", params={"source": "A"},
                              interval=Interval(0, 3))
            b = service.query("BFS", params={"source": "A"},
                              interval=(0, 3))
        assert b.cache_hit  # same canonical key
        assert a.payload == b.payload

    def test_no_cache_option_bypasses_the_cache(self):
        with make_service() as service:
            service.query("BFS", params={"source": "A"})
            again = service.query("BFS", params={"source": "A"},
                                  options={"no_cache": True})
            assert not again.cache_hit
            assert service.cache.stats.hits == 0

    def test_default_source_is_deterministic(self):
        with make_service() as service:
            a = service.query("BFS")
            b = service.query("BFS")
        assert b.cache_hit
        assert a.payload == b.payload


@pytest.mark.usefixtures("executor")
class TestWindowedQueries:
    """A bounded interval is answered on a zero-copy window view of the one
    resident graph; ``temporal_slice`` is only the oracle here."""

    WINDOWS = [(0, 3), (2, 6), (1, 9), (4, None), (3, 5), (0, 9), (5, None),
               (2, 4)]

    @staticmethod
    def oracle(algorithm, window):
        start, end = window
        sliced = temporal_slice(
            transit_graph(), Interval(start) if end is None else Interval(start, end))
        return direct_payload(sliced, algorithm)

    def test_two_threads_with_different_windows_over_one_resident_graph(self):
        """Every window shares the resident piece index: two lanes
        answering different windows at once must each get the answer a
        materialised slice gives."""
        got = {}

        def client(service, algorithm, windows):
            for window in windows:
                got[algorithm, window] = service.query(
                    algorithm, params={"source": "A"}, interval=window,
                    options={"no_cache": True}).payload

        with make_service(serve_max_concurrency=2) as service:
            threads = [
                threading.Thread(target=client,
                                 args=(service, "SSSP", self.WINDOWS)),
                threading.Thread(target=client,
                                 args=(service, "BFS", self.WINDOWS[::-1])),
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 2 * len(self.WINDOWS)
        for (algorithm, window), payload in got.items():
            assert payload == self.oracle(algorithm, window), (algorithm, window)

    @pytest.mark.parametrize("executor", ["serial", "parallel"])
    @pytest.mark.parametrize("algorithm", ["BFS", "SSSP", "PR"])
    def test_windowed_answers_match_the_materialised_slice(
        self, algorithm, executor
    ):
        options = {"executor": executor}
        if executor == "parallel":
            options["executor_processes"] = 2
        params = {"source": "A"} if algorithm != "PR" else None
        with make_service(**options) as service:
            for window in self.WINDOWS[:4]:
                answer = service.query(algorithm, params=params, interval=window)
                assert answer.payload == self.oracle(algorithm, window), window

    def test_service_holds_no_per_window_state(self):
        def sizes(obj):
            return {name: len(value) for name, value in vars(obj).items()
                    if hasattr(value, "__len__")}

        with make_service() as service:
            service.query("SSSP", params={"source": "A"}, interval=(0, 3),
                          options={"no_cache": True})  # first touches done
            before = sizes(service), sizes(service.graph)
            for start in range(6):
                for end in (start + 2, start + 4, start + 7, start + 9, None):
                    service.query("SSSP", params={"source": "A"},
                                  interval=(start, end),
                                  options={"no_cache": True})
            assert service.metrics.queries_served == 31
            assert (sizes(service), sizes(service.graph)) == before
            gc.collect()
            # At most the last run's view, still referenced by the single
            # lane's executor until its next run replaces it.
            assert sum(isinstance(o, GraphWindow) for o in gc.get_objects()) <= 1

    def test_full_queue_rejects_a_windowed_query_before_touching_the_graph(self):
        """Admission comes first: a rejected query must not have walked
        the resident graph (it used to be sliced before the queue check)."""
        graph = transit_graph()
        with GraphService(
            graph, graph_name="transit", workers=WORKERS,
            options={"serve_max_concurrency": 1, "serve_queue_depth": 0},
        ) as service:
            service.query("BFS", params={"source": "A"})  # fingerprints done
            walks = []
            for name in ("vertices", "edges", "vertex_ids"):
                real = getattr(graph, name)
                setattr(graph, name,
                        lambda real=real, name=name: (walks.append(name), real())[1])

            holder = threading.Thread(target=lambda: service.query(
                "BFS", params={"source": "B"},
                options={"hold_s": 1.0, "no_cache": True}))
            holder.start()
            time.sleep(0.3)  # let the holder take the single lane
            del walks[:]
            with pytest.raises(QueueFullError):
                service.query("SSSP", params={"source": "A"}, interval=(0, 3))
            rejected_walks = list(walks)
            holder.join()
        assert rejected_walks == []

    def test_timeout_covers_everything_a_windowed_query_does(self):
        """The deadline runs from submission: time spent preparing the
        window counts against ``timeout_s`` (slicing used to precede the
        deadline)."""
        graph = transit_graph()
        with GraphService(graph, graph_name="transit",
                          workers=WORKERS) as service:
            service.query("BFS", params={"source": "A"})  # fingerprints done
            real = graph.vertices

            def slow_vertices():
                time.sleep(0.4)
                return real()

            graph.vertices = slow_vertices
            with pytest.raises(QueryTimeoutError):
                service.query("SSSP", params={"source": "A"}, interval=(0, 3),
                              options={"timeout_s": 0.2})
            del graph.vertices
            assert service.metrics.queries_timed_out == 1
            after = service.query("SSSP", params={"source": "A"},
                                  interval=(0, 3))
        assert after.payload == self.oracle("SSSP", (0, 3))

    def test_source_outside_the_window_is_a_bad_query(self):
        from repro.graph.builder import TemporalGraphBuilder

        builder = TemporalGraphBuilder()
        builder.add_vertex("A", 0, 4).add_vertex("B", 0, 10).add_vertex("C", 6, 10)
        builder.add_edge("A", "B", 1, 3, eid="e1")
        with GraphService(builder.build(), graph_name="tiny",
                          workers=WORKERS) as service:
            with pytest.raises(BadQueryError, match="'A'"):
                service.query("BFS", params={"source": "A"}, interval=(5, 9))
            # No source given and nothing alive: still typed, from the lane.
            with pytest.raises(BadQueryError, match="selects no vertices"):
                service.query("BFS", interval=(20, 30))
            assert service.query("BFS", interval=(5, 9)).doc["vertices"]


@pytest.mark.usefixtures("executor")
class TestCacheKeys:
    def test_key_carries_graph_and_config_fingerprints(self):
        with make_service() as service:
            key = service._cache_key("BFS", (("source", "A"),), None)
        assert service.graph_fp in key
        assert service.config_fp in key

    def test_different_graph_means_different_key(self):
        s1 = GraphService(transit_graph(), graph_name="transit",
                          workers=WORKERS)
        from repro.datasets import load_surrogate

        s2 = GraphService(load_surrogate("gplus", scale=0.25),
                          graph_name="gplus", workers=WORKERS)
        try:
            k1 = s1._cache_key("BFS", (), None)
            k2 = s2._cache_key("BFS", (), None)
            assert k1 != k2
            assert s1.graph_fp != s2.graph_fp
        finally:
            s1.close()
            s2.close()

    def test_different_cluster_shape_means_different_key(self):
        s1 = GraphService(transit_graph(), workers=4)
        s2 = GraphService(transit_graph(), workers=8)
        try:
            assert s1.graph_fp == s2.graph_fp
            assert s1.config_fp != s2.config_fp
        finally:
            s1.close()
            s2.close()

    def test_eviction_under_byte_budget(self):
        # Each transit answer is ~400 bytes; a 500-byte budget holds one.
        with make_service(serve_cache_bytes=500) as service:
            service.query("SSSP", params={"source": "A"})
            service.query("SSSP", params={"source": "B"})
            assert service.metrics.cache_evictions == 1
            assert service.metrics.cache_entries == 1
            # The evicted first answer recomputes (miss), not a stale hit.
            again = service.query("SSSP", params={"source": "A"})
            assert not again.cache_hit


@pytest.mark.usefixtures("executor")
class TestBackpressure:
    def test_queue_full_rejection_is_typed_and_counted(self):
        with make_service(serve_max_concurrency=1,
                          serve_queue_depth=0) as service:
            release = threading.Event()
            started = threading.Event()

            def hold():
                started.set()
                service.query("BFS", params={"source": "B"},
                              options={"hold_s": 1.0, "no_cache": True})

            thread = threading.Thread(target=hold)
            thread.start()
            started.wait()
            time.sleep(0.3)  # let the holder take the single lane
            with pytest.raises(QueueFullError) as exc:
                service.query("SSSP", params={"source": "B"},
                              options={"no_cache": True})
            thread.join()
            assert exc.value.code == "queue_full"
            assert exc.value.max_depth == 0
            assert service.metrics.queries_rejected == 1
            # Rejected work ran nothing and cached nothing.
            assert service.metrics.queries_served == 1

    def test_cache_hits_bypass_the_queue(self):
        """A hit needs no lane: even with the only lane held, cached
        queries answer immediately instead of queueing behind it."""
        with make_service(serve_max_concurrency=1,
                          serve_queue_depth=0) as service:
            service.query("BFS", params={"source": "A"})  # populate

            def hold():
                service.query("SSSP", params={"source": "B"},
                              options={"hold_s": 1.0, "no_cache": True})

            thread = threading.Thread(target=hold)
            thread.start()
            time.sleep(0.3)
            hit = service.query("BFS", params={"source": "A"})
            thread.join()
            assert hit.cache_hit

    def test_queued_query_runs_when_lane_frees(self):
        with make_service(serve_max_concurrency=1,
                          serve_queue_depth=2) as service:
            answers = []

            def q(source):
                answers.append(service.query(
                    "BFS", params={"source": source},
                    options={"hold_s": 0.2, "no_cache": True}))

            threads = [threading.Thread(target=q, args=(s,))
                       for s in ("A", "B", "C")]
            for t in threads:
                t.start()
                time.sleep(0.05)
            for t in threads:
                t.join()
            assert len(answers) == 3
            assert service.metrics.queries_served == 3
            assert service.metrics.queue_depth_peak >= 1
            assert service.metrics.queue_depth == 0


@pytest.mark.usefixtures("executor")
class TestDeadlines:
    @pytest.mark.parametrize("executor", ["serial", "parallel"])
    def test_timeout_cancels_and_lane_recovers_bit_identical(self, executor):
        """Satellite: after a cancelled run the lane's engine and warm
        executor are provably clean — the same query re-run answers
        bit-identically to a never-cancelled service."""
        options = {"executor": executor, "serve_max_concurrency": 1}
        if executor == "parallel":
            options["executor_processes"] = 2
        with make_service(**options) as service:
            with pytest.raises(QueryTimeoutError) as exc:
                service.query("PR", options={"timeout_s": 1e-9,
                                             "no_cache": True})
            assert exc.value.code == "timeout"
            assert service.metrics.queries_timed_out == 1
            after = service.query("PR")
        assert after.payload == direct_payload(transit_graph(), "PR")

    def test_timeout_in_queue_wait(self):
        with make_service(serve_max_concurrency=1,
                          serve_queue_depth=4) as service:
            def hold():
                service.query("BFS", params={"source": "B"},
                              options={"hold_s": 0.8, "no_cache": True})

            thread = threading.Thread(target=hold)
            thread.start()
            time.sleep(0.3)
            with pytest.raises(QueryTimeoutError):
                service.query("SSSP", params={"source": "B"},
                              options={"timeout_s": 0.05, "no_cache": True})
            thread.join()
            assert service.metrics.queries_timed_out == 1
            # The queue ticket was withdrawn — nothing leaks.
            assert service.metrics.queue_depth == 0

    def test_non_positive_timeout_rejected(self):
        with make_service() as service:
            with pytest.raises(BadQueryError, match="timeout_s"):
                service.query("BFS", options={"timeout_s": 0})


@pytest.mark.usefixtures("executor")
class TestBadQueries:
    def test_unknown_algorithm(self):
        with make_service() as service:
            with pytest.raises(BadQueryError, match="WCC"):
                service.query("WCC")

    def test_unknown_parameter(self):
        with make_service() as service:
            with pytest.raises(BadQueryError, match="damping"):
                service.query("PR", params={"damping": 0.9})

    def test_unknown_source_vertex(self):
        with make_service() as service:
            with pytest.raises(BadQueryError, match="ZZZ"):
                service.query("BFS", params={"source": "ZZZ"})

    def test_malformed_interval(self):
        with make_service() as service:
            with pytest.raises(BadQueryError, match="interval"):
                service.query("BFS", interval=(5, 2))
            with pytest.raises(BadQueryError, match="interval"):
                service.query("BFS", interval="0-5")

    def test_interval_past_every_lifespan_rejected(self):
        """An interval no entity of the graph survives into is a typed bad
        query, not a crash (transit vertices are unbounded, so this needs
        a graph with finite lifespans)."""
        from repro.graph.builder import TemporalGraphBuilder

        builder = TemporalGraphBuilder()
        builder.add_vertex("A", 0, 10)
        builder.add_vertex("B", 0, 10)
        builder.add_edge("A", "B", 2, 8, eid="e1")
        service = GraphService(builder.build(), graph_name="tiny",
                               workers=WORKERS)
        try:
            with pytest.raises(BadQueryError):
                service.query("BFS", params={"source": "A"},
                              interval=(5000, 6000))
        finally:
            service.close()

    def test_closed_service_rejects_queries(self):
        service = make_service()
        service.close()
        with pytest.raises(ServeError, match="closed"):
            service.query("BFS", options={"no_cache": True})
        service.close()  # idempotent


@pytest.mark.usefixtures("executor")
class TestObservability:
    def test_query_lifecycle_events_are_emitted_and_schema_valid(self):
        events = InMemoryEvents()
        service = api.serve(transit_graph(), graph_name="transit",
                            workers=WORKERS, observe=events)
        with service:
            service.query("SSSP", params={"source": "A"})
            service.query("SSSP", params={"source": "A"})
        types = [r["type"] for r in events.records]
        # Cold query: admitted, engine run bracket, end.
        assert types[0] == "query_admitted"
        assert types[1] == "query_start"
        assert not types[1:types.index("query_end")].count("cache_hit")
        assert "run_start" in types and "run_end" in types
        # Warm query: admitted, cache_hit, start, end — no engine run.
        warm = types[types.index("query_end") + 1:]
        assert warm == ["query_admitted", "cache_hit", "query_start",
                        "query_end"]
        assert types.count("run_start") == 1
        # Every record passed validate_event inside EventStream.emit and
        # carries the current schema version.
        assert all(r["v"] == EVENT_SCHEMA_VERSION for r in events.records)
        starts = [r for r in events.records if r["type"] == "query_start"]
        assert [s["data"]["cache_hit"] for s in starts] == [False, True]
        ends = [r for r in events.records if r["type"] == "query_end"]
        assert all(e["data"]["status"] == "ok" for e in ends)
        assert all(e["wall"]["latency_s"] >= 0 for e in ends)

    def test_cache_evict_event(self):
        events = InMemoryEvents()
        service = api.serve(
            transit_graph(), graph_name="transit", workers=WORKERS,
            options={"serve_cache_bytes": 500}, observe=events,
        )
        with service:
            service.query("SSSP", params={"source": "A"})
            service.query("SSSP", params={"source": "B"})
        evictions = events.of_type("cache_evict")
        assert len(evictions) == 1
        assert evictions[0]["data"]["evicted_entries"] == 1

    def test_metrics_render_in_both_exporters(self):
        with make_service() as service:
            service.query("BFS", params={"source": "A"})
            service.query("BFS", params={"source": "A"})
            prom = prometheus_text(service.metrics)
            summary = render_summary(service.metrics)
        assert 'repro_queries_served_total{platform="serve",' in prom
        assert "repro_cache_hits_total" in prom
        assert "repro_queue_depth" in prom
        assert "queries served" in summary
        assert "cache hit rate" in summary
        assert "0.500" in summary  # 1 hit / 2 lookups

    def test_stats_snapshot_is_json_friendly(self):
        with make_service() as service:
            service.query("BFS", params={"source": "A"})
            snapshot = service.stats()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["queries_served"] == 1
        assert snapshot["lanes"] == 1


class TestExecutorLifecycleReuse:
    """Satellite: one executor instance across many runs."""

    def test_parallel_executor_instance_reused_across_api_runs(self):
        from repro.runtime.executor import ParallelExecutor

        executor = ParallelExecutor(processes=2)
        graph = transit_graph()
        r1 = api.run(graph, TemporalSSSP("A"),
                     cluster=SimulatedCluster(WORKERS),
                     options={"executor": executor})
        r2 = api.run(graph, TemporalSSSP("A"),
                     cluster=SimulatedCluster(WORKERS),
                     options={"executor": executor})
        assert (export_states_json(r1, io.StringIO())
                == export_states_json(r2, io.StringIO()))
        executor.close()
        executor.close()  # idempotent: second close finds no processes

    @pytest.mark.usefixtures("executor")
    def test_start_clears_a_stale_aborted_run(self):
        """A lane whose previous run was torn down without reaching
        ``abort`` must not leak its workers into the next run: ``start``
        clears any stale processes first."""
        import multiprocessing as mp

        from repro.runtime.executor import ParallelExecutor
        from repro.runtime.workers import WorkerHost

        executor = ParallelExecutor(processes=2)
        stale = mp.get_context("fork").Process(target=time.sleep,
                                               args=(60,), daemon=True)
        stale.start()
        parent_conn, child_conn = mp.Pipe()
        executor._host = WorkerHost()
        executor._host.procs.append(stale)
        executor._host.conns.append(parent_conn)
        result = api.run(transit_graph(), TemporalSSSP("A"),
                         cluster=SimulatedCluster(WORKERS),
                         graph_name="transit",
                         options={"executor": executor})
        assert not stale.is_alive()  # reclaimed by the pre-start guard
        expected = json.loads(direct_payload(transit_graph(), "SSSP"))
        assert export_states_json(result, io.StringIO()) == expected
        executor.close()
        child_conn.close()

    def test_service_lanes_hold_executor_instances(self):
        with make_service(executor="parallel", executor_processes=2,
                          serve_max_concurrency=2) as service:
            executors = {id(lane.executor) for lane in service._lanes}
            assert len(executors) == 2  # one resident instance per lane
            a = service.query("BFS", params={"source": "A"},
                              options={"no_cache": True})
            b = service.query("BFS", params={"source": "A"},
                              options={"no_cache": True})
            assert a.payload == b.payload


    @pytest.mark.usefixtures("executor")
    def test_parallel_lanes_answer_concurrent_queries_like_serial(self):
        """Two lanes under ``executor=parallel``: each lane's thread hosts
        runtime 0 of its query in the daemon (the master is process 0)
        while the other lane's query runs beside it.  Concurrent BFS, SSSP
        and PR answers equal the serial ones."""
        queries = [("BFS", {"source": "A"}), ("SSSP", {"source": "A"}),
                   ("PR", None)] * 2
        got = [None] * len(queries)

        def client(service, i):
            algorithm, params = queries[i]
            got[i] = service.query(algorithm, params=params,
                                   options={"no_cache": True}).payload

        with make_service(executor="parallel", executor_processes=2,
                          serve_max_concurrency=2) as service:
            threads = [threading.Thread(target=client, args=(service, i))
                       for i in range(len(queries))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        expected = {algorithm: direct_payload(transit_graph(), algorithm)
                    for algorithm in ("BFS", "SSSP", "PR")}
        assert got == [expected[algorithm] for algorithm, _ in queries]

@pytest.mark.usefixtures("executor")
class TestSubmitRequests:
    def test_submit_takes_a_request_object(self):
        with make_service() as service:
            answer = service.submit(QueryRequest(
                algorithm="SSSP", params={"source": "A"}, interval=(0, 3)))
        assert answer.interval == (0, 3)
        assert answer.doc["algorithm"] == "SSSP"
        assert answer.doc["vertices"]
