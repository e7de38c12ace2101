#!/usr/bin/env python
"""End-to-end smoke test for the ``repro.serve`` daemon — the CI leg.

Spawns a real ``python -m repro serve`` daemon subprocess (concurrency 1,
queue depth 0, so backpressure is forced deterministically), then drives
it over the Unix socket through the real wire client:

1. wait for the socket and ``ping``;
2. a cold query (engine run, cache miss);
3. the identical query again — must be a cache hit with a byte-identical
   payload, and the daemon's stats counter must read exactly one hit;
4. a held query (``hold_s``) pinning the single lane while a concurrent
   query is rejected with the typed ``queue_full`` backpressure error;
5. a different-interval query — a distinct cache key, answered cold, and
   byte-identical to a direct ``api.run`` over ``temporal_slice`` of the
   same graph (the daemon answers it on a zero-copy window view);
6. a live scrape of the ``--metrics-port`` HTTP endpoint: valid
   Prometheus text carrying the serve counters, the query-latency
   histogram series and the per-lane heartbeat gauges;
7. a clean ``shutdown`` frame: the daemon exits 0 and removes its socket.

Exits non-zero (via assert) on any violation.  No third-party deps.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import api  # noqa: E402
from repro.algorithms.td.sssp import TemporalSSSP  # noqa: E402
from repro.core.interval import Interval  # noqa: E402
from repro.core.results_io import states_document  # noqa: E402
from repro.datasets import transit_graph  # noqa: E402
from repro.query.slice import temporal_slice  # noqa: E402
from repro.runtime.cluster import SimulatedCluster  # noqa: E402
from repro.serve import QueueFullError  # noqa: E402
from repro.serve.client import QueryClient  # noqa: E402


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    socket_path = os.path.join(tmp, "repro.sock")
    metrics_port = _free_port()
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--dataset", "transit", "--workers", "4",
         "--max-concurrency", "1", "--queue-depth", "0",
         "--metrics-port", str(metrics_port)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        with QueryClient.connect(socket_path, timeout_s=30.0) as client:
            assert client.ping(), "daemon did not answer ping"
            print("ping: ok")

            cold = client.query("SSSP", params={"source": "A"})
            assert not cold.cache_hit, "first query must be a cache miss"
            assert cold.doc["vertices"], "cold answer carried no vertices"
            print(f"cold query: ok ({cold.latency_s * 1e3:.1f} ms)")

            warm = client.query("SSSP", params={"source": "A"})
            assert warm.cache_hit, "repeat query must be a cache hit"
            assert warm.payload == cold.payload, (
                "cache hit diverged from the cold answer"
            )
            stats = client.stats()
            assert stats["cache_hits"] == 1, (
                f"expected exactly 1 cache hit, stats say "
                f"{stats['cache_hits']}"
            )
            print(f"cache hit: ok ({warm.latency_s * 1e6:.0f} us, "
                  f"counter == 1)")

            # Pin the single lane with a held query on a second
            # connection; with queue depth 0 a concurrent query must be
            # rejected with the typed backpressure error.
            with QueryClient.connect(socket_path) as holder:
                held = threading.Thread(
                    target=lambda: holder.query(
                        "BFS", params={"source": "B"},
                        options={"hold_s": 2.0, "no_cache": True}))
                held.start()
                rejected = False
                try:
                    import time

                    time.sleep(0.5)  # let the held query take the lane
                    client.query("PR", options={"no_cache": True})
                except QueueFullError as exc:
                    rejected = True
                    assert exc.code == "queue_full"
                finally:
                    held.join()
            assert rejected, "queue-full rejection never fired"
            print("backpressure: ok (typed queue_full rejection)")

            sliced = client.query("SSSP", params={"source": "A"},
                                  interval=(0, 3))
            assert not sliced.cache_hit, (
                "a different interval must be a distinct cache key"
            )
            direct = api.run(
                temporal_slice(transit_graph(), Interval(0, 3)),
                TemporalSSSP("A"), cluster=SimulatedCluster(4),
                graph_name="transit",
            )
            assert sliced.payload == json.dumps(
                states_document(direct), sort_keys=True,
                separators=(",", ":"), default=str,
            ), (
                "interval query diverged from a direct run over temporal_slice"
            )
            assert sliced.payload != cold.payload, (
                "interval query answered with the full-horizon payload"
            )
            print("interval query: ok (distinct cache key, equals the "
                  "materialised-slice run)")

            # Scrape the live metrics endpoint while the daemon serves.
            with urllib.request.urlopen(
                f"http://127.0.0.1:{metrics_port}/metrics", timeout=10
            ) as response:
                assert response.status == 200
                body = response.read().decode("utf-8")
            for needle in (
                "# TYPE repro_queries_served_total counter",
                "repro_queries_served_total",
                "# TYPE repro_query_latency_seconds histogram",
                'repro_query_latency_seconds_bucket',
                'le="+Inf"',
                "repro_query_latency_seconds_count",
                "# TYPE repro_serve_lane_idle_seconds gauge",
                'repro_serve_lane_queries_total{lane="0"}',
                'repro_serve_lane_idle_seconds{lane="0"',
            ):
                assert needle in body, f"metrics scrape missing {needle!r}"
            served = next(
                line for line in body.splitlines()
                if line.startswith("repro_queries_served_total")
            )
            assert int(served.rsplit(" ", 1)[1]) >= 4, (
                f"served counter too low in scrape: {served}"
            )
            print(f"metrics scrape: ok ({len(body.splitlines())} lines "
                  f"from port {metrics_port})")

            client.shutdown()
        daemon.wait(timeout=30)
        assert daemon.returncode == 0, (
            f"daemon exited {daemon.returncode}, expected 0"
        )
        assert not os.path.exists(socket_path), (
            "daemon left its socket file behind"
        )
        print("shutdown: ok (exit 0, socket removed)")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        out = daemon.stdout.read() if daemon.stdout else ""
        if out:
            print("--- daemon output ---")
            print(out, end="")
    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
