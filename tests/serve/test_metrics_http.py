"""The live metrics endpoint: `GET /metrics` over a real GraphService.

Covers the scrape body (registry metrics, latency histogram series,
per-lane heartbeat gauges), the HTTP surface (content type, 404 for
anything but /metrics, ephemeral port binding), lane heartbeat
bookkeeping, and endpoint lifecycle (idempotent stop, context manager).
"""

import urllib.error
import urllib.request

import pytest

from repro import api
from repro.datasets import transit_graph
from repro.serve.metrics_http import MetricsEndpoint, render_scrape

pytestmark = pytest.mark.usefixtures("executor")


@pytest.fixture
def service():
    with api.serve(transit_graph(), graph_name="transit", workers=5,
                   options={"serve_max_concurrency": 2}) as svc:
        yield svc


def _scrape(port, path="/metrics"):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return response, response.read().decode("utf-8")


class TestRenderScrape:
    def test_carries_registry_metrics_and_heartbeats(self, service):
        service.query("SSSP", params={"source": "A"})
        service.query("SSSP", params={"source": "A"})  # cache hit, no lane
        body = render_scrape(service)
        assert "# TYPE repro_queries_served_total counter" in body
        served = next(line for line in body.splitlines()
                      if line.startswith("repro_queries_served_total"))
        assert int(served.rsplit(" ", 1)[1]) == 2
        # The latency histogram observed both queries.
        count = next(line for line in body.splitlines()
                     if line.startswith("repro_query_latency_seconds_count"))
        assert int(count.rsplit(" ", 1)[1]) == 2
        assert 'le="+Inf"' in body
        # One heartbeat pair per lane, all idle after the queries.
        for lane in range(2):
            assert f'repro_serve_lane_queries_total{{lane="{lane}"}}' in body
            assert (f'repro_serve_lane_idle_seconds{{lane="{lane}",busy="0"}}'
                    in body)

    def test_lane_heartbeats_count_real_executions_only(self, service):
        service.query("BFS", params={"source": "A"})
        service.query("BFS", params={"source": "A"})  # hit: no lane taken
        beats = service.heartbeats()
        assert [b["lane"] for b in beats] == [0, 1]
        assert sum(b["queries"] for b in beats) == 1
        assert all(not b["busy"] for b in beats)
        assert all(b["age_s"] >= 0.0 for b in beats)


class TestEndpoint:
    def test_scrape_over_http_on_ephemeral_port(self, service):
        service.query("PR")
        with MetricsEndpoint(service, port=0) as endpoint:
            assert endpoint.port > 0
            response, body = _scrape(endpoint.port)
            assert response.status == 200
            assert response.headers["Content-Type"] == \
                "text/plain; version=0.0.4; charset=utf-8"
            # Byte-equality with render_scrape can't hold (idle ages move
            # between renders); assert the load-bearing series instead.
            assert "# TYPE repro_queries_served_total counter" in body
            assert "repro_query_latency_seconds_bucket" in body
            assert 'repro_serve_lane_queries_total{lane="0"}' in body
            assert 'repro_serve_lane_idle_seconds{lane="0"' in body

    def test_only_metrics_path_is_served(self, service):
        with MetricsEndpoint(service, port=0) as endpoint:
            with pytest.raises(urllib.error.HTTPError) as err:
                _scrape(endpoint.port, "/stats")
            assert err.value.code == 404
            # and /metrics still answers afterwards
            response, _ = _scrape(endpoint.port)
            assert response.status == 200

    def test_stop_is_idempotent_and_port_requires_start(self, service):
        endpoint = MetricsEndpoint(service, port=0)
        with pytest.raises(RuntimeError):
            endpoint.port
        endpoint.start()
        port = endpoint.port
        endpoint.stop()
        endpoint.stop()  # second stop is a no-op
        with pytest.raises(RuntimeError):
            endpoint.port
        with pytest.raises(urllib.error.URLError):
            _scrape(port)
