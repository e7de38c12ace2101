"""End-to-end tests for the Unix-socket daemon and its client.

The daemon runs in-process on a background thread; the client speaks the
real wire protocol over a real socket, so these tests cover frame
round-trips, typed error propagation across the wire, concurrent
connections, and clean shutdown (threads drained, service closed, socket
file removed).
"""

import io
import json
import os
import socket
import threading

import pytest

from repro import api
from repro.datasets import load_surrogate, transit_graph
from repro.serve import BadQueryError, QueueFullError, ServeError
from repro.serve.client import QueryClient
from repro.serve.daemon import ServeDaemon
from repro.serve.wire import EOF, MAX_FRAME_BYTES, encode_varint, read_frame


@pytest.fixture
def daemon(tmp_path):
    """A running daemon over transit on a fresh socket; cleans up after."""
    service = api.serve(transit_graph(), graph_name="transit", workers=4,
                        options={"serve_max_concurrency": 1,
                                 "serve_queue_depth": 0})
    d = ServeDaemon(service, str(tmp_path / "repro.sock"))
    d.start()  # bind before yielding so raw-socket tests can connect
    thread = threading.Thread(target=d.serve_forever, daemon=True)
    thread.start()
    try:
        yield d
    finally:
        d.request_shutdown()
        thread.join(timeout=15)
        assert not thread.is_alive()


class TestProtocol:
    def test_ping(self, daemon):
        with QueryClient.connect(daemon.socket_path) as client:
            assert client.ping()

    def test_query_roundtrip_and_cache_hit(self, daemon):
        with QueryClient.connect(daemon.socket_path) as client:
            cold = client.query("SSSP", params={"source": "A"})
            warm = client.query("SSSP", params={"source": "A"})
        assert not cold.cache_hit
        assert warm.cache_hit
        assert cold.payload == warm.payload
        doc = cold.doc
        assert doc["algorithm"] == "SSSP"
        assert doc["graph"] == "transit"

    def test_wire_answer_matches_in_process_answer(self, daemon):
        with QueryClient.connect(daemon.socket_path) as client:
            remote = client.query("BFS", params={"source": "A"},
                                  interval=(0, 3))
        local = daemon.service.query("BFS", params={"source": "A"},
                                     interval=(0, 3))
        assert local.cache_hit  # the remote query populated the cache
        assert remote.payload == local.payload

    def test_stats(self, daemon):
        with QueryClient.connect(daemon.socket_path) as client:
            client.query("PR")
            stats = client.stats()
        assert stats["queries_served"] == 1
        assert stats["graph"] == "transit"
        assert stats["supported_algorithms"] == ["BFS", "SSSP", "PR",
                                                 "EAT", "RH"]

    def test_typed_errors_cross_the_wire(self, daemon):
        with QueryClient.connect(daemon.socket_path) as client:
            with pytest.raises(BadQueryError, match="WCC"):
                client.query("WCC")
            # The error did not poison the connection.
            assert client.ping()
            answer = client.query("EAT", params={"source": "A"})
            assert answer.doc["vertices"]

    def test_queue_full_crosses_the_wire(self, daemon):
        with QueryClient.connect(daemon.socket_path) as holder, \
                QueryClient.connect(daemon.socket_path) as prober:
            barrier = threading.Thread(
                target=lambda: holder.query(
                    "BFS", params={"source": "B"},
                    options={"hold_s": 1.0, "no_cache": True}))
            barrier.start()
            import time

            time.sleep(0.3)
            with pytest.raises(QueueFullError) as exc:
                prober.query("SSSP", params={"source": "B"},
                             options={"no_cache": True})
            barrier.join()
            assert exc.value.code == "queue_full"

    def test_concurrent_clients(self, daemon):
        """Four clients at once against one lane with queue depth 0:
        rejected clients follow the documented backpressure contract
        (back off and retry) and every query is eventually answered."""
        import time

        answers = []

        def ask(source):
            with QueryClient.connect(daemon.socket_path) as client:
                while True:
                    try:
                        answers.append(client.query(
                            "BFS", params={"source": source}))
                        return
                    except QueueFullError:
                        time.sleep(0.05)

        threads = [threading.Thread(target=ask, args=(s,))
                   for s in ("A", "B", "C", "A")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(answers) == 4
        by_a = [a.payload for a in answers if a.doc and "A" in str(a.doc)]
        assert by_a  # all four queries answered


class TestMalformedInput:
    def test_garbage_bytes_drop_connection_not_daemon(self, daemon):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(daemon.socket_path)
        # A length prefix promising a huge frame, then a torn stream.
        raw.sendall(encode_varint(100) + b"\xff" * 10)
        raw.close()
        with QueryClient.connect(daemon.socket_path) as client:
            assert client.ping()  # daemon survived

    @pytest.mark.parametrize(
        "header", [b"\xff" * 11, encode_varint(1 << 60)],
        ids=["runaway-prefix", "one-EiB-length"],
    )
    def test_unbounded_frame_header_fails_fast(self, daemon, header):
        """The length prefix is refused before any body byte is awaited:
        a typed error names the limit, then the connection closes."""
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10)
        try:
            raw.connect(daemon.socket_path)
            raw.sendall(header)
            response = read_frame(raw.recv)
            assert response[:2] == ("err", "bad_query")
            assert str(MAX_FRAME_BYTES) in response[2]
            try:
                closed = read_frame(raw.recv) is EOF
            except ConnectionResetError:  # header bytes were left unread
                closed = True
            assert closed
        finally:
            raw.close()
        with QueryClient.connect(daemon.socket_path) as client:
            assert client.ping()  # daemon survived

    def test_large_answer_still_roundtrips(self, tmp_path):
        """Tens of kilobytes — a 3-byte length prefix — pass the bound."""
        service = api.serve(load_surrogate("twitter", scale=2.0),
                            graph_name="twitter")
        with ServeDaemon(service, str(tmp_path / "big.sock")) as d:
            thread = threading.Thread(target=d.serve_forever, daemon=True)
            thread.start()
            with QueryClient.connect(d.socket_path) as client:
                remote = client.query("SSSP")
            local = service.query("SSSP")
            d.request_shutdown()
            thread.join(timeout=15)
        assert len(remote.payload) > 20_000
        assert remote.payload == local.payload

    def test_non_tuple_request_is_a_typed_error(self, daemon):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            raw.connect(daemon.socket_path)
            from repro.serve.wire import read_frame, write_frame

            write_frame(raw, "not a tagged tuple")
            response = read_frame(raw.recv)
            assert response[0] == "err"
            assert response[1] == "bad_query"
        finally:
            raw.close()


class TestShutdown:
    def test_shutdown_frame_stops_daemon_and_removes_socket(self, tmp_path):
        service = api.serve(transit_graph(), graph_name="transit", workers=4)
        path = str(tmp_path / "bye.sock")
        daemon = ServeDaemon(service, path)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        with QueryClient.connect(path) as client:
            client.query("BFS", params={"source": "A"})
            client.shutdown()
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert not os.path.exists(path)
        # The service was closed with the daemon.
        with pytest.raises(ServeError, match="closed"):
            service.query("BFS", options={"no_cache": True})

    def test_stale_socket_file_is_replaced(self, tmp_path):
        path = str(tmp_path / "stale.sock")
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(path)
        dead.close()  # leaves the file behind, as a crashed daemon would
        service = api.serve(transit_graph(), graph_name="transit", workers=4)
        daemon = ServeDaemon(service, path)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            with QueryClient.connect(path) as client:
                assert client.ping()
        finally:
            daemon.request_shutdown()
            thread.join(timeout=15)

    def test_close_is_idempotent(self, tmp_path):
        service = api.serve(transit_graph(), graph_name="transit", workers=4)
        daemon = ServeDaemon(service, str(tmp_path / "idem.sock"))
        daemon.start()
        daemon.close()
        daemon.close()
