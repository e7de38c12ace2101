"""The serving daemon: a Unix-socket front end over one GraphService.

One :class:`ServeDaemon` owns a listening ``AF_UNIX`` socket and serves
each connection on its own thread; all connections share the single
resident :class:`~repro.serve.service.GraphService`, whose scheduler is
what bounds concurrency — the daemon itself accepts freely and lets
admission control (and its :class:`~repro.serve.errors.QueueFullError`
backpressure) do the limiting.

The protocol is the frame vocabulary of `repro.serve.wire`.  Every
:class:`~repro.serve.errors.ServeError` raised while answering a request
becomes an ``("err", code, message)`` frame — a failed query never tears
down the connection; only a frame that cannot be read (torn, oversized,
undecodable) does, after a ``bad_query`` error frame saying why.  A
``("shutdown",)`` frame answers ``("bye",)`` and then stops the daemon
cleanly (drain threads, close the service, unlink the socket).
"""

from __future__ import annotations

import json
import os
import socket
import threading
from typing import Any, List, Optional

from . import wire
from .errors import BadQueryError, ServeError
from .service import GraphService, QueryRequest

__all__ = ["ServeDaemon"]


class ServeDaemon:
    """Serve one :class:`GraphService` over a Unix stream socket."""

    def __init__(self, service: GraphService, socket_path: str):
        self.service = service
        self.socket_path = socket_path
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Bind and listen (idempotent); a stale socket file is replaced."""
        if self._listener is not None:
            return
        try:
            os.unlink(self.socket_path)
        except FileNotFoundError:
            pass
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(64)
        # A short accept timeout keeps the loop responsive to shutdown
        # requests arriving on connection threads.
        listener.settimeout(0.2)
        self._listener = listener

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`request_shutdown`."""
        self.start()
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                )
                thread.start()
                self._threads.append(thread)
        finally:
            self.close()

    def request_shutdown(self) -> None:
        """Ask the accept loop to wind down (safe from any thread/signal)."""
        self._stop.set()

    def close(self) -> None:
        """Stop accepting, drain connection threads, close the service,
        and remove the socket file.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._listener is not None:
            self._listener.close()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self.service.close()
        try:
            os.unlink(self.socket_path)
        except FileNotFoundError:
            pass

    def __enter__(self) -> "ServeDaemon":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- per-connection protocol --------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while True:
                try:
                    value = wire.read_frame(conn.recv)
                except OSError:
                    return
                except ValueError as exc:
                    # Torn, oversized or garbage frame: the stream is no
                    # longer at a frame boundary, so say why (if the peer
                    # is still there) and drop the connection.
                    try:
                        wire.write_frame(
                            conn, ("err", BadQueryError.code, str(exc))
                        )
                    except OSError:
                        pass
                    return
                if value is wire.EOF:
                    return  # clean EOF
                response = self._dispatch(value)
                try:
                    wire.write_frame(conn, response)
                except OSError:
                    return
                if response[0] == "bye":
                    return

    def _dispatch(self, value: Any) -> tuple:
        try:
            if not isinstance(value, tuple) or not value:
                raise BadQueryError(
                    f"malformed request frame: expected a tagged tuple, "
                    f"got {type(value).__name__}"
                )
            kind = value[0]
            if kind == "ping":
                return ("pong",)
            if kind == "stats":
                return ("stats", json.dumps(self.service.stats(),
                                            sort_keys=True))
            if kind == "shutdown":
                self.request_shutdown()
                return ("bye",)
            if kind == "query":
                return self._answer_query(value)
            raise BadQueryError(f"unknown request kind {kind!r}")
        except ServeError as exc:
            return ("err", exc.code, str(exc))
        except Exception as exc:  # never tear down the connection
            return ("err", "serve_error", f"{type(exc).__name__}: {exc}")

    def _answer_query(self, value: tuple) -> tuple:
        try:
            _, algorithm, params_items, interval, options_items = value
        except ValueError:
            raise BadQueryError(
                f"malformed query frame: expected 5 elements, got {len(value)}"
            ) from None
        if interval is not None:
            interval = tuple(interval)
        answer = self.service.submit(
            QueryRequest(
                algorithm=algorithm,
                params=wire.items_to_dict(params_items),
                interval=interval,
                options=wire.items_to_dict(options_items),
            )
        )
        meta = (
            ("cache_hit", answer.cache_hit),
            ("latency_s", answer.latency_s),
            ("query_id", answer.query_id),
        )
        return ("ok", answer.payload, meta)
