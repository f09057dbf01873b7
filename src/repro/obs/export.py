"""A minimal TCP exposition endpoint for a :class:`MetricsRegistry`.

``MetricsExporter`` binds a loopback (by default) TCP port and answers
every connection with the registry's current Prometheus text
exposition.  It speaks just enough HTTP for ``curl`` and a Prometheus
scraper — any request line gets a ``200 text/plain; version=0.0.4``
response — while a bare TCP client (``nc``, the test suite) can send
nothing and still receive the body.  One daemon thread, one accept
loop, scrape-time rendering; there is nothing to flush or rotate.

This endpoint is intentionally *not* started by default: a federation
exposes ``metrics_text()`` in-process, and only deployments that want
external scraping call :meth:`PolygenFederation.serve_metrics` (which
constructs one of these) or instantiate the exporter directly.
"""

from __future__ import annotations

import socket
import threading
from typing import Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["MetricsExporter"]


class MetricsExporter:
    """Serve a registry's text exposition on a TCP port.

    Usable as a context manager; ``address`` reports the bound
    ``(host, port)`` (useful with ``port=0``).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._registry = registry
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self._closed = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, name="metrics-exporter", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._sock.getsockname()[:2]
        return host, port

    def _serve(self) -> None:
        while not self._closed.is_set():
            try:
                connection, _ = self._sock.accept()
            except OSError:
                return  # socket closed
            threading.Thread(
                target=self._answer,
                args=(connection,),
                name="metrics-exporter-conn",
                daemon=True,
            ).start()

    def _answer(self, connection: socket.socket) -> None:
        try:
            connection.settimeout(0.25)
            request = b""
            try:
                request = connection.recv(4096)
            except (socket.timeout, OSError):
                pass
            body = self._registry.render().encode("utf-8")
            if request.startswith((b"GET ", b"HEAD", b"POST")):
                head = (
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: text/plain; version=0.0.4; "
                    b"charset=utf-8\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                    b"Connection: close\r\n\r\n"
                )
                connection.sendall(head + body)
            else:
                connection.sendall(body)
        except OSError:
            pass
        finally:
            try:
                connection.close()
            except OSError:
                pass

    def close(self) -> None:
        self._closed.set()
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does, so the port leaves LISTEN and the
        # serving thread exits before the join.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=2.0)

    def __enter__(self) -> "MetricsExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
